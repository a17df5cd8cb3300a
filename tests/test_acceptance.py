"""End-to-end acceptance gate.

Each test prints one line with its measured values, PASS when it
succeeds (run pytest with -s to see them). Criteria 1 (oracle
exactness), 2 (gradient correctness), 7 (determinism) and 8
(conservation and reward decomposition) run in seconds with the default
test run.

Criteria 3-6 are the paper's claims, one slow test per record of
gradroute.claims: 3, cooperative routes (triangle, braess1); 4, the
mixed optimum (contention); 5, the six-node endpoint (six_node); 6, the
shaping speedup (shaping_speedup). They run at preset hyperparameters
and preset lengths over the records' seeds, for about an hour in all,
and only when selected:

    pytest -m slow tests/test_acceptance.py -s

Measured at these settings (per seed; CHANGES.md has the detail):
triangle -7.973, -4.754 per tick, seed 3 load diverged at tick 39 857,
against -4 ± 0.5, FAIL; braess1 116, 116, 116 per packet against
88.5 ± 1.75, FAIL; contention p(top) 0.370, 0.346, 0.398 against
0.25 ± 0.05, FAIL; six_node -8.37, -8.30, -8.34 per tick against
-6 ± 0.6, FAIL; shaping_speedup medians 761 900 ticks shaped and
1 500 000 (censored) unshaped, x1.97, PASS.
"""
import math
import random
import time

import pytest

from gradroute.claims import CLAIMS, check
from gradroute.engine import Simulation
from gradroute.harness import run_experiment
from gradroute.oracles import (
    contention_expected_reward,
    contention_optimal_p,
)
from gradroute.learner import EligibilityTrace, LearnerConfig, sampling_weights, tick_update
from gradroute.learner import softmax_row
from gradroute.presets import preset


def test_criterion_1_oracle_exactness():
    t0 = time.perf_counter()
    assert contention_expected_reward(1.0, 21.0) == -22.0
    assert contention_expected_reward(0.0, 21.0) == -12.0
    assert contention_expected_reward(0.0, 7.0) == -12.0
    assert contention_expected_reward(0.25, 21.0) == -10.75
    rng = random.Random(2024)
    for _ in range(1000):
        p, d = rng.random(), rng.uniform(0.0, 50.0)
        closed = contention_expected_reward(p, d)
        enumerated = (
            p * p * (-1.0 - d) + (1 - p) ** 2 * (-12.0) + 2 * p * (1 - p) * (-7.0)
        )
        assert abs(closed - enumerated) <= 1e-12
    assert contention_optimal_p(21.0) == 0.25
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: oracle exactness (-22, -12, -10.75; 1000 random "
          f"agreements within 1e-12) in {elapsed:.2f}s")


def test_criterion_2_gradient_correctness():
    # with beta = 0.5, gamma = 1 and reward 1, one tick_update adds exactly
    # the decision's gradient to its row: the gradient the learner applies
    t0 = time.perf_counter()
    rng = random.Random(77)
    cfg = LearnerConfig(beta=0.5, gamma=1.0)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 8)
        row = [rng.uniform(-8.0, 8.0) for _ in range(n)]
        rows = [None, list(row)]  # the learner's layout: row id 1, a hole at 0
        trace = EligibilityTrace(rows)
        slot = rng.randrange(n)
        sampling_weights(rows, trace, 1)
        tick_update(rows, trace, cfg, [(1, slot)], 1.0)
        grad = [a - b for a, b in zip(rows[1], row)]
        assert abs(sum(grad)) <= 1e-12
        for j in range(n):
            up = list(row)
            up[j] += h
            down = list(row)
            down[j] -= h
            fd = (
                math.log(softmax_row(up)[slot]) - math.log(softmax_row(down)[slot])
            ) / (2 * h)
            worst = max(worst, abs(fd - grad[j]))
            assert abs(fd - grad[j]) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: the gradient tick_update applies matches central "
          f"differences of log softmax on 1000 random rows (worst abs err "
          f"{worst:.2e}) in {elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.parametrize("name", list(CLAIMS))
def test_criteria_3_to_6_paper_claims(name, tmp_path):
    t0 = time.perf_counter()
    target, cells, summary, passed = check(name, tmp_path)
    line = f"{name}: target {target}; {cells}; {summary} in {time.perf_counter() - t0:.0f}s"
    print(f"\n{'PASS' if passed else 'FAIL'} {line}")
    assert passed, line


def test_criterion_7_determinism_byte_identical_csv(tmp_path):
    for name in ("triangle", "contention", "six_node", "braess1"):
        cfg = preset(name).with_overrides(steps=5_000)
        a = run_experiment(cfg, tmp_path / f"{name}-a")
        b = run_experiment(cfg, tmp_path / f"{name}-b")
        with open(a.config.csv_path, "rb") as fa, open(b.config.csv_path, "rb") as fb:
            assert fa.read() == fb.read(), name
    print("\nPASS criterion 7: identical seeds give byte-identical CSV output "
          "on all four presets")


def test_criterion_8_conservation_and_reward_decomposition():
    for name in ("triangle", "contention", "six_node", "braess1"):
        cfg = preset(name).with_overrides(steps=3_000)
        sim = Simulation(cfg)
        gen = deliv = drop = 0
        for _ in range(cfg.steps):
            s = sim.step()  # step() itself re-checks cumulative conservation
            gen += s.generated
            deliv += s.delivered
            drop += s.dropped
            assert gen == deliv + drop + s.in_flight, name
            assert s.total == s.underlying + s.shaping, name
    print("\nPASS criterion 8: per-tick conservation and exact reward "
          "decomposition on all four presets (also asserted inside the engine "
          "on every tick of every run in this module)")

"""The paper's claims, one record each: the only home of their settings.

Routers that learn from one shared reward find cooperative routes
(triangle, braess1), reach a mixed optimum (contention), and learn
faster with a shaped reward (shaping_speedup, on six_node). A claim runs
each of its arms at each of its seeds and measures every run. An
Endpoint passes when the seeds' mean lies within `tolerance` of its
oracle target. A Speedup times each run to `threshold`, where the run
stops (harness.censored_ticks counts a miss at `steps`), with and
without the cycle penalty, and passes when the unshaped median is the
longer; its summary adds the one-sided p-value of an exact rank-sum test
over the seeds (rank_sum_p). Each arm runs as one harness.batch, so a
seed that trips the engine's load guard fails its claim, the other seeds
still run, and given an output directory each seed writes its files there.
"""
from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

from . import oracles
from .harness import RunResult, batch, censored_ticks
from .presets import BRAESS_PATHS, braess_network, preset, six_node_network, triangle_network


def underlying_per_tick(res: RunResult) -> float:
    """Mean underlying reward of the run's last ma_window sampled rows."""
    tail = res.rows[-res.config.ma_window :]
    return statistics.fmean(r.reward_underlying for r in tail)


class Endpoint(NamedTuple):
    preset: str
    statistic: str  # what `measure` returns, as the table names it
    measure: Callable[[RunResult], float]
    target: float
    tolerance: float
    seeds: tuple[int, ...] = (1, 2, 3)
    steps: int | None = None  # None: the preset's own
    threshold = None  # not a field: an endpoint runs every step

    def arms(self) -> dict:
        cfg = preset(self.preset)
        return {"": cfg._replace(steps=self.steps or cfg.steps)}

    def verdict(self, values: list[float]) -> tuple[str, str, bool]:
        mean = statistics.fmean(values) if values else float("nan")
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        passed = abs(mean - self.target) <= self.tolerance
        target = f"{self.statistic} {self.target:.4g} ± {self.tolerance:.3g}"
        return target, f"mean {mean:.4g} ± {sd:.2g}", passed


class Speedup(NamedTuple):
    preset: str
    threshold: float  # of the windowed underlying reward per tick
    window: int  # in sampled rows
    seeds: tuple[int, ...]
    steps: int
    penalties: tuple[float, float]  # cycle penalty with and without shaping

    def arms(self) -> dict:
        cfg = preset(self.preset)._replace(steps=self.steps, ma_window=self.window)
        return {
            arm: cfg.with_overrides(cycle_penalty=penalty)
            for arm, penalty in zip(("shaped", "unshaped"), self.penalties)
        }

    measure = staticmethod(censored_ticks)

    def verdict(self, shaped: list[int], unshaped: list[int]) -> tuple[str, str, bool]:
        a, b = (statistics.median(v) if v else float("nan") for v in (shaped, unshaped))
        p = rank_sum_p(shaped, unshaped)
        summary = f"medians {a:.0f} shaped, {b:.0f} unshaped: x{b / a:.2f}, rank p {p:.3g}"
        return f"ticks to {self.threshold:g}: x > 1", summary, b > a


def rank_sum_p(low: list[float], high: list[float]) -> float:
    """One-sided p-value of the exact rank-sum test that `low` tends
    below `high`: the share of all splits of the pooled values into arms
    of these sizes whose first arm has a rank sum no larger than `low`'s.

    Tied values share their mid-rank, so runs censored at the same run
    length tie at the top. Every split is enumerated, C(n, len(low)) of
    them: 252 for two arms of five.
    """
    pooled = sorted(low + high)
    # twice each value's mid-rank: the first plus the last 1-based
    # position of its ties, an integer
    ranks = [bisect_left(pooled, v) + 1 + bisect_right(pooled, v) for v in low + high]
    observed = sum(ranks[: len(low)])
    splits = [sum(arm) for arm in combinations(ranks, len(low))]
    return sum(s <= observed for s in splits) / len(splits)


BRAESS_OPTIMUM = oracles.braess_expected_cost(0.5, 1.0)
BRAESS_GREEDY = oracles.braess_cost_for_flows(
    braess_network()[0], dict.fromkeys(BRAESS_PATHS, 2)
)

# tolerances: triangle, nearer -4 than the -5 of sending every packet by
# its direct link; contention, 0.05 off p* costs 20 * 0.05**2 of the
# optimal -10.75 per tick; six_node, one stray hop per ten packets;
# braess1, nearer the optimum than the greedy 2/2/2 split
CLAIMS = {
    "triangle": Endpoint(
        "triangle", "reward/tick", underlying_per_tick,
        oracles.expected_optimal_reward(*triangle_network()), 0.5,
    ),
    "contention": Endpoint(
        "contention", "p(top)", lambda res: res.rows[-1].probs[0],
        oracles.contention_optimal_p(preset("contention").shaping.drop_penalty), 0.05,
    ),
    "six_node": Endpoint(
        "six_node", "reward/tick", underlying_per_tick,
        oracles.expected_optimal_reward(*six_node_network()), 0.6,
    ),
    "braess1": Endpoint(
        "braess1", "cost/packet",
        lambda res: -underlying_per_tick(res) / sum(res.config.traffic.rates),
        BRAESS_OPTIMUM, (BRAESS_GREEDY - BRAESS_OPTIMUM) / 2,
    ),
    "shaping_speedup": Speedup(
        "six_node", -8.0, 100, (1, 2, 3, 4, 5), 1_500_000, (-100.0, 0.0)
    ),
}


def check(name: str, out: Path | None) -> tuple[str, str, str, bool]:
    """Run one claim, each arm a batch: (its target, a cell per run, its
    summary, its verdict)."""
    claim = CLAIMS[name]
    values: list[list] = []  # the measures of each arm's finished runs
    cells = []
    for arm, cfg in claim.arms().items():
        result = batch(
            cfg,
            list(claim.seeds),
            underlying_threshold=claim.threshold,
            stop_at_threshold=claim.threshold is not None,
            out_dir=out and out / arm,
        )
        values.append([claim.measure(r) for r in result.finished.values()])
        for seed, cell in result.cells(lambda r: f"{claim.measure(r):.7g}").items():
            cells.append(f"{arm} {seed}: {cell}".lstrip())
    target, summary, passed = claim.verdict(*values)
    finished = sum(map(len, values)) == len(cells)
    return target, "  ".join(cells), summary, finished and passed

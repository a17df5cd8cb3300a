import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    apply_reward,
    begin_tick_accumulate,
    dense_tick_update,
    true_trace,
)
from gradroute import engine
from gradroute.config import ExperimentConfig, TrackedProbability
from gradroute.harness import run_experiment
from gradroute.learner import (
    EligibilityTrace,
    LearnerConfig,
    RunningAverageReward,
    observe_reward,
    settle_all,
    tick_update,
)
from gradroute.network import Topology, TrafficSpec
from gradroute.policy import (
    ParamTable,
    draw_with_gradient,
    make_tables,
    snapshot,
    softmax_row,
)
from gradroute.presets import preset


def fresh(n_links=2, dests=(1,)):
    table = ParamTable(0, n_links, list(dests))
    return table, EligibilityTrace(table)


class TestLearnerConfig:
    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError):
            LearnerConfig(beta=beta).validate()

    @pytest.mark.parametrize("gamma", [0.0, -1e-5])
    def test_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            LearnerConfig(gamma=gamma).validate()


class TestTraceAccumulation:
    def test_beta_zero_is_memoryless(self):
        _, trace = fresh(dests=(1, 2))
        trace.rows[2][:] = [4.0, -4.0]
        trace.active.add(2)
        cfg = LearnerConfig(beta=0.0, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [(1, [0.25, -0.25])])
        assert trace.rows[1] == [0.25, -0.25]
        assert trace.rows[2] == [0.0, 0.0]

    def test_half_decay_plus_gradient(self):
        _, trace = fresh()
        trace.rows[1][:] = [1.0, -1.0]
        trace.active.add(1)
        cfg = LearnerConfig(beta=0.5, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [(1, [0.5, -0.5])])
        assert trace.rows[1] == [1.0, -1.0]

    def test_no_decisions_just_decays(self):
        _, trace = fresh()
        trace.rows[1][:] = [2.0, -3.0]
        trace.active.add(1)
        cfg = LearnerConfig(beta=0.9, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [])
        assert trace.rows[1] == [2.0 * 0.9, -3.0 * 0.9]

    def test_decay_over_k_silent_ticks_is_beta_to_the_k(self):
        _, trace = fresh()
        start = [1.7, -0.3]
        trace.rows[1][:] = start
        trace.active.add(1)
        cfg = LearnerConfig(beta=0.97, gamma=1.0)
        for _ in range(40):
            begin_tick_accumulate(trace, cfg, [])
        for got, s in zip(trace.rows[1], start):
            assert got == pytest.approx(s * 0.97**40, rel=1e-12)

    def test_multiple_decisions_accumulate_additively(self):
        _, trace = fresh()
        cfg = LearnerConfig(beta=0.5, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [(1, [0.5, -0.5]), (1, [-0.25, 0.25])])
        assert trace.rows[1] == [0.25, -0.25]

    def test_shape_mismatch_rejected(self):
        _, trace = fresh()
        cfg = LearnerConfig(beta=0.5, gamma=1.0)
        with pytest.raises(ValueError):
            begin_tick_accumulate(trace, cfg, [(1, [0.1, 0.2, 0.3])])
        with pytest.raises(ValueError):
            begin_tick_accumulate(trace, cfg, [(9, [0.1, 0.2])])


class TestApplyReward:
    def test_zero_reward_leaves_theta(self):
        table, trace = fresh()
        trace.rows[1][:] = [1.0, 2.0]
        trace.active.add(1)
        apply_reward(table, trace, LearnerConfig(beta=0.5, gamma=0.1), 0.0)
        assert table.rows[1] == [0.0, 0.0]

    def test_hand_computed_update(self):
        table, trace = fresh()
        trace.rows[1][:] = [0.5, -0.5]
        trace.active.add(1)
        apply_reward(table, trace, LearnerConfig(beta=0.5, gamma=1e-5), -3.0)
        assert table.rows[1] == pytest.approx([-1.5e-5, 1.5e-5], rel=1e-12)

    def test_zero_trace_means_no_update(self):
        table, trace = fresh()
        apply_reward(table, trace, LearnerConfig(beta=0.5, gamma=0.5), -100.0)
        assert table.rows[1] == [0.0, 0.0]

    def test_non_finite_reward_rejected(self):
        table, trace = fresh()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                apply_reward(table, trace, LearnerConfig(), bad)
            with pytest.raises(ValueError):
                tick_update(table, trace, LearnerConfig(), [], bad)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    def test_linearity_in_reward(self, r1, r2):
        cfg = LearnerConfig(beta=0.5, gamma=1e-3)
        table_a, trace_a = fresh()
        table_b, trace_b = fresh()
        z = [0.7, -1.3]
        for tr in (trace_a, trace_b):
            tr.rows[1][:] = z
            tr.active.add(1)
        apply_reward(table_a, trace_a, cfg, r1)
        apply_reward(table_a, trace_a, cfg, r2)
        apply_reward(table_b, trace_b, cfg, r1 + r2)
        for a, b in zip(table_a.rows[1], table_b.rows[1]):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def assert_rows_close(got: dict, want: dict, rel: float = 1e-9) -> None:
    """Each row agrees to `rel` relative to the largest entry of the row."""
    for y, w in want.items():
        scale = max(abs(v) for v in w)
        err = max(abs(a - b) for a, b in zip(got[y], w))
        assert err <= rel * scale, (y, got[y], w)


class TestTickUpdate:
    # The lazy rule rounds differently from the dense one, so it is held to
    # 1e-9 relative, over runs long enough that rarely chosen rows stay
    # unsettled across many rescales; beta = 0 is applied densely and exactly.
    @pytest.mark.parametrize("credit_current_tick", [True, False])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
    def test_matches_reference_composition(self, credit_current_tick, beta):
        rng = random.Random(17)
        cfg = LearnerConfig(
            beta=beta, gamma=1e-3, credit_current_tick=credit_current_tick
        )
        dests = (1, 2, 3, 4, 5, 6)
        weights = (50, 20, 10, 5, 1, 0.2)  # rows 5 and 6 go stale for long spans
        table_l, trace_l = fresh(3, dests=dests)
        table_d, trace_d = fresh(3, dests=dests)
        rescales = 0
        for t in range(1, 20_001):
            grads = [
                (rng.choices(dests, weights)[0], [rng.uniform(-1, 1) for _ in range(3)])
                for _ in range(rng.choice((0, 0, 0, 1, 1, 2)))
            ]
            r = rng.uniform(-20, 2)
            scale_before = trace_l.scale
            tick_update(table_l, trace_l, cfg, grads, r)
            dense_tick_update(table_d, trace_d, cfg, grads, r)
            rescales += trace_l.scale > scale_before
            if t % 2_500 == 0:
                settle_all(table_l, trace_l)
                if beta == 0.0:
                    assert table_l.rows == table_d.rows
                    assert true_trace(trace_l) == trace_d.rows
                else:
                    assert_rows_close(table_l.rows, table_d.rows)
                    assert_rows_close(true_trace(trace_l), trace_d.rows)
        if beta > 0.0:
            assert rescales >= 20

    def test_two_orderings_differ_only_in_same_tick_credit(self):
        # with the alternative ordering, tick-t reward cannot reach tick-t decisions
        g = [0.5, -0.5]
        cfg_now = LearnerConfig(beta=0.9, gamma=1.0, credit_current_tick=True)
        cfg_prev = LearnerConfig(beta=0.9, gamma=1.0, credit_current_tick=False)
        table_now, trace_now = fresh()
        table_prev, trace_prev = fresh()
        tick_update(table_now, trace_now, cfg_now, [(1, g)], -2.0)
        tick_update(table_prev, trace_prev, cfg_prev, [(1, g)], -2.0)
        assert table_now.rows[1] == [-1.0, 1.0]
        assert table_prev.rows[1] == [0.0, 0.0]  # trace was still empty


class TestBanditAscent:
    def test_two_link_bandit_prefers_the_better_arm(self):
        # rewards -1 (slot 0) vs -2 (slot 1); exact gradient favors slot 0
        rng = random.Random(7)
        table, trace = fresh()
        cfg = LearnerConfig(beta=0.0, gamma=0.01)
        for _ in range(100_000):
            slot, grad = draw_with_gradient(table.rows[1], rng)
            tick_update(table, trace, cfg, [(1, grad)], -1.0 if slot == 0 else -2.0)
        assert softmax_row(table.rows[1])[0] > 0.95


class TestRunningAverage:
    def test_three_values(self):
        avg = RunningAverageReward()
        for r in (-12.0, -22.0, -7.0):
            observe_reward(avg, r)
        assert avg.count == 3
        assert avg.mean == pytest.approx(-41.0 / 3.0, rel=1e-15)

    def test_single_value(self):
        avg = observe_reward(RunningAverageReward(), -3.25)
        assert avg.mean == -3.25

    def test_zero_stream(self):
        avg = RunningAverageReward()
        for _ in range(100):
            observe_reward(avg, 0.0)
        assert avg.mean == 0.0


def ring_config():
    """12-router ring with chords (links i->i+-1, i->i+-3), two sources;
    beta=0.99 and the pre-decision ordering, so rows stay stale across
    rescales and the second ordering is covered too."""
    n = 12
    labels = [f"N{i}" for i in range(n)]
    links = [(labels[i], labels[(i + k) % n], 1) for i in range(n) for k in (1, -1, 3, -3)]
    topo = Topology.build(labels, links)
    sources = (0, n // 2)
    dest_probs = tuple(
        tuple(0.0 if (y == s or s not in sources) else 1.0 / (n - 1) for y in range(n))
        for s in range(n)
    )
    traffic = TrafficSpec(
        rates=tuple(1 if s in sources else 0 for s in range(n)), dest_probs=dest_probs
    )
    return ExperimentConfig(
        topology=topo,
        traffic=traffic,
        learner=LearnerConfig(beta=0.99, gamma=1e-4, credit_current_tick=False),
        steps=1_500,
        sample_every=50,
        tracked=(TrackedProbability(0, n // 2, topo.out_link_indices(0)[2]),),
    )


class TestLazyMatchesDenseInSimulation:
    """Replay every tick_update call of a run through the dense oracle; the
    lazily updated logits the run reports must match it."""

    @pytest.mark.parametrize(
        "cfg",
        [
            preset("six_node").with_overrides(
                steps=1_500,
                tracked=(TrackedProbability(0, 3, 1),),
            ),
            ring_config(),
            preset("braess1").with_overrides(
                steps=1_500, tracked=preset("braess1").tracked[:1]
            ),
        ],
        ids=["six_node", "ring12", "braess1"],
    )
    def test_theta_and_tracked_probability(self, cfg, monkeypatch):
        calls = []
        real = engine.tick_update

        def recording(table, trace, learner_cfg, grads, reward):
            calls.append((table.router, [(d, list(g)) for d, g in grads], reward))
            real(table, trace, learner_cfg, grads, reward)

        monkeypatch.setattr(engine, "tick_update", recording)
        res = run_experiment(cfg)

        tables = make_tables(cfg.topology)
        traces = {r: EligibilityTrace(t) for r, t in tables.items()}
        for router, grads, reward in calls:
            for dest, g in grads:
                # each decision sampled from the up-to-date policy: its
                # gradient is one-hot(slot) - probs under the oracle's logits
                probs = softmax_row(tables[router].rows[dest])
                dev = sorted(gi + p for gi, p in zip(g, probs))
                dev[-1] -= 1.0
                assert max(map(abs, dev)) < 1e-9
            dense_tick_update(tables[router], traces[router], cfg.learner, grads, reward)
        assert len(calls) == cfg.steps * len(tables)

        want = snapshot(tables, cfg.topology)
        for router, rows in res.final_theta.items():
            assert_rows_close(rows, want[router])
        (tp,) = cfg.tracked
        slot = cfg.topology.out_link_indices(tp.router).index(tp.link_index)
        p = softmax_row(tables[tp.router].rows[tp.dest])[slot]
        assert res.rows[-1].probs[0] == pytest.approx(p, rel=1e-9)
        # the run learned something, so the comparison is not of zeros
        learned = [v for rows in want.values() for row in rows.values() for v in row]
        assert max(map(abs, learned)) > 1e-3

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    apply_reward,
    begin_tick_accumulate,
    copy_rows,
    decision_gradient,
    dense_tick_update,
    gibbs_weights,
    sample_slot,
    table_of,
    true_trace,
)
from gradroute import engine
from gradroute.config import ExperimentConfig, TrackedProbability
from gradroute.harness import run_experiment
from gradroute.learner import (
    EligibilityTrace,
    LearnerConfig,
    current_logits,
    current_probabilities,
    sampling_weights,
    softmax_row,
    tick_update,
)
from gradroute.network import Topology, TrafficSpec
from gradroute.presets import preset


def fresh(n_links=2, dests=(1,)):
    """One router's zero logit rows by destination (None at every other
    id), and a trace over them."""
    table = table_of({y: [0.0] * n_links for y in dests})
    return table, EligibilityTrace(table)


class TestLearnerConfig:
    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
    def test_bad_beta(self, beta):
        assert LearnerConfig().validate() == []
        (violation,) = LearnerConfig(beta=beta).validate()
        assert violation.startswith("learner.beta: ")

    @pytest.mark.parametrize("gamma", [0.0, -1e-5])
    def test_bad_gamma(self, gamma):
        assert LearnerConfig().validate() == []
        (violation,) = LearnerConfig(gamma=gamma).validate()
        assert violation.startswith("learner.gamma: ")


class TestTraceAccumulation:
    def test_beta_zero_is_memoryless(self):
        _, trace = fresh(dests=(1, 2))
        trace.rows[2][:] = [4.0, -4.0]
        trace.active[2] = trace.acc
        cfg = LearnerConfig(beta=0.0, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [(1, [0.25, -0.25])])
        assert trace.rows[1] == [0.25, -0.25]
        assert trace.rows[2] == [0.0, 0.0]

    def test_half_decay_plus_gradient(self):
        _, trace = fresh()
        trace.rows[1][:] = [1.0, -1.0]
        trace.active[1] = trace.acc
        cfg = LearnerConfig(beta=0.5, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [(1, [0.5, -0.5])])
        assert trace.rows[1] == [1.0, -1.0]

    def test_no_decisions_just_decays(self):
        _, trace = fresh()
        trace.rows[1][:] = [2.0, -3.0]
        trace.active[1] = trace.acc
        cfg = LearnerConfig(beta=0.9, gamma=1.0)
        begin_tick_accumulate(trace, cfg, [])
        assert trace.rows[1] == [2.0 * 0.9, -3.0 * 0.9]

    def test_decay_over_k_silent_ticks_is_beta_to_the_k(self):
        _, trace = fresh()
        start = [1.7, -0.3]
        trace.rows[1][:] = start
        trace.active[1] = trace.acc
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
        trace.active[1] = trace.acc
        apply_reward(table, trace, LearnerConfig(beta=0.5, gamma=0.1), 0.0)
        assert table[1] == [0.0, 0.0]

    def test_hand_computed_update(self):
        table, trace = fresh()
        trace.rows[1][:] = [0.5, -0.5]
        trace.active[1] = trace.acc
        apply_reward(table, trace, LearnerConfig(beta=0.5, gamma=1e-5), -3.0)
        assert table[1] == pytest.approx([-1.5e-5, 1.5e-5], rel=1e-12)

    def test_zero_trace_means_no_update(self):
        table, trace = fresh()
        apply_reward(table, trace, LearnerConfig(beta=0.5, gamma=0.5), -100.0)
        assert table[1] == [0.0, 0.0]

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
            tr.active[1] = tr.acc
        apply_reward(table_a, trace_a, cfg, r1)
        apply_reward(table_a, trace_a, cfg, r2)
        apply_reward(table_b, trace_b, cfg, r1 + r2)
        for a, b in zip(table_a[1], table_b[1]):
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
    # unsettled across many rescales; at beta = 0 every tick runs at scale
    # 1, where the lazy rule makes the dense rule's additions exactly.
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
    def test_matches_reference_composition(self, beta):
        rng = random.Random(17)
        cfg = LearnerConfig(beta=beta, gamma=1e-3)
        dests = (1, 2, 3, 4, 5, 6)
        odds = (50, 20, 10, 5, 1, 0.2)  # rows 5 and 6 go stale for long spans
        table_l, trace_l = fresh(3, dests=dests)
        table_d, trace_d = fresh(3, dests=dests)
        rescales = 0
        for t in range(1, 20_001):
            decisions, grads = [], []
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
                dest = rng.choices(dests, odds)[0]
                if dest not in trace_l.weights:
                    # weights from random logits, recorded as sampling_weights
                    # would; a second decision on the row shares them
                    logits = [rng.uniform(-3, 3) for _ in range(3)]
                    trace_l.weights[dest] = gibbs_weights(logits)
                slot = rng.randrange(3)
                decisions.append((dest, slot))
                grads.append((dest, decision_gradient(trace_l.weights[dest], slot)))
            r = rng.uniform(-20, 2)
            scale_before = trace_l.scale
            tick_update(table_l, trace_l, cfg, decisions, r)
            dense_tick_update(table_d, trace_d, cfg, grads, r)
            rescales += trace_l.scale > scale_before
            if t % 2_500 == 0:
                current = {y: current_logits(table_l, trace_l, y) for y in dests}
                dense = {y: table_d[y] for y in dests}
                lazy_z = true_trace(trace_l)
                if beta == 0.0:
                    assert current == dense
                    assert lazy_z == trace_d.rows
                else:
                    assert_rows_close(current, dense)
                    assert lazy_z[0] is None and trace_d.rows[0] is None
                    assert_rows_close(
                        {y: lazy_z[y] for y in dests}, {y: trace_d.rows[y] for y in dests}
                    )
        if beta > 0.0:
            assert rescales >= 20

    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_tick_reward_credits_its_own_decision(self, beta):
        # the reward of tick t reaches the decision of tick t; slot 0 drawn
        # from uniform weights has gradient [0.5, -0.5]
        table, trace = fresh()
        weights = sampling_weights(table, trace, 1)
        assert weights == ([1.0, 1.0], 2.0, [1.0, math.inf])
        tick_update(table, trace, LearnerConfig(beta=beta, gamma=1.0), [(1, 0)], -2.0)
        assert table[1] == [-1.0, 1.0]

    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_decision_needs_weights_recorded_this_tick(self, beta):
        table, trace = fresh()
        cfg = LearnerConfig(beta=beta, gamma=1.0)
        with pytest.raises(ValueError, match="decision row 1: no weights"):
            tick_update(table, trace, cfg, [(1, 0)], -1.0)
        weights = sampling_weights(table, trace, 1)
        assert trace.weights == {1: weights}
        tick_update(table, trace, cfg, [(1, 0), (1, 1)], -1.0)
        assert trace.weights == {}  # consumed by the tick that used them
        with pytest.raises(ValueError, match="decision row 1: no weights"):
            tick_update(table, trace, cfg, [(1, 0)], -1.0)
        sampling_weights(table, trace, 1)
        tick_update(table, trace, cfg, [], -1.0)  # recorded, unused: dropped
        with pytest.raises(ValueError, match="decision row 1: no weights"):
            tick_update(table, trace, cfg, [(1, 0)], -1.0)

    @pytest.mark.parametrize(
        "decision, message",
        [
            ((9, 0), "row 9: no such row"),
            ((0, 0), "row 0: no such row"),
            ((-1, 0), "row -1: no such row"),
            ((1, 2), "slot 2"),
            ((1, -1), "slot -1"),
        ],
        ids=["unknown_row", "hole_row", "negative_row", "slot_past_end", "negative_slot"],
    )
    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_unknown_row_or_slot_rejected(self, beta, decision, message):
        # sampling_weights cannot record weights for a row the table lacks:
        # past its end, or at a hole (fresh() leaves id 0 one)
        table, trace = fresh()
        cfg = LearnerConfig(beta=beta, gamma=1.0)
        with pytest.raises(IndexError):
            sampling_weights(table, trace, 9)
        with pytest.raises(TypeError):
            sampling_weights(table, trace, 0)
        assert trace.weights == {}
        sampling_weights(table, trace, 1)
        with pytest.raises(ValueError, match=message):
            tick_update(table, trace, cfg, [decision], -1.0)
        assert table[1] == [0.0, 0.0]  # rejected before any update

    @pytest.mark.parametrize(
        "read",
        [
            sampling_weights,
            current_logits,
            lambda rows, trace, y: current_probabilities(rows, trace, [(y, 0)]),
        ],
        ids=["sampling_weights", "current_logits", "current_probabilities"],
    )
    @pytest.mark.parametrize("y", [-2], ids=["negative_row"])
    def test_reader_refuses_a_negative_row(self, read, y):
        # the triangle's table has 9 entries: -2 would read row 7 from its end
        rows = engine.make_tables(preset("triangle").topology)
        trace = EligibilityTrace(rows)
        before = copy_rows(rows)
        with pytest.raises(ValueError, match=f"row {y}: no such row"):
            read(rows, trace, y)
        assert trace.weights == {} and trace.active == {}
        with pytest.raises(ValueError, match=f"decision row {y}: no such row"):
            tick_update(rows, trace, LearnerConfig(gamma=1.0), [(y, 0)], 1.0)
        assert rows == before and trace.active == {}


class TestSamplingWeightsKernel:
    """sampling_weights settles, takes the max, the exponentials and the
    draw table in one kernel; it must equal the pure read current_logits()
    followed by the reference gibbs_weights float for float, the +inf
    entry included, and leave the row holding what current_logits read."""

    @staticmethod
    def pair(rng, width, case):
        """The same row twice, in two tables and traces; `case` says what
        the row is owed: "stale" (d != 0), "marked" (d == 0, mark == acc)
        or "unmarked" (d == 0, not in active: never credited)."""
        logits = [rng.gauss(0.0, 3.0) for _ in range(width)]
        z = [rng.gauss(0.0, 1.0) for _ in range(width)]
        acc = rng.gauss(0.0, 1.0)
        owed = rng.gauss(0.0, 1.0)
        made = []
        for _ in range(2):
            table, trace = fresh(width, dests=(1, 2))
            table[1][:] = logits
            trace.rows[1][:] = z
            trace.acc = acc
            trace.active[2] = 0.5  # another row's mark, never touched
            if case == "stale":
                trace.active[1] = acc - owed
            elif case == "marked":
                trace.active[1] = acc
            made.append((table, trace))
        return made

    @pytest.mark.parametrize("case", ["stale", "marked", "unmarked"])
    @pytest.mark.parametrize("width", range(2, 9))
    def test_equals_settle_then_reference(self, width, case):
        rng = random.Random(width * 10 + len(case))
        for _ in range(200):
            (table, trace), (ref_table, ref_trace) = self.pair(rng, width, case)
            mark_before = dict(trace.active)
            ref_before = copy_rows(ref_table)
            weights = sampling_weights(table, trace, 1)
            logits = current_logits(ref_table, ref_trace, 1)
            assert weights == gibbs_weights(logits)
            assert weights[2][-1] == math.inf
            assert trace.weights == {1: weights}
            assert table == [ref_before[0], logits, ref_before[2]]
            # the read wrote nothing
            assert ref_table == ref_before and ref_trace.active == mark_before
            if case == "stale":
                assert trace.active == {**mark_before, 1: trace.acc}
            else:
                assert trace.active == mark_before  # nothing owed: untouched


class TestOneColumnTable:
    """A router with one out-link: every decision's gradient is exactly zero,
    so tick_update checks the decisions and never touches the rows."""

    @staticmethod
    def rows_state(table, trace):
        """Everything of the table and trace but the network's clock."""
        return (
            copy_rows(table),
            copy_rows(trace.rows),
            dict(trace.active),
            dict(trace.weights),
        )

    def state(self, table, trace):
        return (*self.rows_state(table, trace), trace.scale, trace.acc)

    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_table_and_trace_untouched(self, beta):
        table, trace = fresh(1, dests=(1, 2))
        cfg = LearnerConfig(beta=beta, gamma=1.0)
        before = self.rows_state(table, trace)
        for _ in range(3):
            tick_update(table, trace, cfg, [(1, 0), (2, 0), (1, 0)], -7.5)
            tick_update(table, trace, cfg, [], -1.0)
            assert not trace.active
        # the clock is the network's and runs on, but no row is owed by it
        assert trace.acc != 0.0
        assert self.rows_state(table, trace) == before
        assert [current_logits(table, trace, y) for y in (1, 2)] == [[0.0], [0.0]]
        assert table == [None, [0.0], [0.0]]

    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_stays_zero_beside_a_learning_row(self, beta):
        # one network: row 1 of a two-link router and row 3 of a one-link
        # router, under one clock and one call per tick
        rows = table_of({1: [0.0, 0.0], 3: [0.0]})
        trace = EligibilityTrace(rows)
        cfg = LearnerConfig(beta=beta, gamma=0.1)
        for t in range(400):  # past several rescales at beta = 0.9
            sampling_weights(rows, trace, 1)
            tick_update(rows, trace, cfg, [(3, 0), (1, t % 2), (3, 0)], -1.0 - t % 2)
            assert 3 not in trace.active
        assert current_logits(rows, trace, 3) == [0.0] and trace.rows[3] == [0.0]
        assert abs(rows[1][0]) > 1.0  # while the two-link row learned

    @pytest.mark.parametrize(
        "decision, message",
        [
            ((9, 0), "row 9: no such row"),
            ((0, 0), "row 0: no such row"),
            ((-3, 0), "row -3: no such row"),
            ((1, 1), "row 1: slot 1"),
            ((1, -1), "row 1: slot -1"),
        ],
        ids=["unknown_row", "hole_row", "negative_row", "slot_past_end", "negative_slot"],
    )
    def test_bad_decision_rejected(self, decision, message):
        table, trace = fresh(1, dests=(1, 2))
        before = self.state(table, trace)
        with pytest.raises(ValueError, match=message):
            tick_update(table, trace, LearnerConfig(), [(2, 0), decision], -1.0)
        assert self.state(table, trace) == before

    def test_non_finite_reward_checked_first(self):
        table, trace = fresh(1, dests=(1,))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite reward"):
                tick_update(table, trace, LearnerConfig(), [(1, 0)], bad)
            with pytest.raises(ValueError, match="non-finite reward"):
                tick_update(table, trace, LearnerConfig(), [(9, 5)], bad)


class TestBanditAscent:
    def test_two_link_bandit_prefers_the_better_arm(self):
        # rewards -1 (slot 0) vs -2 (slot 1); exact gradient favors slot 0
        rng = random.Random(7)
        table, trace = fresh()
        cfg = LearnerConfig(beta=0.0, gamma=0.01)
        for _ in range(100_000):
            sampling_weights(table, trace, 1)
            slot = sample_slot(softmax_row(table[1]), rng)
            tick_update(table, trace, cfg, [(1, slot)], -1.0 if slot == 0 else -2.0)
        assert softmax_row(table[1])[0] > 0.95


def ring_config():
    """12-router ring with chords (links i->i+-1, i->i+-3), two sources;
    beta=0.99, so rows stay stale across rescales."""
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
        learner=LearnerConfig(beta=0.99, gamma=1e-4),
        steps=1_500,
        sample_every=50,
        tracked=(TrackedProbability(n // 2, topo.out_link_indices(0)[2]),),
    )


FORCED = gibbs_weights([0.0])  # the Gibbs weights of a one-column row


class TestLazyMatchesDenseInSimulation:
    """Replay every tick_update call of a run through the dense oracle, with
    a trace of its own per router: the lazily updated logits the run
    reports, under one network clock, must match N separate dense traces."""

    @pytest.mark.parametrize(
        "cfg",
        [
            preset("six_node").with_overrides(
                steps=1_500,
                tracked=(TrackedProbability(3, 1),),
            ),
            ring_config(),
            preset("braess1").with_overrides(
                steps=1_500, tracked=preset("braess1").tracked[:1]
            ),
        ],
        ids=["six_node", "ring12", "braess1"],
    )
    def test_theta_and_tracked_probability(self, cfg, monkeypatch, tmp_path):
        n = cfg.topology.n_nodes
        # the dense oracle's logits, per router with a row: its slice of the
        # network's table, indexed by destination
        rows = engine.make_tables(cfg.topology)
        tables = {}
        for router in range(n):
            table = rows[router * n : (router + 1) * n]
            if any(row is not None for row in table):
                tables[router] = table
        calls = []
        real = engine.tick_update

        def recording(rows, trace, learner_cfg, decisions, reward):
            # rebuild each decision's gradient, by router, before the real
            # call pops the row's recorded weights; a one-column row records
            # none, and a forced decision's weights are those of one zero logit
            grads = {router: [] for router in tables}
            for row, s in decisions:
                router, dest = divmod(row, n)
                weights = trace.weights[row] if len(rows[row]) > 1 else FORCED
                grads[router].append((dest, decision_gradient(weights, s)))
            calls.append((grads, reward))
            real(rows, trace, learner_cfg, decisions, reward)

        monkeypatch.setattr(engine, "tick_update", recording)
        theta_path = tmp_path / "theta.json"
        res = run_experiment(cfg._replace(theta_path=str(theta_path)))
        assert len(calls) == cfg.steps  # one call per tick, for every router

        traces = {r: EligibilityTrace(t) for r, t in tables.items()}
        for grads, reward in calls:
            for router, table in tables.items():
                for dest, g in grads[router]:
                    # each decision sampled from the up-to-date policy: its
                    # gradient is one-hot(slot) - probs under the oracle's logits
                    probs = softmax_row(table[dest])
                    dev = sorted(gi + p for gi, p in zip(g, probs))
                    dev[-1] -= 1.0
                    assert max(map(abs, dev)) < 1e-9
                dense_tick_update(table, traces[router], cfg.learner, grads[router], reward)

        label = cfg.topology.label
        want = {
            label(r): {label(y): row for y, row in enumerate(t) if row is not None}
            for r, t in tables.items()
        }
        theta = json.loads(theta_path.read_text())  # repr round-trips every float
        assert list(theta) == list(want)
        for router, dests in theta.items():
            assert list(dests) == list(want[router])
            assert_rows_close(dests, want[router])
        (tp,) = cfg.tracked
        router = cfg.topology.links[tp.link_index].src
        slot = cfg.topology.out_link_indices(router).index(tp.link_index)
        p = softmax_row(tables[router][tp.dest])[slot]
        assert res.final_row.probs[0] == pytest.approx(p, rel=1e-9)
        # the run learned something, so the comparison is not of zeros
        learned = [v for rows in want.values() for row in rows.values() for v in row]
        assert max(map(abs, learned)) > 1e-3

import math
import operator
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import sample_slot, table_of
from gradroute.engine import Simulation, make_tables
from gradroute.learner import (
    _PROB_FLOOR,
    EligibilityTrace,
    LearnerConfig,
    current_logits,
    current_probability,
    sampling_weights,
    softmax_row,
    tick_update,
)
from gradroute.presets import braess_network, preset, triangle_network

logit_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


def applied_gradient(rows, row_id, slot):
    """The change one decision (row_id, slot) makes to its logit row. With
    beta = 0.5, gamma = 1 and reward 1 the learner adds exactly that
    decision's log-policy gradient to the row."""
    before = list(rows[row_id])
    trace = EligibilityTrace(rows)
    sampling_weights(rows, trace, row_id)
    tick_update(rows, trace, LearnerConfig(beta=0.5, gamma=1.0), [(row_id, slot)], 1.0)
    return [a - b for a, b in zip(rows[row_id], before)]


class TestActionProbabilities:
    def test_uniform_for_zero_logits(self):
        assert softmax_row([0.0, 0.0]) == [0.5, 0.5]

    def test_log3_row(self):
        probs = softmax_row([math.log(3), 0.0])
        assert probs[0] == pytest.approx(0.75, abs=1e-12)
        assert probs[1] == pytest.approx(0.25, abs=1e-12)

    def test_constant_row_is_uniform(self):
        probs = softmax_row([5.0, 5.0, 5.0])
        assert probs == pytest.approx([1 / 3] * 3, abs=1e-12)

    @settings(max_examples=300)
    @given(logit_rows)
    def test_normalization(self, row):
        probs = softmax_row(row)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        # strictly positive always; strictly below 1 whenever the spread
        # leaves room at float precision
        assert all(p > 0.0 for p in probs)
        if len(row) > 1 and max(row) - min(row) < 30:
            assert all(p < 1.0 for p in probs)

    @settings(max_examples=300)
    @given(logit_rows, st.floats(min_value=-40, max_value=40, allow_nan=False))
    def test_shift_invariance(self, row, c):
        base = softmax_row(row)
        shifted = softmax_row([v + c for v in row])
        for a, b in zip(base, shifted):
            assert a == pytest.approx(b, abs=1e-12)


class TestSampling:
    def test_extreme_logits_pick_the_dominant_slot(self):
        probs = softmax_row([30.0, -30.0])
        for seed in range(20):
            assert sample_slot(probs, random.Random(seed)) == 0

    def test_inverse_cdf_boundary(self):
        class FixedU:
            def random(self):
                return 0.75

        assert sample_slot([0.5, 0.5], FixedU()) == 1

    def test_empirical_frequencies(self):
        probs = softmax_row([math.log(3), 0.0])
        rng = random.Random(123)
        n = 100_000
        hits = sum(sample_slot(probs, rng) == 0 for _ in range(n))
        # 3-sigma binomial band around 0.75
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(hits / n - 0.75) < 3 * sigma


class TestLogPolicyGradient:
    def test_uniform_case(self):
        assert applied_gradient(table_of({1: [0.0, 0.0]}), 1, 0) == [0.5, -0.5]

    def test_quarter_case(self):
        g = applied_gradient(table_of({1: [math.log(3), 0.0]}), 1, 1)
        assert g[0] == pytest.approx(-0.75, abs=1e-12)
        assert g[1] == pytest.approx(0.75, abs=1e-12)

    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            applied_gradient(table_of({1: [0.0, 0.0]}), 1, 2)

    @settings(max_examples=300)
    @given(logit_rows, st.randoms(use_true_random=False))
    def test_components_sum_to_zero(self, row, rng):
        slot = rng.randrange(len(row))
        g = applied_gradient(table_of({1: list(row)}), 1, slot)
        assert sum(g) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference(self):
        rng = random.Random(7)
        h = 1e-5
        for _ in range(200):
            n = rng.randint(1, 8)
            row = [rng.uniform(-5, 5) for _ in range(n)]
            slot = rng.randrange(n)
            analytic = applied_gradient(table_of({1: list(row)}), 1, slot)
            for j in range(n):
                up = list(row)
                up[j] += h
                down = list(row)
                down[j] -= h
                lo = math.log(softmax_row(down)[slot])
                hi = math.log(softmax_row(up)[slot])
                fd = (hi - lo) / (2 * h)
                assert abs(fd - analytic[j]) < 1e-6


class TestMakeTables:
    def test_single_link_router_keeps_a_one_column_table(self):
        topo, _ = braess_network(augmented=True)
        rows = make_tables(topo)
        row_id = topo.node_id("C") * topo.n_nodes + topo.node_id("B")
        assert rows[row_id] == [0.0]
        # its gradient is identically zero: only one action to explain
        assert applied_gradient(rows, row_id, 0) == [0.0]
        assert rows[row_id] == [0.0]

    def test_sink_gets_no_table_and_self_rows_are_absent(self):
        topo, _ = braess_network(augmented=True)
        n = topo.n_nodes
        rows = make_tables(topo)
        assert len(rows) == n * n  # one entry per flat row id, holes included
        ids = [row_id for row_id, row in enumerate(rows) if row is not None]
        routers = {row_id // n for row_id in ids}
        assert topo.node_id("B") not in routers
        assert not any(row_id // n == row_id % n for row_id in ids)
        # every other node has a row at every router with an out-link
        assert len(ids) == len(routers) * (n - 1)

    def test_initial_tables_are_uniform(self):
        topo, _ = triangle_network()
        rows = [row for row in make_tables(topo) if row is not None]
        assert rows
        for row in rows:
            probs = softmax_row(row)
            assert probs == pytest.approx([1 / len(probs)] * len(probs))

    def test_snapshot_decodes_router_and_destination(self):
        sim = Simulation(preset("braess1"))
        topo = sim.topology
        a, e, b = (topo.node_id(x) for x in "AEB")
        sim._rows[a * topo.n_nodes + b][:] = [1.0, -1.0]
        sim._rows[e * topo.n_nodes + b][:] = [2.0, -2.0]
        snap = dict(sim.theta_by_router())
        assert snap["A"]["B"] == [1.0, -1.0] and snap["E"]["B"] == [2.0, -2.0]
        assert "B" not in snap and "A" not in snap["A"]
        assert list(snap) == sorted(snap, key=topo.node_id)


def reference_softmax_row(logits):
    """softmax_row as first written, with a max() call per entry, totalling
    its exponentials left to right as softmax_row does (the builtin sum
    rounds otherwise from CPython 3.12 on)."""
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    s = 0.0
    for e in exps:
        s = operator.add(s, e)
    return [max(e / s, _PROB_FLOOR) for e in exps]


def bits(values):
    return [struct.pack("<d", v) for v in values]


any_logit = st.one_of(
    st.floats(),  # NaN, ±inf, ±0.0, subnormals
    st.sampled_from([-0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]),
)
# the floor binds once a logit sits more than ~745 below the row's max
wide_rows = st.lists(st.floats(-2000.0, 2000.0), min_size=2, max_size=5).map(
    lambda row: row + [max(row) + 800.0]
)


class TestSoftmaxRowPin:
    @settings(max_examples=500, deadline=None)
    @given(row=st.one_of(st.lists(any_logit, min_size=1, max_size=6), wide_rows))
    def test_same_float_bits_as_the_reference(self, row):
        try:
            want = reference_softmax_row(row)
        except (OverflowError, ValueError) as e:
            with pytest.raises(type(e)):
                softmax_row(row)
            return
        assert bits(softmax_row(row)) == bits(want)

    @pytest.mark.parametrize(
        "row",
        [[0.0], [math.nan], [math.inf], [0.0, -800.0], [-800.0, 0.0, -1e300],
         [math.inf, 1.0], [1.0, math.nan, 2.0], [math.nan, 1.0], [-math.inf, -math.inf]],
    )
    def test_fixed_rows(self, row):
        got = softmax_row(row)
        assert bits(got) == bits(reference_softmax_row(row))
        if row == [0.0, -800.0]:
            assert got == [1.0, _PROB_FLOOR]  # the floor binds


def same_float(got, want):
    """Bit-equal, except that any NaN matches any NaN: the sign of NaN +
    NaN depends on whether CPython has specialised the addition yet, so
    one function can return either on different calls."""
    if math.isnan(want):
        return math.isnan(got)
    return bits([got]) == bits([want])


class TestCurrentProbabilityPin:
    # logit_rows too: moderate logits, whose totals of three or more
    # exponentials round differently under another summation
    @settings(max_examples=300, deadline=None)
    @given(
        row=st.one_of(st.lists(any_logit, min_size=1, max_size=6), wide_rows, logit_rows),
        data=st.data(),
    )
    @pytest.mark.parametrize("owed", [False, True])
    def test_each_slot_as_softmax_of_current_logits(self, owed, row, data):
        y = 3
        rows = table_of({y: row})
        trace = EligibilityTrace(rows)
        if owed:
            trace.rows[y] = data.draw(st.lists(any_logit, min_size=len(row), max_size=len(row)))
            trace.active[y] = 0.0
            trace.acc = data.draw(any_logit.filter(lambda d: d != 0.0))
        else:
            trace.acc = data.draw(st.floats(-1e6, 1e6))
            if data.draw(st.booleans()):
                trace.active[y] = trace.acc
        before = (bits(row), bits(trace.rows[y]), dict(trace.active), bits([trace.acc]))
        try:
            want = softmax_row(current_logits(rows, trace, y))
        except (OverflowError, ValueError) as e:
            with pytest.raises(type(e)):
                current_probability(rows, trace, y, 0)
            return
        for slot, p in enumerate(want):
            assert same_float(current_probability(rows, trace, y, slot), p), slot
        # a pure read: the row, its trace row, the marks and acc unchanged
        assert rows[y] is row
        assert (bits(row), bits(trace.rows[y]), dict(trace.active), bits([trace.acc])) == before

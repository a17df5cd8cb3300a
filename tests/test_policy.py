import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradroute.policy import (
    ParamTable,
    PolicyError,
    RoutingDecision,
    action_probabilities,
    log_policy_gradient,
    make_tables,
    sample_link,
    sample_slot,
)
from gradroute.presets import braess_network, triangle_network

logit_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


def table_with_row(row):
    t = ParamTable(router=0, n_links=len(row), destinations=[1])
    t.rows[1][:] = row
    return t


class TestActionProbabilities:
    def test_uniform_for_zero_logits(self):
        assert action_probabilities(table_with_row([0.0, 0.0]), 1) == [0.5, 0.5]

    def test_log3_row(self):
        probs = action_probabilities(table_with_row([math.log(3), 0.0]), 1)
        assert probs[0] == pytest.approx(0.75, abs=1e-12)
        assert probs[1] == pytest.approx(0.25, abs=1e-12)

    def test_constant_row_is_uniform(self):
        probs = action_probabilities(table_with_row([5.0, 5.0, 5.0]), 1)
        assert probs == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_missing_destination_row(self):
        with pytest.raises(PolicyError):
            action_probabilities(table_with_row([0.0]), 2)

    @settings(max_examples=300)
    @given(logit_rows)
    def test_normalization(self, row):
        probs = action_probabilities(table_with_row(row), 1)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        # strictly positive always; strictly below 1 whenever the spread
        # leaves room at float precision
        assert all(p > 0.0 for p in probs)
        if len(row) > 1 and max(row) - min(row) < 30:
            assert all(p < 1.0 for p in probs)

    @settings(max_examples=300)
    @given(logit_rows, st.floats(min_value=-40, max_value=40, allow_nan=False))
    def test_shift_invariance(self, row, c):
        base = action_probabilities(table_with_row(row), 1)
        shifted = action_probabilities(table_with_row([v + c for v in row]), 1)
        for a, b in zip(base, shifted):
            assert a == pytest.approx(b, abs=1e-12)


class TestSampling:
    def test_extreme_logits_pick_the_dominant_slot(self):
        table = table_with_row([30.0, -30.0])
        for seed in range(20):
            d = sample_link(table, 1, random.Random(seed), tick=7)
            assert d == RoutingDecision(router=0, destination=1, slot=0, tick=7)

    def test_inverse_cdf_boundary(self):
        class FixedU:
            def random(self):
                return 0.75

        assert sample_slot([0.5, 0.5], FixedU()) == 1

    def test_empirical_frequencies(self):
        table = table_with_row([math.log(3), 0.0])
        rng = random.Random(123)
        n = 100_000
        hits = sum(sample_link(table, 1, rng).slot == 0 for _ in range(n))
        # 3-sigma binomial band around 0.75
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(hits / n - 0.75) < 3 * sigma


class TestLogPolicyGradient:
    def test_uniform_case(self):
        assert log_policy_gradient(table_with_row([0.0, 0.0]), 1, 0) == [0.5, -0.5]

    def test_quarter_case(self):
        g = log_policy_gradient(table_with_row([math.log(3), 0.0]), 1, 1)
        assert g[0] == pytest.approx(-0.75, abs=1e-12)
        assert g[1] == pytest.approx(0.75, abs=1e-12)

    def test_invalid_slot(self):
        with pytest.raises(PolicyError):
            log_policy_gradient(table_with_row([0.0, 0.0]), 1, 2)

    @settings(max_examples=300)
    @given(logit_rows, st.randoms(use_true_random=False))
    def test_components_sum_to_zero(self, row, rng):
        slot = rng.randrange(len(row))
        g = log_policy_gradient(table_with_row(row), 1, slot)
        assert sum(g) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference(self):
        rng = random.Random(7)
        h = 1e-5
        for _ in range(200):
            n = rng.randint(1, 8)
            row = [rng.uniform(-5, 5) for _ in range(n)]
            slot = rng.randrange(n)
            analytic = log_policy_gradient(table_with_row(row), 1, slot)
            for j in range(n):
                up = list(row)
                up[j] += h
                down = list(row)
                down[j] -= h
                lo = math.log(action_probabilities(table_with_row(down), 1)[slot])
                hi = math.log(action_probabilities(table_with_row(up), 1)[slot])
                fd = (hi - lo) / (2 * h)
                assert abs(fd - analytic[j]) < 1e-6


class TestMakeTables:
    def test_single_link_router_keeps_a_one_column_table(self):
        topo, _ = braess_network(augmented=True)
        tables = make_tables(topo)
        c = topo.node_id("C")
        assert tables[c].n_links == 1
        # its gradient is identically zero: only one action to explain
        assert log_policy_gradient(tables[c], topo.node_id("B"), 0) == [0.0]

    def test_sink_gets_no_table_and_self_rows_are_absent(self):
        topo, _ = braess_network(augmented=True)
        tables = make_tables(topo)
        assert topo.node_id("B") not in tables
        a = topo.node_id("A")
        assert a not in tables[a].rows

    def test_initial_tables_are_uniform(self):
        topo, _ = triangle_network()
        for table in make_tables(topo).values():
            for dest in table.rows:
                probs = action_probabilities(table, dest)
                assert probs == pytest.approx([1 / len(probs)] * len(probs))

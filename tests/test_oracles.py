import random
from math import comb

import pytest

from gradroute.oracles import (
    braess_cost_for_flows,
    braess_expected_cost,
    contention_expected_reward,
    contention_optimal_p,
    expected_optimal_reward,
)
from gradroute.presets import braess_network, six_node_network, triangle_network


def enumerate_contention(p, d):
    # explicit three-outcome enumeration, kept independent of the closed form
    outcomes = [
        (p * p, -1.0 - d),  # both packets on the top link
        ((1 - p) * (1 - p), -12.0),  # both on the bottom link
        (2 * p * (1 - p), -7.0),  # one on each
    ]
    return sum(w * r for w, r in outcomes)


class TestContention:
    def test_paper_values(self):
        assert contention_expected_reward(1.0, 21.0) == -22.0
        assert contention_expected_reward(0.0, 21.0) == -12.0
        assert contention_expected_reward(0.0, 5.0) == -12.0
        assert contention_expected_reward(0.25, 21.0) == -10.75

    def test_closed_form_matches_enumeration(self):
        rng = random.Random(42)
        for _ in range(1000):
            p, d = rng.random(), rng.uniform(0.0, 60.0)
            assert contention_expected_reward(p, d) == pytest.approx(
                enumerate_contention(p, d), abs=1e-12
            )

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError):
            contention_expected_reward(1.5, 21.0)
        with pytest.raises(ValueError):
            contention_expected_reward(-0.1, 21.0)

    def test_optimal_p(self):
        assert contention_optimal_p(21.0) == 0.25

    @pytest.mark.parametrize("d", [0.0, 1.0, 2.0, 6.0, 21.0, 100.0, 5000.0])
    def test_optimal_beats_grid(self, d):
        p_star = contention_optimal_p(d)
        best = contention_expected_reward(p_star, d)
        for k in range(10001):
            assert best >= contention_expected_reward(k / 10000, d) - 1e-12

    def test_large_d_pushes_p_toward_zero(self):
        p = contention_optimal_p(1e6)
        assert 0.0 < p < 1e-4


class TestBraess:
    def setup_method(self):
        self.b0, _ = braess_network(augmented=False)
        self.b1, _ = braess_network(augmented=True)

    def test_flow_costs_match_quoted_values(self):
        assert braess_cost_for_flows(self.b0, {"ACDB": 6, "AEFB": 0}) == 116.0
        assert braess_cost_for_flows(self.b0, {"ACDB": 3, "AEFB": 3}) == 83.0
        assert braess_cost_for_flows(self.b1, {"ACDB": 2, "AEFB": 2, "AEGDB": 2}) == 92.0

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            braess_cost_for_flows(self.b0, {"AEGDB": 1})  # G only exists when augmented

    @pytest.mark.parametrize(
        "topology, flows, message",
        [
            ("triangle", {"AB": 1}, "path costing requires a node-flow topology"),
            ("braess1", {"ACDB": 3, "AEFB": -1}, "negative flow on path AEFB"),
            ("braess1", {"ACB": 1}, "path ACB uses missing link C->B"),
        ],
        ids=["link_delay", "negative_flow", "missing_link"],
    )
    def test_bad_flows_rejected(self, topology, flows, message):
        topo = triangle_network()[0] if topology == "triangle" else self.b1
        with pytest.raises(ValueError, match=message):
            braess_cost_for_flows(topo, flows)

    def test_no_packets_cost_nothing(self):
        assert braess_cost_for_flows(self.b1, {"ACDB": 0, "AEGDB": 0}) == 0.0

    @pytest.mark.parametrize(
        "p_left, p_ef, name", [(1.5, 0.5, "p_left"), (0.5, -0.1, "p_ef")]
    )
    def test_expected_cost_out_of_range_p_rejected(self, p_left, p_ef, name):
        with pytest.raises(ValueError, match=f"{name} must be in \\[0, 1\\]"):
            braess_expected_cost(p_left, p_ef)

    @pytest.mark.parametrize("p_ef", [0.0, 1.0])
    def test_expected_cost_with_a_sure_choice_at_E(self, p_ef):
        # every packet that reaches E takes one path onward: only L varies
        onward = "AEFB" if p_ef == 1.0 else "AEGDB"
        expected = sum(
            comb(6, l) * 0.3**l * 0.7 ** (6 - l)
            * braess_cost_for_flows(self.b1, {"ACDB": l, onward: 6 - l})
            for l in range(7)
        )
        assert braess_expected_cost(0.3, p_ef) == pytest.approx(expected, rel=1e-12)

    def test_expected_cost_reference_point(self):
        # closed form at (0.5, 1.0): 50 + 11 * E[L^2 + (6-L)^2] / 6 with E[L^2] = 10.5
        assert braess_expected_cost(0.5, 1.0) == pytest.approx(88.5, abs=1e-12)

    def test_expected_cost_degenerate_matches_deterministic_flows(self):
        assert braess_expected_cost(1.0, 0.0) == braess_cost_for_flows(
            self.b1, {"ACDB": 6, "AEFB": 0, "AEGDB": 0}
        )
        assert braess_expected_cost(1.0, 0.7) == 116.0
        assert braess_expected_cost(0.0, 1.0) == braess_cost_for_flows(
            self.b1, {"ACDB": 0, "AEFB": 6, "AEGDB": 0}
        )
        assert braess_expected_cost(0.0, 0.0) == braess_cost_for_flows(
            self.b1, {"ACDB": 0, "AEFB": 0, "AEGDB": 6}
        )

    def test_independent_choices_cannot_reach_the_coordinated_optimum(self):
        best = min(
            braess_expected_cost(pl / 100, pf / 100)
            for pl in range(101)
            for pf in range(101)
        )
        assert best > 83.0


class TestOptimalReward:
    def test_triangle_value(self):
        value = expected_optimal_reward(*triangle_network())
        assert value == pytest.approx(-4.0, abs=1e-12)

    def test_cheaper_direct_link_changes_value(self):
        topo, traffic = triangle_network()
        links = tuple(
            l if l.delay != 3 else type(l)(l.src, l.dst, 1, l.capacity, l.label)
            for l in topo.links
        )
        cheap = type(topo)(nodes=topo.nodes, links=links)
        assert expected_optimal_reward(cheap, traffic) == pytest.approx(-3.0)

    def test_six_node_value(self):
        topo, traffic = six_node_network()
        assert expected_optimal_reward(topo, traffic) == pytest.approx(-6.0)

    def test_invariant_under_node_relabeling(self):
        # the triangle is symmetric in its two delay-1 edges
        topo, traffic = triangle_network()
        base = expected_optimal_reward(topo, traffic)
        relabeled = type(topo)(
            nodes=tuple(reversed(topo.nodes)),
            links=topo.links,
        )
        assert expected_optimal_reward(relabeled, traffic) == base

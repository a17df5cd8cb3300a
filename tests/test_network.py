import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradroute.network import (
    CostModel,
    Link,
    NodeCost,
    Topology,
    TopologyError,
    TrafficSpec,
    shortest_path_delay,
    validate_topology,
)
from gradroute.presets import (
    braess_network,
    contention_network,
    six_node_network,
    triangle_network,
)


class TestOutgoingLinks:
    def test_triangle_order_is_declaration_order(self):
        topo, _ = triangle_network()
        out = [topo.links[i] for i in topo.out_link_indices(topo.node_id("A"))]
        assert [(topo.label(l.src), topo.label(l.dst)) for l in out] == [
            ("A", "B"),
            ("A", "C"),
        ]

    def test_sink_has_no_outgoing_links(self):
        topo, _ = contention_network()
        assert topo.out_link_indices(topo.node_id("B")) == ()

    def test_braess_E_has_two_paths_onward(self):
        topo, _ = braess_network(augmented=True)
        out = topo.out_link_indices(topo.node_id("E"))
        assert [topo.label(topo.links[i].dst) for i in out] == ["F", "G"]

    def test_unknown_node_rejected(self):
        topo, _ = triangle_network()
        with pytest.raises(TopologyError):
            topo.out_link_indices(17)

    def test_table_holds_every_node(self):
        topo, _ = braess_network(augmented=True)
        out = topo.out_links()
        assert out == [topo.out_link_indices(node) for node in range(topo.n_nodes)]
        assert sorted(i for o in out for i in o) == list(range(len(topo.links)))

    def test_node_id_of_unknown_label_rejected(self):
        topo, _ = triangle_network()
        assert [topo.node_id(lb) for lb in "ABC"] == [0, 1, 2]
        with pytest.raises(TopologyError, match="'Z'"):
            topo.node_id("Z")

    def test_order_stable_across_calls(self):
        topo, _ = six_node_network()
        for node in range(topo.n_nodes):
            first = topo.out_link_indices(node)
            assert topo.out_link_indices(node) == first


class TestShortestPathDelay:
    def test_triangle_detour_beats_direct_link(self):
        topo, _ = triangle_network()
        a, c = topo.node_id("A"), topo.node_id("C")
        assert shortest_path_delay(topo, a, c) == 2

    def test_self_distance_zero(self):
        topo, _ = triangle_network()
        assert shortest_path_delay(topo, 1, 1) == 0

    def test_complete_graph_all_pairs_one(self):
        topo, _ = six_node_network()
        for s in range(6):
            for d in range(6):
                if s != d:
                    assert shortest_path_delay(topo, s, d) == 1

    def test_unreachable_raises(self):
        topo = Topology.build(["A", "B", "C"], [("A", "B", 1)])
        with pytest.raises(TopologyError):
            shortest_path_delay(topo, topo.node_id("B"), topo.node_id("C"))

    def test_node_flow_mode_rejected(self):
        topo, _ = braess_network()
        with pytest.raises(TopologyError):
            shortest_path_delay(topo, 0, 1)

    @pytest.mark.parametrize("src, dst, bad", [(0, 3, 3), (-1, 0, -1)])
    def test_unknown_node_id_rejected(self, src, dst, bad):
        topo, _ = triangle_network()
        with pytest.raises(TopologyError, match=f"unknown node id {bad}$"):
            shortest_path_delay(topo, src, dst)


@st.composite
def random_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    links = tuple(
        Link(s, d, delay=draw(st.integers(min_value=1, max_value=9))) for s, d in chosen
    )
    nodes = tuple(f"N{i}" for i in range(n))
    return Topology(nodes=nodes, links=links)


@settings(max_examples=200, deadline=None)
@given(random_topologies())
def test_triangle_inequality(topo):
    n = topo.n_nodes
    dist = {}
    for s in range(n):
        for d in range(n):
            try:
                dist[(s, d)] = shortest_path_delay(topo, s, d)
            except TopologyError:
                pass
    for (a, b), d_ab in dist.items():
        for c in range(n):
            if (b, c) in dist and (a, c) in dist:
                assert dist[(a, c)] <= d_ab + dist[(b, c)]


class TestValidation:
    def test_presets_are_valid(self):
        for builder in (triangle_network, contention_network, six_node_network,
                        braess_network):
            topo, traffic = builder()
            assert validate_topology(topo, traffic) == ()

    def test_source_without_outgoing_links(self):
        topo = Topology.build(["A", "B", "C", "D"], [("A", "B", 1), ("B", "C", 1)])
        traffic = TrafficSpec(
            rates=(0, 0, 0, 1),
            dest_probs=(
                (0.0,) * 4,
                (0.0,) * 4,
                (0.0,) * 4,
                (0.0, 1.0, 0.0, 0.0),
            ),
        )
        violations = validate_topology(topo, traffic)
        assert "network.links: node D has no outgoing links" in violations

    def test_missing_node_cost(self):
        topo, traffic = braess_network()
        costs = list(topo.node_costs)
        costs[topo.node_id("G")] = None
        broken = Topology(
            nodes=topo.nodes,
            links=topo.links,
            cost_model=CostModel.NODE_FLOW,
            node_costs=tuple(costs),
        )
        violations = validate_topology(broken, traffic)
        assert "network.node_costs.G: missing node cost" in violations

    def test_unreachable_destination(self):
        topo = Topology.build(["A", "B", "C"], [("A", "B", 1), ("B", "A", 1)])
        traffic = TrafficSpec(
            rates=(1, 0, 0),
            dest_probs=((0.0, 0.0, 1.0), (0.0,) * 3, (0.0,) * 3),
        )
        violations = validate_topology(topo, traffic)
        assert "traffic.destinations.A: unreachable destination C" in violations

    def test_dangling_link_and_bad_delay(self):
        topo = Topology(
            nodes=("A", "B"),
            links=(Link(0, 5, 1), Link(0, 1, 0)),
        )
        violations = validate_topology(topo, TrafficSpec.single_flow(2, 0, 1, 1))
        assert any(v.startswith("network.links[0]: dangling") for v in violations)
        assert "network.links[1].delay: must be an integer >= 1, got 0" in violations

    def test_distribution_must_sum_to_one(self):
        topo, _ = contention_network()
        bad = TrafficSpec(rates=(2, 0), dest_probs=((0.0, 0.9), (0.0, 0.0)))
        assert validate_topology(topo, bad) == ("traffic.destinations.A: does not sum to 1",)

    def test_node_cost_monotone(self):
        c = NodeCost(base=50.0, per_flow=1.0)
        samples = [c.cost(x) for x in range(10)]
        assert samples == sorted(samples)
        assert c.cost(6) == 56.0

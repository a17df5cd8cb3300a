"""Closed-form and exact-enumeration baselines for the preset networks.

Everything here is exact (no Monte Carlo): acceptance tolerances live
entirely on the learning side.
"""
from __future__ import annotations

from math import comb

from .network import CostModel, Topology, TrafficSpec, shortest_path_delay
from .presets import BRAESS_PATHS, braess_network


def contention_expected_reward(p: float, d: float) -> float:
    """Expected per-tick reward of the two-link contention network when each
    of the two packets independently takes the top link with probability p.

    Outcomes: both on top (one through at trip 1, one dropped at penalty d),
    both on bottom (two through at trip 6), one on each (trips 1 and 6).
    At d = 21 this reduces to the quadratic -20 p^2 + 10 p - 12.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    both_top = p * p * (-1.0 - d)
    both_bottom = (1.0 - p) * (1.0 - p) * (-12.0)
    split = 2.0 * p * (1.0 - p) * (-7.0)
    return both_top + both_bottom + split


def contention_optimal_p(d: float) -> float:
    """argmax over [0, 1] of contention_expected_reward(., d).

    E(p) = (1-d) p^2 + 10 p - 12: concave for d > 1 with vertex 5/(d-1),
    otherwise non-decreasing on [0, 1]. The vertex is clipped to [0, 1].
    """
    if d <= 1.0:
        return 1.0
    return min(1.0, 5.0 / (d - 1.0))


def braess_cost_for_flows(topology: Topology, flows: dict[str, int]) -> float:
    """Average cost per packet when `flows` packets take each path (keys are
    node-label strings like "ACDB"). Node flows are summed over all paths
    through the node before costs are evaluated."""
    if topology.cost_model is not CostModel.NODE_FLOW:
        raise ValueError("path costing requires a node-flow topology")
    out = topology.out_links()
    paths = []
    for path_labels, count in flows.items():
        if count < 0:
            raise ValueError(f"negative flow on path {path_labels}")
        nodes = [topology.node_id(lb) for lb in path_labels]
        for a, b in zip(nodes, nodes[1:]):
            if not any(topology.links[i].dst == b for i in out[a]):
                raise ValueError(
                    f"path {path_labels} uses missing link "
                    f"{topology.label(a)}->{topology.label(b)}"
                )
        paths.append((nodes, count))
    per_node = [0] * topology.n_nodes
    for nodes, count in paths:
        for n in nodes:
            per_node[n] += count
    packets = sum(count for _, count in paths)
    total = 0.0
    for nodes, count in paths:
        total += count * sum(topology.node_costs[n].cost(per_node[n]) for n in nodes)
    if packets == 0:
        return 0.0
    return total / packets


def braess_expected_cost(p_left: float, p_ef: float) -> float:
    """Exact expected average cost per packet in the augmented network when
    each of the 6 packets independently goes left at A with probability
    p_left, and each packet reaching E continues to F with probability p_ef.

    Enumerates the joint (left count, F count) distribution:
    L ~ Binomial(6, p_left), F | L ~ Binomial(6 - L, p_ef).
    """
    for name, p in (("p_left", p_left), ("p_ef", p_ef)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    topo, _ = braess_network(augmented=True)
    left, mid, right = BRAESS_PATHS
    expected = 0.0
    for l in range(7):
        w_l = comb(6, l) * p_left**l * (1.0 - p_left) ** (6 - l)
        if w_l == 0.0:
            continue
        for f in range(6 - l + 1):
            w_f = comb(6 - l, f) * p_ef**f * (1.0 - p_ef) ** (6 - l - f)
            if w_f == 0.0:
                continue
            cost = braess_cost_for_flows(
                topo, {left: l, mid: f, right: 6 - l - f}
            )
            expected += w_l * w_f * cost
    return expected


def expected_optimal_reward(topology: Topology, traffic: TrafficSpec) -> float:
    """Average per-tick reward under shortest-path routing: minus the
    traffic-weighted expected trip time, summed over all generated packets."""
    total = 0.0
    for s, rate in enumerate(traffic.rates):
        if rate == 0:
            continue
        row = traffic.dest_probs[s]
        per_packet = sum(
            p * shortest_path_delay(topology, s, y) for y, p in enumerate(row) if p > 0
        )
        total += rate * per_packet
    return -total

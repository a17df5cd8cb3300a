"""Built-in networks and ready-to-run experiment configurations.

Four experiments ship as presets. What the paper claims each one learns,
with its oracle target, is written in gradroute.claims.

* triangle    -- 3 nodes, bidirectional links AB=BA=BC=CB=1, AC=CA=3, no
                 capacities; 1 packet/node/tick to a uniform other node.
* contention  -- 2 nodes, two one-way links A->B: "top" (delay 1,
                 capacity 1) and "bottom" (delay 6, capacity 2); 2
                 packets/tick at A for B; drop penalty 21.
* six_node    -- complete directed graph on 6 nodes, all delays 1,
                 unlimited capacity; 1 packet/node/tick, uniform
                 destinations; cycle penalty -100, 2-node visit history.
* braess1     -- 7-node node-cost network (one-way downward links, all
                 traffic 6 packets/tick A->B). Adding the shortcut G to
                 the 6-node variant raises the greedy equilibrium cost
                 from 83 to 92.

Preset step counts are the run lengths of the claims, not quoted values;
override with with_overrides(steps=...).
"""
from __future__ import annotations

from .config import ExperimentConfig, TrackedProbability, resolve_link
from .learner import LearnerConfig
from .network import CostModel, NodeCost, Topology, TrafficSpec
from .shaping import ShapingConfig

PRESET_NAMES = ("triangle", "contention", "six_node", "braess1")


def triangle_network() -> tuple[Topology, TrafficSpec]:
    topo = Topology.build(
        ["A", "B", "C"],
        [
            ("A", "B", 1),
            ("B", "A", 1),
            ("B", "C", 1),
            ("C", "B", 1),
            ("A", "C", 3),
            ("C", "A", 3),
        ],
    )
    return topo, TrafficSpec.uniform(3, rate=1)


def contention_network() -> tuple[Topology, TrafficSpec]:
    topo = Topology.build(
        ["A", "B"],
        [
            ("A", "B", 1, 1, "top"),
            ("A", "B", 6, 2, "bottom"),
        ],
    )
    return topo, TrafficSpec.single_flow(2, src=0, dst=1, rate=2)


def six_node_network() -> tuple[Topology, TrafficSpec]:
    labels = ["A", "B", "C", "D", "E", "F"]
    links = [(s, d, 1) for s in labels for d in labels if s != d]
    return Topology.build(labels, links), TrafficSpec.uniform(6, rate=1)


# per-node congestion costs reconstructed so that every quoted figure of the
# Braess example holds: all-left 116, 3/3 split 83, 2/2/2 split 92, marginal
# costs F=53 at flow 3, G=11 at flow 1, D=40 at flow 4
BRAESS_COSTS = {
    "A": NodeCost(0.0, 0.0),
    "B": NodeCost(0.0, 0.0),
    "C": NodeCost(50.0, 1.0),
    "D": NodeCost(0.0, 10.0),
    "E": NodeCost(0.0, 10.0),
    "F": NodeCost(50.0, 1.0),
    "G": NodeCost(10.0, 1.0),
}

BRAESS_PATHS = ("ACDB", "AEFB", "AEGDB")


def braess_network(augmented: bool = True) -> tuple[Topology, TrafficSpec]:
    """The node-cost diamond (augmented=False) or the same network plus the
    paradox-inducing shortcut through G (augmented=True)."""
    labels = ["A", "B", "C", "D", "E", "F"] + (["G"] if augmented else [])
    links = [
        ("A", "C", 1),
        ("A", "E", 1),
        ("C", "D", 1),
        ("D", "B", 1),
        ("E", "F", 1),
        ("F", "B", 1),
    ]
    if augmented:
        links += [("E", "G", 1), ("G", "D", 1)]
    costs = {lb: BRAESS_COSTS[lb] for lb in labels}
    topo = Topology.build(
        labels, links, cost_model=CostModel.NODE_FLOW, node_costs=costs
    )
    traffic = TrafficSpec.single_flow(len(labels), src=0, dst=1, rate=6)
    return topo, traffic


def _tracked(topo: Topology, router: str, dest: str, link: str) -> TrackedProbability:
    r = topo.node_id(router)
    return TrackedProbability(r, topo.node_id(dest), resolve_link(topo, r, link, "tracked"))


def preset(name: str) -> ExperimentConfig:
    """Full experiment configuration for one of PRESET_NAMES."""
    if name == "triangle":
        topo, traffic = triangle_network()
        return ExperimentConfig(
            topology=topo,
            traffic=traffic,
            learner=LearnerConfig(beta=0.99, gamma=1e-5),
            steps=1_000_000,
            tracked=(_tracked(topo, "A", "C", "AB"),),
        )
    if name == "contention":
        topo, traffic = contention_network()
        return ExperimentConfig(
            topology=topo,
            traffic=traffic,
            learner=LearnerConfig(beta=0.99, gamma=1e-7),
            shaping=ShapingConfig(drop_penalty=21.0),
            steps=2_000_000,
            tracked=(_tracked(topo, "A", "B", "top"),),
        )
    if name == "six_node":
        topo, traffic = six_node_network()
        return ExperimentConfig(
            topology=topo,
            traffic=traffic,
            learner=LearnerConfig(beta=0.9, gamma=1e-6),
            shaping=ShapingConfig(cycle_penalty=-100.0, history_length=2),
            steps=1_000_000,
        )
    if name == "braess1":
        topo, traffic = braess_network(augmented=True)
        return ExperimentConfig(
            topology=topo,
            traffic=traffic,
            learner=LearnerConfig(beta=0.99, gamma=1e-5),
            steps=2_000_000,
            tracked=(
                _tracked(topo, "A", "B", "AC"),
                _tracked(topo, "E", "B", "EF"),
            ),
        )
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

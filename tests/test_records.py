"""The package's records: immutable, and equal exactly when their fields are."""
import copy
import pickle

import pytest

from gradroute.config import TrackedProbability
from gradroute.harness import BatchResult, RunResult
from gradroute.learner import LearnerConfig
from gradroute.network import (
    CostModel,
    Link,
    Node,
    NodeCost,
    Topology,
    TrafficSpec,
)
from gradroute.presets import PRESET_NAMES, braess_network, preset
from gradroute.shaping import ShapingConfig


def _records():
    cfg = preset("contention")
    run = RunResult(cfg, 0, [], {}, 0.0, 0, 0, 0, 0, None, "steps")
    return [
        Node(0, "A"),
        Link(0, 1),
        NodeCost(1.0, 2.0),
        TrafficSpec.uniform(3),
        LearnerConfig(),
        ShapingConfig(),
        TrackedProbability(0, 1, 0),
        cfg,
        run,
        BatchResult({cfg.seed: run}, 0.0, None),
        cfg.topology,
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    first = record._fields[0] if isinstance(record, tuple) else "nodes"
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(AttributeError):
        delattr(record, first)


def test_configs_differing_in_one_field_are_unequal():
    cfg = preset("braess1")
    topo = cfg.topology
    assert Topology(topo.nodes, topo.links, topo.cost_model, dict(topo.node_costs)) == topo
    links = (topo.links[0]._replace(delay=2),) + topo.links[1:]
    costs = {**topo.node_costs, topo.node_id("C"): NodeCost(51.0, 1.0)}
    variants = {
        "link delay": Topology(topo.nodes, links, topo.cost_model, topo.node_costs),
        "cost_model": Topology(topo.nodes, topo.links, CostModel.LINK_DELAY, topo.node_costs),
        "node_costs": Topology(topo.nodes, topo.links, topo.cost_model, costs),
    }
    for what, other in variants.items():
        assert other != topo, what
        assert cfg._replace(topology=other) != cfg, what
    assert cfg.with_overrides(seed=2) != cfg


def test_topology_equality_ignores_derived_tables():
    topo, _ = braess_network()
    twin = Topology(topo.nodes, topo.links, topo.cost_model, dict(topo.node_costs))
    object.__setattr__(twin, "_out", ())
    object.__setattr__(twin, "_label_to_id", {})
    assert twin == topo
    plain = Topology.build(["A", "B"], [("A", "B", 1)])
    assert hash(plain) == hash(Topology.build(["A", "B"], [("A", "B", 1)]))
    assert repr(plain) == (
        "Topology(nodes=(Node(id=0, label='A'), Node(id=1, label='B')), "
        "links=(Link(src=0, dst=1, delay=1, capacity=None, label=None),), "
        "cost_model=<CostModel.LINK_DELAY: 'link_delay'>, node_costs=None)"
    )


def test_topology_copies_rebuild_the_derived_tables():
    topo, _ = braess_network()
    for twin in (copy.copy(topo), copy.deepcopy(topo), pickle.loads(pickle.dumps(topo))):
        assert twin == topo
        assert [twin.out_link_indices(n) for n in range(twin.n_nodes)] == [
            topo.out_link_indices(n) for n in range(topo.n_nodes)
        ]
        assert twin.node_id("G") == topo.node_id("G")



@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_topology_and_config_hash(name):
    cfg = preset(name)
    topo = cfg.topology
    costs = topo.node_costs
    # the same node costs, inserted in the opposite order
    twin_costs = None if costs is None else dict(reversed(list(costs.items())))
    twin = Topology(topo.nodes, topo.links, topo.cost_model, twin_costs)
    assert twin == topo and hash(twin) == hash(topo)
    assert hash(cfg) == hash(preset(name))
    assert hash(cfg._replace(topology=twin)) == hash(cfg)

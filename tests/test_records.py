"""The package's records: immutable, and equal exactly when their fields are."""
import copy
import pickle

import pytest

from gradroute.config import TrackedProbability
from gradroute.harness import BatchResult, RunResult
from gradroute.learner import LearnerConfig
from gradroute.metrics import MetricsRow
from gradroute.network import (
    CostModel,
    Link,
    NodeCost,
    Topology,
    TrafficSpec,
)
from gradroute.presets import PRESET_NAMES, braess_network, preset
from gradroute.shaping import ShapingConfig


def _records():
    cfg = preset("contention")
    row = MetricsRow(1, 0.0, 0.0, 0.0, 0.0, 0.0, (), 0, 0, 0)
    run = RunResult(cfg, row, 0.0, "steps")
    return [
        Link(0, 1),
        NodeCost(1.0, 2.0),
        TrafficSpec.uniform(3),
        LearnerConfig(),
        ShapingConfig(),
        TrackedProbability(1, 0),
        cfg,
        run,
        BatchResult({cfg.seed: run}, 0.0, None),
        cfg.topology,
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(AttributeError):
        delattr(record, first)


def test_configs_differing_in_one_field_are_unequal():
    cfg = preset("braess1")
    topo = cfg.topology
    copied = tuple(NodeCost(*c) for c in topo.node_costs)
    assert Topology(topo.nodes, topo.links, topo.cost_model, copied) == topo
    links = (topo.links[0]._replace(delay=2),) + topo.links[1:]
    costs = list(topo.node_costs)
    costs[topo.node_id("C")] = NodeCost(51.0, 1.0)
    costs = tuple(costs)
    variants = {
        "link delay": Topology(topo.nodes, links, topo.cost_model, topo.node_costs),
        "cost_model": Topology(topo.nodes, topo.links, CostModel.LINK_DELAY, topo.node_costs),
        "node_costs": Topology(topo.nodes, topo.links, topo.cost_model, costs),
    }
    for what, other in variants.items():
        assert other != topo, what
        assert cfg._replace(topology=other) != cfg, what
    assert cfg.with_overrides(seed=2) != cfg


def test_topology_hash_and_repr():
    plain = Topology.build(["A", "B"], [("A", "B", 1)])
    assert hash(plain) == hash(Topology.build(["A", "B"], [("A", "B", 1)]))
    assert repr(plain) == (
        "Topology(nodes=('A', 'B'), "
        "links=(Link(src=0, dst=1, delay=1, capacity=None, label=None),), "
        "cost_model=<CostModel.LINK_DELAY: 'link_delay'>, node_costs=None)"
    )


def test_topology_copies_are_equal_and_route_alike():
    topo, _ = braess_network()
    for twin in (copy.copy(topo), copy.deepcopy(topo), pickle.loads(pickle.dumps(topo))):
        assert twin == topo
        assert twin.out_links() == topo.out_links()
        assert twin.node_id("G") == topo.node_id("G")



@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_topology_and_config_hash(name):
    cfg = preset(name)
    topo = cfg.topology
    costs = topo.node_costs
    # the same node costs, in new records
    twin_costs = None if costs is None else tuple(NodeCost(*c) for c in costs)
    twin = Topology(topo.nodes, topo.links, topo.cost_model, twin_costs)
    assert twin == topo and hash(twin) == hash(topo)
    assert hash(cfg) == hash(preset(name))
    assert hash(cfg._replace(topology=twin)) == hash(cfg)


@pytest.mark.parametrize(
    "costs",
    [0.5, (NodeCost(1.0, 0.0), "x")],
    ids=["not_a_dict", "mistyped_entry"],
)
def test_malformed_node_costs_still_hash(costs):
    # hashing needs no valid config: validation names the key, not hash()
    cfg = preset("triangle")
    bad = cfg._replace(topology=cfg.topology._replace(node_costs=costs))
    twin_costs = tuple(list(costs)) if isinstance(costs, tuple) else costs
    twin = cfg._replace(topology=cfg.topology._replace(node_costs=twin_costs))
    assert twin == bad and hash(twin) == hash(bad)
    assert hash(twin.topology) == hash(bad.topology)
    assert len({bad, twin, cfg}) == 2

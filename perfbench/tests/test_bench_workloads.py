"""The frozen workload configs load through the public loader and match
the presets they were copied from."""
import pytest

import workloads
from gradroute.config import config_from_dict
from gradroute.presets import preset


def _load(name, seed=3):
    return config_from_dict(workloads.build(name, seed, None, None))


@pytest.mark.parametrize(
    "name, preset_name, sample_every",
    [("six_node", "six_node", 100), ("braess1_fine", "braess1", 1),
     ("contention", "contention", 100)],
)
def test_frozen_copy_equals_preset(name, preset_name, sample_every):
    cfg = _load(name)
    ref = preset(preset_name).with_overrides(
        steps=cfg.steps, seed=3, sample_every=sample_every)
    assert cfg == ref


def test_seed_is_the_only_varying_input():
    a, b = workloads.build("ring60", 1, "x", "y"), workloads.build("ring60", 2, "x", "y")
    assert a["run"].pop("seed") == 1 and b["run"].pop("seed") == 2
    assert a == b


def test_ring60_shape():
    cfg = _load("ring60")
    topo = cfg.topology
    assert topo.n_nodes == 60 and len(topo.links) == 240
    for n in range(60):
        dsts = sorted(topo.links[i].dst for i in topo.out_link_indices(n))
        assert dsts == sorted((n + k) % 60 for k in (1, -1, 7, -7))
    assert [s for s, r in enumerate(cfg.traffic.rates) if r] == [0, 15, 30, 45]
    for s in (0, 15, 30, 45):
        probs = cfg.traffic.dest_probs[s]
        assert probs[s] == 0.0 and sum(p > 0 for p in probs) == 59
        assert sum(probs) == pytest.approx(1.0)
    assert (cfg.learner.beta, cfg.learner.gamma) == (0.9, 1e-9)
    assert (cfg.shaping.cycle_penalty, cfg.shaping.history_length) == (-100.0, 2)

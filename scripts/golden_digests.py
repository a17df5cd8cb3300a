#!/usr/bin/env python3
"""Print the golden SHA-256 digests that tests/test_golden.py pins.

Each config in GOLDEN_NAMES runs for STEPS ticks from its own seed, with
a row every SAMPLE_EVERY ticks and a moving-average window of MA_WINDOW
rows (fewer than the rows written, so the window evicts). The metrics
CSV and theta JSON are written to a temporary directory and hashed, and
so is the run's config as `save_config` writes it, before the run gives
it output paths. GOLDEN_NAMES holds every preset, plus `forced_hops` (a
link-delay network with one-link routers), `memoryless` (triangle at
beta = 0, the memoryless trace) and `wide_tracked` (six_node at seed 3
tracking A's first out-link towards B, a 5-slot row, so a probability
column sums more than two exponentials).

Usage:  python3 scripts/golden_digests.py

The script needs only the standard library, so any installed CPython can
run it; every supported version must print the same table.

The output is the GOLDEN table in the form tests/test_golden.py holds
it. Paste it there only for a change that is meant to alter the output
of some run, and record in CHANGES.md why the digests moved.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradroute.config import ExperimentConfig, TrackedProbability, save_config
from gradroute.harness import run_experiment
from gradroute.learner import LearnerConfig
from gradroute.network import Topology, TrafficSpec
from gradroute.presets import PRESET_NAMES, preset
from gradroute.shaping import ShapingConfig

STEPS = 3000
SAMPLE_EVERY = 7
MA_WINDOW = 50
GOLDEN_NAMES = PRESET_NAMES + ("forced_hops", "memoryless", "wide_tracked")


def forced_hops_config() -> ExperimentConfig:
    """Link-delay network in which B and D have one out-link each, so half
    the routers only ever forward: A->B (capacity 2), A->C (delay 2),
    B->D (capacity 1), C->A, C->D, D->C. Uniform traffic from every node
    loads B->D beyond its capacity, so packets drop, and A->C->A bounces
    are caught as cycles."""
    topo = Topology.build(
        ["A", "B", "C", "D"],
        [
            ("A", "B", 1, 2),
            ("A", "C", 2),
            ("B", "D", 1, 1),
            ("C", "A", 1),
            ("C", "D", 1),
            ("D", "C", 1),
        ],
    )
    return ExperimentConfig(
        topology=topo,
        traffic=TrafficSpec.uniform(4, rate=1),
        learner=LearnerConfig(beta=0.9, gamma=1e-4),
        shaping=ShapingConfig(cycle_penalty=-5.0, history_length=2, drop_penalty=3.0),
        seed=5,
        tracked=(TrackedProbability(3, topo.out_link_indices(0)[0]),),
    )


def golden_config(name: str) -> ExperimentConfig:
    """The config of the golden run of `name`, before its run settings."""
    if name == "forced_hops":
        return forced_hops_config()
    if name == "memoryless":
        # gamma large enough that the 3000 ticks learn (max |theta| ~ 0.74)
        return preset("triangle").with_overrides(beta=0.0, gamma=1e-3)
    if name == "wide_tracked":
        cfg = preset("six_node")
        topo = cfg.topology
        a = topo.node_id("A")
        tracked = TrackedProbability(topo.node_id("B"), topo.out_link_indices(a)[0])
        return cfg._replace(seed=3, tracked=(tracked,))
    return preset(name)


def golden_digests(name: str, out_dir: str | Path) -> tuple[str, str, str]:
    """(CSV SHA-256, theta SHA-256, saved config SHA-256) of the golden
    run of `name`."""
    cfg = golden_config(name).with_overrides(
        steps=STEPS, sample_every=SAMPLE_EVERY, ma_window=MA_WINDOW
    )
    config_path = Path(out_dir) / "config.json"
    save_config(cfg, config_path)
    res = run_experiment(cfg, out_dir)
    return tuple(
        hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in (res.config.csv_path, res.config.theta_path, config_path)
    )


def main() -> int:
    print("GOLDEN = {")
    for name in GOLDEN_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            digests = golden_digests(name, tmp)
        print(f'    "{name}": (')
        for sha in digests:
            print(f'        "{sha}",')
        print("    ),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

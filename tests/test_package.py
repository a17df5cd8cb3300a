import os
import subprocess
import sys
from pathlib import Path

import gradroute

PUBLIC = [
    "ConfigError",
    "CostModel",
    "EligibilityTrace",
    "ExperimentConfig",
    "LearnerConfig",
    "Link",
    "Node",
    "NodeCost",
    "PRESET_NAMES",
    "Packet",
    "ShapingConfig",
    "Simulation",
    "SimulationError",
    "Topology",
    "TopologyError",
    "TrackedProbability",
    "TrafficSpec",
    "detect_cycle",
    "load_config",
    "make_tables",
    "preset",
    "save_config",
    "shaping_reward",
    "shortest_path_delay",
    "validate_topology",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(gradroute.__all__) == PUBLIC
    for name in gradroute.__all__:
        assert getattr(gradroute, name) is not None, name


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports this checkout."""
    src = str(Path(gradroute.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.stdout.strip()


def test_import_leaves_harness_and_cli_unloaded():
    # the package root must stay cheap to import: the benchmark times it
    code = (
        "import sys, gradroute; "
        "print(sorted(m for m in ('gradroute.harness', 'gradroute.cli') if m in sys.modules))"
    )
    assert _fresh_interpreter(code) == "[]"


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: 10-15 ms of
    # start-up that every command and the benchmark's set-up probe pay
    code = (
        "import sys; before = set(sys.modules)\n"
        "for name in ('gradroute', 'gradroute.cli'):\n"
        "    __import__(name)\n"
        "    loaded = set(sys.modules) - before\n"
        "    print(name, sorted({'dataclasses', 'inspect'} & loaded))\n"
    )
    assert _fresh_interpreter(code).splitlines() == ["gradroute []", "gradroute.cli []"]

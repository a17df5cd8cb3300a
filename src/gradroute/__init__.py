"""Packet routing as a multi-agent learning problem: each router adjusts a
Gibbs routing policy online from a globally shared reward signal."""

__version__ = "0.1.0"

from .config import (
    ConfigError,
    ExperimentConfig,
    TrackedProbability,
    load_config,
    save_config,
)
from .engine import Packet, Simulation, SimulationError
from .learner import EligibilityTrace, LearnerConfig
from .network import (
    CostModel,
    Link,
    Node,
    NodeCost,
    Topology,
    TopologyError,
    TrafficSpec,
    shortest_path_delay,
    validate_topology,
)
from .policy import make_tables
from .presets import preset, PRESET_NAMES
from .shaping import ShapingConfig, detect_cycle, shaping_reward

__all__ = [
    "ConfigError",
    "CostModel",
    "EligibilityTrace",
    "ExperimentConfig",
    "LearnerConfig",
    "Link",
    "Node",
    "NodeCost",
    "Packet",
    "PRESET_NAMES",
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

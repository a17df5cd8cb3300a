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
from .engine import Simulation, SimulationError
from .learner import LearnerConfig
from .network import (
    CostModel,
    Link,
    NodeCost,
    Topology,
    TopologyError,
    TrafficSpec,
    shortest_path_delay,
    validate_topology,
)
from .presets import preset, PRESET_NAMES
from .shaping import ShapingConfig

__all__ = [
    "ConfigError",
    "CostModel",
    "ExperimentConfig",
    "LearnerConfig",
    "Link",
    "NodeCost",
    "PRESET_NAMES",
    "ShapingConfig",
    "Simulation",
    "SimulationError",
    "Topology",
    "TopologyError",
    "TrackedProbability",
    "TrafficSpec",
    "load_config",
    "preset",
    "save_config",
    "shortest_path_delay",
    "validate_topology",
]

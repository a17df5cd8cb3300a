"""Packet routing as a multi-agent learning problem: each router adjusts a
Gibbs routing policy online from a globally shared reward signal."""

from .config import (
    ConfigError,
    ExperimentConfig,
    TrackedProbability,
    load_config,
    save_config,
)
from .engine import Packet, RunResult, Simulation, SimulationError, TickReward, TickStats, run
from .learner import (
    EligibilityTrace,
    LearnerConfig,
    RunningAverageReward,
    observe_reward,
)
from .network import (
    CostModel,
    Link,
    Node,
    NodeCost,
    Topology,
    TopologyError,
    TrafficSpec,
    ValidationReport,
    outgoing_links,
    shortest_path_delay,
    validate_topology,
)
from .policy import (
    ParamTable,
    PolicyError,
    RoutingDecision,
    action_probabilities,
    log_policy_gradient,
    make_tables,
    sample_link,
)
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
    "ParamTable",
    "PolicyError",
    "PRESET_NAMES",
    "RoutingDecision",
    "RunResult",
    "RunningAverageReward",
    "ShapingConfig",
    "Simulation",
    "SimulationError",
    "TickReward",
    "TickStats",
    "Topology",
    "TopologyError",
    "TrackedProbability",
    "TrafficSpec",
    "ValidationReport",
    "action_probabilities",
    "detect_cycle",
    "load_config",
    "log_policy_gradient",
    "make_tables",
    "observe_reward",
    "outgoing_links",
    "preset",
    "run",
    "sample_link",
    "save_config",
    "shaping_reward",
    "shortest_path_delay",
    "validate_topology",
]

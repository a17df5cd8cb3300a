"""Declarative experiment configuration and its JSON file format.

A config file is one JSON document with top-level keys
{network, traffic, learner, shaping, run, output}:

    {
      "network": {
        "cost_model": "link_delay" | "node_flow",
        "nodes": ["A", "B", ...],
        "links": [{"from": "A", "to": "B", "delay": 1,
                   "capacity": null, "label": null}, ...],
        "node_costs": {"C": {"base": 50.0, "per_flow": 1.0}, ...}   # node_flow only
      },
      "traffic": {
        "rates": {"A": 1, ...},                       # omitted nodes are silent
        "destinations": {"A": {"B": 0.5, "C": 0.5}}    # per-source distribution
      },
      "learner": {"beta": 0.99, "gamma": 1e-5,
                  "schedule": "constant", "credit_current_tick": true},
      "shaping": {"cycle_penalty": 0.0, "history_length": 2, "drop_penalty": 0.0},
      "run": {"steps": 1000000, "seed": 1, "sample_every": 100, "ma_window": 1000,
              "tracked_probabilities": [{"router": "A", "dest": "C", "link": "AB"}]},
      "output": {"csv": null, "theta": null}
    }

Links are referenced by their display label (explicit label, else the
concatenated endpoint labels). Presets serialize to this format and load
back equal.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .learner import LearnerConfig, StepSchedule
from .network import (
    CostModel,
    Link,
    Node,
    NodeCost,
    Topology,
    TrafficSpec,
    validate_topology,
)
from .shaping import ShapingConfig


class ConfigError(ValueError):
    """Config parse or validation failure; the message names the bad key."""


@dataclass(frozen=True)
class TrackedProbability:
    """One policy probability to log: router's chance of picking the link
    at `link_index` for packets destined `dest`."""

    router: int
    dest: int
    link_index: int


@dataclass(frozen=True)
class ExperimentConfig:
    topology: Topology
    traffic: TrafficSpec
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    shaping: ShapingConfig = field(default_factory=ShapingConfig)
    steps: int = 100_000
    seed: int = 1
    sample_every: int = 100
    ma_window: int = 1000
    tracked: tuple[TrackedProbability, ...] = ()
    csv_path: str | None = None
    theta_path: str | None = None

    def validate(self) -> None:
        report = validate_topology(self.topology, self.traffic)
        if not report.ok:
            raise ConfigError(f"network: {report}")
        try:
            self.learner.validate()
        except ValueError as e:
            raise ConfigError(f"learner: {e}") from None
        try:
            self.shaping.validate()
        except ValueError as e:
            raise ConfigError(f"shaping: {e}") from None
        if self.steps < 1:
            raise ConfigError("run.steps: must be >= 1")
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigError("run.seed: must fit in 64 unsigned bits")
        if self.sample_every < 1:
            raise ConfigError("run.sample_every: must be >= 1")
        if self.ma_window < 1:
            raise ConfigError("run.ma_window: must be >= 1")
        for tp in self.tracked:
            out = self.topology.out_link_indices(tp.router)
            if tp.link_index not in out:
                raise ConfigError(
                    "run.tracked_probabilities: link is not an outgoing link of the router"
                )
            if not (0 <= tp.dest < self.topology.n_nodes) or tp.dest == tp.router:
                raise ConfigError(
                    "run.tracked_probabilities: destination is not routable from the router"
                )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with selected fields replaced; learner/shaping fields may be
        given flat (beta=..., gamma=..., cycle_penalty=..., drop_penalty=...)."""
        cfg = self
        learner_keys = {k: kwargs.pop(k) for k in ("beta", "gamma") if k in kwargs}
        if learner_keys:
            cfg = replace(cfg, learner=replace(cfg.learner, **learner_keys))
        shaping_keys = {
            k: kwargs.pop(k)
            for k in ("cycle_penalty", "drop_penalty", "history_length")
            if k in kwargs
        }
        if shaping_keys:
            cfg = replace(cfg, shaping=replace(cfg.shaping, **shaping_keys))
        if kwargs:
            cfg = replace(cfg, **kwargs)
        return cfg


def _resolve_link(topology: Topology, router: int, label: str, where: str) -> int:
    matches = [
        i for i in topology.out_link_indices(router) if topology.link_label(i) == label
    ]
    if len(matches) != 1:
        raise ConfigError(
            f"{where}: link {label!r} does not name exactly one outgoing link "
            f"of {topology.label(router)}"
        )
    return matches[0]


def config_to_dict(cfg: ExperimentConfig) -> dict:
    t = cfg.topology
    network: dict = {
        "cost_model": t.cost_model.value,
        "nodes": [nd.label for nd in t.nodes],
        "links": [
            {
                "from": t.label(l.src),
                "to": t.label(l.dst),
                "delay": l.delay,
                "capacity": l.capacity,
                "label": l.label,
            }
            for l in t.links
        ],
    }
    if t.node_costs is not None:
        network["node_costs"] = {
            t.label(n): {"base": c.base, "per_flow": c.per_flow}
            for n, c in sorted(t.node_costs.items())
        }
    traffic = {
        "rates": {
            t.label(s): r for s, r in enumerate(cfg.traffic.rates) if r != 0
        },
        "destinations": {
            t.label(s): {
                t.label(y): p for y, p in enumerate(row) if p != 0.0
            }
            for s, row in enumerate(cfg.traffic.dest_probs)
            if any(p != 0.0 for p in row)
        },
    }
    return {
        "network": network,
        "traffic": traffic,
        "learner": {
            "beta": cfg.learner.beta,
            "gamma": cfg.learner.gamma,
            "schedule": cfg.learner.schedule.value,
            "credit_current_tick": cfg.learner.credit_current_tick,
        },
        "shaping": {
            "cycle_penalty": cfg.shaping.cycle_penalty,
            "history_length": cfg.shaping.history_length,
            "drop_penalty": cfg.shaping.drop_penalty,
        },
        "run": {
            "steps": cfg.steps,
            "seed": cfg.seed,
            "sample_every": cfg.sample_every,
            "ma_window": cfg.ma_window,
            "tracked_probabilities": [
                {
                    "router": t.label(tp.router),
                    "dest": t.label(tp.dest),
                    "link": t.link_label(tp.link_index),
                }
                for tp in cfg.tracked
            ],
        },
        "output": {"csv": cfg.csv_path, "theta": cfg.theta_path},
    }


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: must be a list")
    return value


def _require(d: dict, key: str, where: str):
    if key not in _object(d, where):
        raise ConfigError(f"{where}: missing required key {key!r}")
    return d[key]


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: must be a number, got {value!r}") from None


def _integer(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: must be an integer, got {value!r}") from None


def _optional_str(value, where: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where}: must be a string or null")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    net = _require(doc, "network", "config")
    labels = _require(net, "nodes", "network")
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(lb, str) for lb in labels)
    ):
        raise ConfigError("network.nodes: must be a non-empty list of labels")
    ids = {lb: i for i, lb in enumerate(labels)}
    if len(ids) != len(labels):
        raise ConfigError("network.nodes: labels must be unique")

    def node(label, where):
        if not isinstance(label, str) or label not in ids:
            raise ConfigError(f"{where}: unknown node {label!r}")
        return ids[label]

    try:
        cost_model = CostModel(net.get("cost_model", "link_delay"))
    except ValueError:
        raise ConfigError(f"network.cost_model: unknown value {net.get('cost_model')!r}")

    links = []
    for i, ld in enumerate(_list(_require(net, "links", "network"), "network.links")):
        where = f"network.links[{i}]"
        delay = _require(ld, "delay", where)
        if not isinstance(delay, int) or delay < 1:
            raise ConfigError(f"{where}.delay: must be a positive integer")
        capacity = ld.get("capacity")
        if capacity is not None and (not isinstance(capacity, int) or capacity < 1):
            raise ConfigError(f"{where}.capacity: must be a positive integer or null")
        links.append(
            Link(
                src=node(_require(ld, "from", where), where),
                dst=node(_require(ld, "to", where), where),
                delay=delay,
                capacity=capacity,
                label=_optional_str(ld.get("label"), f"{where}.label"),
            )
        )

    node_costs = None
    if "node_costs" in net:
        node_costs = {}
        for lb, cd in _object(net["node_costs"], "network.node_costs").items():
            where = f"network.node_costs.{lb}"
            node_costs[node(lb, where)] = NodeCost(
                base=_number(_require(cd, "base", where), f"{where}.base"),
                per_flow=_number(_require(cd, "per_flow", where), f"{where}.per_flow"),
            )

    topology = Topology(
        nodes=tuple(Node(i, lb) for i, lb in enumerate(labels)),
        links=tuple(links),
        cost_model=cost_model,
        node_costs=node_costs,
    )

    tr = _require(doc, "traffic", "config")
    n = len(labels)
    rates = [0] * n
    for lb, r in _object(_require(tr, "rates", "traffic"), "traffic.rates").items():
        if not isinstance(r, int) or r < 0:
            raise ConfigError(f"traffic.rates.{lb}: must be a non-negative integer")
        rates[node(lb, f"traffic.rates.{lb}")] = r
    dest_rows = [[0.0] * n for _ in range(n)]
    destinations = _object(_require(tr, "destinations", "traffic"), "traffic.destinations")
    for lb, row in destinations.items():
        where = f"traffic.destinations.{lb}"
        s = node(lb, where)
        for dlb, p in _object(row, where).items():
            dest_rows[s][node(dlb, f"{where}.{dlb}")] = _number(p, f"{where}.{dlb}")
    traffic = TrafficSpec(
        rates=tuple(rates), dest_probs=tuple(tuple(r) for r in dest_rows)
    )

    le = _object(doc.get("learner", {}), "learner")
    try:
        schedule = StepSchedule(le.get("schedule", "constant"))
    except ValueError:
        raise ConfigError(f"learner.schedule: unknown value {le.get('schedule')!r}")
    credit_current_tick = le.get("credit_current_tick", True)
    if not isinstance(credit_current_tick, bool):
        raise ConfigError("learner.credit_current_tick: must be true or false")
    learner = LearnerConfig(
        beta=_number(le.get("beta", 0.99), "learner.beta"),
        gamma=_number(le.get("gamma", 1e-5), "learner.gamma"),
        schedule=schedule,
        credit_current_tick=credit_current_tick,
    )

    sh = _object(doc.get("shaping", {}), "shaping")
    shaping = ShapingConfig(
        cycle_penalty=_number(sh.get("cycle_penalty", 0.0), "shaping.cycle_penalty"),
        history_length=_integer(sh.get("history_length", 2), "shaping.history_length"),
        drop_penalty=_number(sh.get("drop_penalty", 0.0), "shaping.drop_penalty"),
    )

    run = _object(doc.get("run", {}), "run")
    tracked = []
    tracked_docs = _list(
        run.get("tracked_probabilities", []), "run.tracked_probabilities"
    )
    for j, td in enumerate(tracked_docs):
        where = f"run.tracked_probabilities[{j}]"
        router = node(_require(td, "router", where), where)
        dest = node(_require(td, "dest", where), where)
        link_index = _resolve_link(topology, router, _require(td, "link", where), where)
        tracked.append(TrackedProbability(router, dest, link_index))

    out = _object(doc.get("output", {}), "output")
    cfg = ExperimentConfig(
        topology=topology,
        traffic=traffic,
        learner=learner,
        shaping=shaping,
        steps=_integer(run.get("steps", 100_000), "run.steps"),
        seed=_integer(run.get("seed", 1), "run.seed"),
        sample_every=_integer(run.get("sample_every", 100), "run.sample_every"),
        ma_window=_integer(run.get("ma_window", 1000), "run.ma_window"),
        tracked=tuple(tracked),
        csv_path=_optional_str(out.get("csv"), "output.csv"),
        theta_path=_optional_str(out.get("theta"), "output.theta"),
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError naming the
    offending key on failure."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8"
    )

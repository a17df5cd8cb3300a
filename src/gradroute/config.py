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
        "rates": {"A": 1, ...},          # omitted nodes are silent; <= network.MAX_RATE
        "destinations": {"A": {"B": 0.5, "C": 0.5}}    # per-source distribution
      },
      "learner": {"beta": 0.99, "gamma": 1e-5},
      "shaping": {"cycle_penalty": 0.0, "history_length": 2, "drop_penalty": 0.0},
      "run": {"steps": 1000000, "seed": 1, "sample_every": 100, "ma_window": 1000,
              "tracked_probabilities": [{"router": "A", "dest": "C", "link": "AB"}]},
      "output": {"csv": null, "theta": null}
    }

Links are referenced by their display label (explicit label, else the
concatenated endpoint labels). node_costs is read into a tuple by node
id, None for a node it does not name; an empty object reads as no costs,
and the saver writes the costs in node-id order. Presets serialize to
this format and load back equal.

config_from_dict only decodes: it checks the document's shape, unknown
and required keys and node and link labels, and reads a number key's
integer as a float. Every other value passes as given: every type and
value rule lives once, in a record's validator (validate_topology,
LearnerConfig.validate, ShapingConfig.validate, the run section in
ExperimentConfig.validate), as `<dotted key>: <problem>`.
ExperimentConfig.validate raises them all as one ConfigError; load_config
and Simulation both call it, so a config built in Python meets the same
rules and messages as one read from a file.

The learner, shaping and run sections are the records LearnerConfig,
ShapingConfig and ExperimentConfig's scalar run fields: their keys, their
defaults and whether each is an integer or a number are the records'
own, read from `_field_defaults`, not a second list. Every object has
one declared key set, and an unknown key (a misspelling) is refused with
a ConfigError naming its dotted path, e.g. "learner.gama: unknown key".

The loader also accepts "credit_current_tick": true, which older files
write for what is now the only update order, and refuses any other
value of it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

from .learner import LearnerConfig
from .network import (
    CostModel,
    Link,
    NodeCost,
    Topology,
    TrafficSpec,
    _is_int,
    _is_node,
    _is_number,
    validate_topology,
)
from .shaping import ShapingConfig


class ConfigError(ValueError):
    """Config parse or validation failure; the message names the bad key."""


class TrackedProbability(NamedTuple):
    """One policy probability to log: the chance that the link at
    `link_index` is picked by its source, the router, for packets
    destined `dest`."""

    dest: int
    link_index: int


class ExperimentConfig(NamedTuple):
    topology: Topology
    traffic: TrafficSpec
    learner: LearnerConfig = LearnerConfig()
    shaping: ShapingConfig = ShapingConfig()
    steps: int = 100_000
    seed: int = 1
    sample_every: int = 100
    ma_window: int = 1000
    tracked: tuple[TrackedProbability, ...] = ()
    csv_path: str | None = None
    theta_path: str | None = None

    def validate(self) -> None:
        """Raise one ConfigError listing every violation of the config's
        rules, each `<dotted config key>: <problem>`, joined by "; "."""
        v = [
            *validate_topology(self.topology, self.traffic),
            *self.learner.validate(),
            *self.shaping.validate(),
        ]
        for key in ("steps", "sample_every"):
            value = getattr(self, key)
            if not (_is_int(value) and value >= 1):
                v.append(f"run.{key}: must be an integer >= 1, got {value!r}")
        # the run's reward windows are deques, whose maxlen is at most sys.maxsize
        w = self.ma_window
        if not (_is_int(w) and 1 <= w <= sys.maxsize):
            v.append(f"run.ma_window: must be an integer from 1 to {sys.maxsize}, got {w!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            v.append(f"run.seed: must be an integer from 0 to 2**64 - 1, got {self.seed!r}")
        for key, path in (("output.csv", self.csv_path), ("output.theta", self.theta_path)):
            if not (path is None or isinstance(path, str)):
                v.append(f"{key}: must be a string or null")
        n, links = self.topology.n_nodes, self.topology.links
        for j, tp in enumerate(self.tracked):
            where = f"run.tracked_probabilities[{j}]"
            link = links[tp.link_index] if _is_node(tp.link_index, len(links)) else None
            # its router is its link's source; a link with a dangling end has none
            ends = link and _is_node(link.src, n) and _is_node(link.dst, n)
            router = link.src if ends else None
            if router is None:
                v.append(f"{where}: no link {tp.link_index!r}")
            else:
                # a file names the link by its display label: it must name it alone
                label = self.topology.link_label(tp.link_index)
                try:
                    resolve_link(self.topology, router, label, where)
                except ConfigError as e:
                    v.append(str(e))
            if not _is_node(tp.dest, n) or tp.dest == router:
                v.append(f"{where}: destination is not routable from the router")
        if v:
            raise ConfigError("; ".join(v))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with selected fields replaced; learner/shaping fields may be
        given flat (beta=..., gamma=..., cycle_penalty=..., drop_penalty=...)."""
        cfg = self
        for section in ("learner", "shaping"):
            record = getattr(cfg, section)
            keys = {k: kwargs.pop(k) for k in record._fields if k in kwargs}
            if keys:
                cfg = cfg._replace(**{section: record._replace(**keys)})
        return cfg._replace(**kwargs)


# the run section's scalars: the fields of ExperimentConfig with an integer default
_RUN_DEFAULTS = {
    k: v for k, v in ExperimentConfig._field_defaults.items() if type(v) is int
}


def resolve_link(topology: Topology, router: int, label: str, where: str) -> int:
    """Index of the one outgoing link of `router` whose display label is
    `label`; a ConfigError at `where` if there is not exactly one."""
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
        "nodes": list(t.nodes),
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
            for n, c in enumerate(t.node_costs)
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
        "learner": cfg.learner._asdict(),
        "shaping": cfg.shaping._asdict(),
        "run": {
            **{k: getattr(cfg, k) for k in _RUN_DEFAULTS},
            "tracked_probabilities": [
                {
                    "router": t.label(t.links[tp.link_index].src),
                    "dest": t.label(tp.dest),
                    "link": t.link_label(tp.link_index),
                }
                for tp in cfg.tracked
            ],
        },
        "output": {"csv": cfg.csv_path, "theta": cfg.theta_path},
    }


def _object(value, where: str, keys=None) -> dict:
    """`value` as a JSON object; given `keys`, one that holds no other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object")
    if keys is not None:
        for k in value:
            if k not in keys:
                raise ConfigError(f"{where}.{k}: unknown key")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: must be a list")
    return value


def _require(d: dict, key: str, where: str):
    if key not in _object(d, where):
        raise ConfigError(f"{where}: missing required key {key!r}")
    return d[key]


def _number(value):
    """A number key's value as a float; a value that is no number passes
    as given, for its record's validator to refuse (network._number_rule)."""
    return float(value) if _is_number(value) else value


def _optional_str(value, where: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where}: must be a string or null")
    return value


def _section(doc: dict, section: str, defaults: dict, extra_keys=()) -> tuple[dict, dict]:
    """(the section's object, its scalars): each key of `defaults` read
    from the section, or its default if absent, as given where the default
    is an integer and through _number otherwise; the records' validators
    check both."""
    d = _object(doc.get(section, {}), section, (*defaults, *extra_keys))
    return d, {
        k: d.get(k, v) if type(v) is int else _number(d.get(k, v))
        for k, v in defaults.items()
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    _object(doc, "config", ("network", "traffic", "learner", "shaping", "run", "output"))
    net = _object(
        _require(doc, "network", "config"),
        "network",
        ("cost_model", "nodes", "links", "node_costs"),
    )
    labels = _require(net, "nodes", "network")
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(lb, str) for lb in labels)
    ):
        raise ConfigError("network.nodes: must be a non-empty list of labels")
    ids = {lb: i for i, lb in enumerate(labels)}

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
        _object(ld, where, ("from", "to", "delay", "capacity", "label"))
        links.append(
            Link(
                src=node(_require(ld, "from", where), where),
                dst=node(_require(ld, "to", where), where),
                delay=_require(ld, "delay", where),
                capacity=ld.get("capacity"),
                label=_optional_str(ld.get("label"), f"{where}.label"),
            )
        )

    costs: dict[int, NodeCost] = {}
    for lb, cd in _object(net.get("node_costs", {}), "network.node_costs").items():
        where = f"network.node_costs.{lb}"
        nd = node(lb, where)  # an unknown node is named before its keys
        _object(cd, where, NodeCost._fields)
        costs[nd] = NodeCost(
            base=_number(_require(cd, "base", where)),
            per_flow=_number(_require(cd, "per_flow", where)),
        )

    topology = Topology(
        nodes=tuple(labels),
        links=tuple(links),
        cost_model=cost_model,
        # by node id, None for a node the file names no cost for; {} as none
        node_costs=tuple(costs.get(i) for i in range(len(labels))) if costs else None,
    )

    tr = _object(_require(doc, "traffic", "config"), "traffic", ("rates", "destinations"))
    n = len(labels)
    rates = [0] * n
    for lb, r in _object(_require(tr, "rates", "traffic"), "traffic.rates").items():
        rates[node(lb, f"traffic.rates.{lb}")] = r
    dest_rows = [[0.0] * n for _ in range(n)]
    destinations = _object(_require(tr, "destinations", "traffic"), "traffic.destinations")
    for lb, row in destinations.items():
        where = f"traffic.destinations.{lb}"
        s = node(lb, where)
        for dlb, p in _object(row, where).items():
            dest_rows[s][node(dlb, f"{where}.{dlb}")] = _number(p)
    traffic = TrafficSpec(
        rates=tuple(rates), dest_probs=tuple(tuple(r) for r in dest_rows)
    )

    # a tick's reward credits that tick's decisions; older files spell it out
    le, learner = _section(doc, "learner", LearnerConfig._field_defaults, ("credit_current_tick",))
    credit = le.get("credit_current_tick", True)
    if credit is not True:
        raise ConfigError(f"learner.credit_current_tick: must be true, got {credit!r}")
    _, shaping = _section(doc, "shaping", ShapingConfig._field_defaults)

    run, run_scalars = _section(doc, "run", _RUN_DEFAULTS, ("tracked_probabilities",))
    tracked = []
    tracked_docs = _list(
        run.get("tracked_probabilities", []), "run.tracked_probabilities"
    )
    for j, td in enumerate(tracked_docs):
        where = f"run.tracked_probabilities[{j}]"
        _object(td, where, ("router", "dest", "link"))
        router = node(_require(td, "router", where), where)
        dest = node(_require(td, "dest", where), where)
        link_index = resolve_link(topology, router, _require(td, "link", where), where)
        tracked.append(TrackedProbability(dest, link_index))

    out = _object(doc.get("output", {}), "output", ("csv", "theta"))
    cfg = ExperimentConfig(
        topology=topology,
        traffic=traffic,
        learner=LearnerConfig(**learner),
        shaping=ShapingConfig(**shaping),
        **run_scalars,
        tracked=tuple(tracked),
        csv_path=out.get("csv"),
        theta_path=out.get("theta"),
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError naming the
    offending key on failure."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text at byte {e.start}: {e.reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(doc)


def config_text(cfg: ExperimentConfig) -> str:
    """The JSON text save_config writes."""
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write cfg as config_text does, after validating it: a config built
    in Python that breaks a rule gets its keyed ConfigError, and no file."""
    cfg.validate()
    Path(path).write_text(config_text(cfg), encoding="utf-8")

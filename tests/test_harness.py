import gc
import hashlib
import io
import json
import math
import re
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradroute
from gradroute import claims, engine, harness
from gradroute.cli import main as cli_main
from gradroute.config import (
    ConfigError,
    ExperimentConfig,
    TrackedProbability,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from gradroute.engine import LoadDiverged, Simulation, SimulationError
from gradroute.harness import batch, run_experiment
from gradroute.metrics import column_names
from gradroute.network import MAX_RATE, Topology, TrafficSpec
from gradroute.presets import PRESET_NAMES, _tracked, preset
from test_claims import shrink
from test_engine import livelock_config


def ring60(**overrides) -> ExperimentConfig:
    """A 60-router ring with chords (links i->i+-1, i->i+-7) under uniform
    traffic: 3 540 logit rows of four logits each."""
    n = 60
    labels = [f"N{i}" for i in range(n)]
    links = [(labels[i], labels[(i + k) % n], 1) for i in range(n) for k in (1, -1, 7, -7)]
    cfg = ExperimentConfig(Topology.build(labels, links), TrafficSpec.uniform(n), steps=20)
    return cfg._replace(**overrides)


ESCAPED_LABELS = ["Zürich", "東京", 'q"uote', "back\\slash", "new\nline"]


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """A metrics CSV as (header, numeric rows)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    return header, rows


class TestPresetHyperparameters:
    def test_triangle(self):
        cfg = preset("triangle")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.99, 1e-5)
        assert cfg.shaping.cycle_penalty == 0.0 and cfg.shaping.drop_penalty == 0.0

    def test_contention(self):
        cfg = preset("contention")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.99, 1e-7)
        assert cfg.shaping.drop_penalty == 21.0

    def test_six_node(self):
        cfg = preset("six_node")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.9, 1e-6)
        assert cfg.shaping.cycle_penalty == -100.0
        assert cfg.shaping.history_length == 2

    def test_braess1(self):
        cfg = preset("braess1")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.99, 1e-5)

    def test_tracked_probability_columns(self):
        assert column_names(preset("triangle"))[6] == "p[A->AB|dest=C]"
        assert column_names(preset("contention"))[6] == "p[A->top|dest=B]"
        braess_cols = column_names(preset("braess1"))
        assert braess_cols[6] == "p[A->AC|dest=B]"
        assert braess_cols[7] == "p[E->EF|dest=B]"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("square")

    @pytest.mark.parametrize("link", ["XY", "AB"])
    def test_tracked_link_must_name_one_link(self, link):
        # parallel A->B links share the display label "AB"
        topo = Topology.build(["A", "B"], [("A", "B", 1), ("A", "B", 2)])
        with pytest.raises(ConfigError, match="does not name exactly one outgoing link"):
            _tracked(topo, "A", "B", link)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_save_load_equal(self, name, tmp_path):
        cfg = preset(name)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_dict_round_trip_survives_json(self, name="braess1"):
        cfg = preset(name)
        doc = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(doc) == cfg

    @pytest.mark.parametrize("name", ["triangle", "braess1"])
    def test_empty_node_costs_read_as_none(self, name):
        # a link-delay file loads as if the key were absent, and saves
        # without it; a node-flow file is refused for each node's missing cost
        doc = config_to_dict(preset(name))
        doc["network"]["node_costs"] = {}
        if name == "triangle":
            cfg = config_from_dict(doc)
            assert cfg == preset(name) and cfg.topology.node_costs is None
            assert "node_costs" not in config_to_dict(cfg)["network"]
        else:
            with pytest.raises(ConfigError) as e:
                config_from_dict(doc)
            assert str(e.value).startswith("network.node_costs.A: missing node cost; ")

    def test_node_costs_read_by_node_id(self):
        doc = config_to_dict(preset("braess1"))
        costs = doc["network"]["node_costs"]
        doc["network"]["node_costs"] = dict(reversed(list(costs.items())))
        cfg = config_from_dict(doc)
        assert cfg == preset("braess1")
        saved = config_to_dict(cfg)["network"]["node_costs"]
        assert list(saved.items()) == list(costs.items())  # in node-id order

    def test_beta_one_rejected(self, tmp_path):
        doc = config_to_dict(preset("triangle"))
        doc["learner"]["beta"] = 1.0
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict(doc)

    def test_negative_delay_rejected(self):
        doc = config_to_dict(preset("triangle"))
        doc["network"]["links"][0]["delay"] = -1
        with pytest.raises(ConfigError, match="delay"):
            config_from_dict(doc)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"network": ')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_text_that_is_not_utf8_is_refused_with_its_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"network": "\xff"}')
        with pytest.raises(ConfigError, match=r"latin1\.json: not UTF-8 text at byte 13: "):
            load_config(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match=r"list\.json: top level must be an object$"):
            load_config(path)

    def test_unknown_tracked_link_rejected(self):
        doc = config_to_dict(preset("triangle"))
        doc["run"]["tracked_probabilities"][0]["link"] = "XY"
        with pytest.raises(ConfigError, match="tracked"):
            config_from_dict(doc)

    def test_steps_lower_bound(self):
        doc = config_to_dict(preset("triangle"))
        doc["run"]["steps"] = 0
        with pytest.raises(ConfigError, match="steps"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("learner", "gamma", math.inf),
            ("learner", "gamma", "abc"),
            ("learner", "beta", math.nan),
            ("learner", "credit_current_tick", "false"),
            ("shaping", "cycle_penalty", math.nan),
            ("shaping", "drop_penalty", math.inf),
            ("shaping", "history_length", None),
            ("traffic", "rates", [1, 0, 0]),
            ("run", "seed", "one"),
            ("output", "csv", 5),
            ("learner", "schedule", "linear"),
            # integer keys take a JSON integer: no float, string or bool
            ("run", "steps", 1.5),
            ("run", "seed", 2.9),
            ("run", "steps", "12"),
            ("run", "seed", True),
            ("shaping", "history_length", True),
            # number keys take an int or a float: no bool or string
            ("learner", "gamma", True),
            ("learner", "gamma", "1e-6"),
            ("traffic", "rates", {"A": True}),
            ("network.links.0", "delay", True),
            ("network.links.0", "capacity", True),
            # the retired update order: only the one there is loads
            ("learner", "credit_current_tick", False),
            # a rate no tick could finish
            ("traffic", "rates", {"A": 10**30}),
        ],
    )
    def test_bad_value_names_key(self, section, key, value):
        doc = config_to_dict(preset("triangle"))
        container = doc
        for k in section.split("."):
            container = container[int(k) if k.isdigit() else k]
        container[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "name, section, key, path",
        [
            ("triangle", "", "netwrk", "config.netwrk"),
            ("triangle", "network", "cost_mdl", "network.cost_mdl"),
            ("contention", "network.links.0", "capcity", "network.links[0].capcity"),
            ("braess1", "network.node_costs.C", "bse", "network.node_costs.C.bse"),
            ("triangle", "traffic", "rate", "traffic.rate"),
            ("contention", "learner", "gama", "learner.gama"),
            ("six_node", "shaping", "history_len", "shaping.history_len"),
            ("triangle", "run", "stpes", "run.stpes"),
            (
                "triangle",
                "run.tracked_probabilities.0",
                "lnk",
                "run.tracked_probabilities[0].lnk",
            ),
            ("triangle", "output", "cvs", "output.cvs"),
        ],
    )
    def test_unknown_key_names_path(self, name, section, key, path):
        doc = config_to_dict(preset(name))
        container = doc
        for k in filter(None, section.split(".")):
            container = container[int(k) if k.isdigit() else k]
        container[key] = 1
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert str(err.value) == f"{path}: unknown key"

    @pytest.mark.parametrize(
        "name, section, label, value, message",
        [
            # the node label is resolved before the value's keys or type
            (
                "braess1",
                "network.node_costs",
                "~",
                {"": 0},
                "network.node_costs.~: unknown node '~'",
            ),
            ("triangle", "traffic.rates", "~", -1, "traffic.rates.~: unknown node '~'"),
            (
                "triangle",
                "traffic.rates",
                "A",
                MAX_RATE + 1,
                f"traffic.rates.A: must be an integer from 0 to {MAX_RATE}, got {MAX_RATE + 1}",
            ),
        ],
        ids=["node_cost_label", "rate_label", "rate_cap"],
    )
    def test_label_value_message(self, name, section, label, value, message):
        doc = config_to_dict(preset(name))
        _at(doc, section.split("."))[label] = value
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert str(err.value) == message

    def test_rate_cap_itself_loads(self):
        doc = config_to_dict(preset("triangle"))
        doc["traffic"]["rates"]["A"] = MAX_RATE
        assert config_from_dict(doc).traffic.rates[0] == MAX_RATE

    def test_credit_current_tick_true_still_loads(self):
        doc = config_to_dict(preset("triangle"))
        assert "credit_current_tick" not in doc["learner"]
        doc["learner"]["credit_current_tick"] = True
        assert config_from_dict(doc) == preset("triangle")


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _set(*path, value):
    """A document edit that sets the value at `path`."""

    def edit(doc):
        _at(doc, path[:-1])[path[-1]] = value

    return edit


def _links(edit):
    """A config edit that replaces the topology's links with edit(links)."""

    def apply(cfg):
        t = cfg.topology
        links = tuple(edit(list(t.links)))
        return cfg._replace(topology=Topology(t.nodes, links, t.cost_model, t.node_costs))

    return apply


def _replace_at(items, i, **fields):
    items[i] = items[i]._replace(**fields)
    return items


def _drop_links(doc):
    """Triangle without its links into C (B->C, A->C)."""
    links = doc["network"]["links"]
    doc["network"]["links"] = [ld for i, ld in enumerate(links) if i not in (2, 4)]


_TRAFFIC = preset("triangle").traffic


# one violated rule each, on the triangle preset unless a fourth entry
# names another: (document edit, edit of the preset in Python, the key the
# message starts with[, preset])
_RULES = {
    "rate_cap": (
        _set("traffic", "rates", "A", value=MAX_RATE + 1),
        lambda cfg: cfg._replace(traffic=_TRAFFIC._replace(rates=(MAX_RATE + 1, 1, 1))),
        "traffic.rates.A",
    ),
    "rate_float": (
        _set("traffic", "rates", "A", value=1.5),
        lambda cfg: cfg._replace(traffic=_TRAFFIC._replace(rates=(1.5, 1, 1))),
        "traffic.rates.A",
    ),
    "delay": (
        _set("network", "links", 0, "delay", value=0),
        _links(lambda links: _replace_at(links, 0, delay=0)),
        "network.links[0].delay",
    ),
    "capacity": (
        _set("network", "links", 0, "capacity", value=0),
        _links(lambda links: _replace_at(links, 0, capacity=0)),
        "network.links[0].capacity",
    ),
    "self_loop": (
        _set("network", "links", 3, "to", value="C"),
        _links(lambda links: _replace_at(links, 3, dst=2)),
        "network.links[3]",
    ),
    "sum": (
        _set("traffic", "destinations", "A", value={"B": 0.5, "C": 0.4}),
        lambda cfg: cfg._replace(
            traffic=_TRAFFIC._replace(dest_probs=((0.0, 0.5, 0.4), *_TRAFFIC.dest_probs[1:]))
        ),
        "traffic.destinations.A",
    ),
    "own_weight": (
        _set("traffic", "destinations", "A", value={"A": 0.5, "B": 0.5}),
        lambda cfg: cfg._replace(
            traffic=_TRAFFIC._replace(dest_probs=((0.5, 0.5, 0.0), *_TRAFFIC.dest_probs[1:]))
        ),
        "traffic.destinations.A",
    ),
    # a node-flow network has no link capacities: they would be ignored
    "node_flow_capacity": (
        _set("network", "links", 0, "capacity", value=1),
        _links(lambda links: _replace_at(links, 0, capacity=1)),
        "network.links[0].capacity",
        "braess1",
    ),
    "unreachable": (
        _drop_links,
        _links(lambda links: [ln for i, ln in enumerate(links) if i not in (2, 4)]),
        "traffic.destinations.A",
    ),
    "steps": (
        _set("run", "steps", value=2.5),
        lambda cfg: cfg._replace(steps=2.5),
        "run.steps",
    ),
    "history_length": (
        _set("shaping", "history_length", value=0),
        lambda cfg: cfg.with_overrides(history_length=0),
        "shaping.history_length",
    ),
    # a deque's maxlen holds at most sys.maxsize
    "history_length_cap": (
        _set("shaping", "history_length", value=2**70),
        lambda cfg: cfg.with_overrides(history_length=2**70),
        "shaping.history_length",
    ),
    "ma_window_cap": (
        _set("run", "ma_window", value=2**70),
        lambda cfg: cfg._replace(ma_window=2**70),
        "run.ma_window",
    ),
    "gamma": (
        _set("learner", "gamma", value=-1.0),
        lambda cfg: cfg.with_overrides(gamma=-1.0),
        "learner.gamma",
    ),
    # a value of the wrong type is reported, never compared
    "gamma_str": (
        _set("learner", "gamma", value="1e-5"),
        lambda cfg: cfg.with_overrides(gamma="1e-5"),
        "learner.gamma",
    ),
    "cycle_penalty_none": (
        _set("shaping", "cycle_penalty", value=None),
        lambda cfg: cfg.with_overrides(cycle_penalty=None),
        "shaping.cycle_penalty",
    ),
    "weight_str": (
        _set("traffic", "destinations", "A", "B", value="0.5"),
        lambda cfg: cfg._replace(
            traffic=_TRAFFIC._replace(dest_probs=((0.0, "0.5", 0.5), *_TRAFFIC.dest_probs[1:]))
        ),
        "traffic.destinations.A.B",
    ),
    "own_weight_str": (
        _set("traffic", "destinations", "A", "A", value="0.5"),
        lambda cfg: cfg._replace(
            traffic=_TRAFFIC._replace(dest_probs=(("0.5", 0.5, 0.5), *_TRAFFIC.dest_probs[1:]))
        ),
        "traffic.destinations.A.A",
    ),
    "link_label": (
        _set("network", "links", 0, "label", value=5),
        _links(lambda links: _replace_at(links, 0, label=5)),
        "network.links[0].label",
    ),
    # a second link A->B: the tracked link's display label names both
    "tracked_link_twin": (
        _set("network", "links", 4, "to", value="B"),
        _links(lambda links: _replace_at(links, 4, dst=1)),
        "run.tracked_probabilities[0]",
    ),
    "output_csv": (
        _set("output", "csv", value=5),
        lambda cfg: cfg._replace(csv_path=5),
        "output.csv",
    ),
    # a file names a router by its label and a config built in Python
    # names only the link, whose source is its router: a label no node has
    # and a link index past the end are refused under the same key
    "tracked_router": (
        _set("run", "tracked_probabilities", 0, "router", value="Z"),
        lambda cfg: cfg._replace(tracked=(TrackedProbability(2, 9),)),
        "run.tracked_probabilities[0]",
    ),
}


@pytest.mark.parametrize("rule", _RULES)
def test_one_rule_two_entry_points(rule):
    """A rule refuses a value alike in a loaded document and in a config
    built in Python: one ConfigError, the same message, led by the key."""
    edit_doc, edit_cfg, key, *name = _RULES[rule]
    cfg = preset(name[0] if name else "triangle")
    doc = config_to_dict(cfg)
    edit_doc(doc)
    with pytest.raises(ConfigError) as loaded:
        config_from_dict(doc)
    with pytest.raises(ConfigError) as built:
        Simulation(edit_cfg(cfg))
    assert str(built.value).startswith(f"{key}: ")
    if rule != "tracked_router":
        assert str(loaded.value) == str(built.value)
    assert str(loaded.value).startswith(f"{key}: ")


_TOPOLOGY = preset("triangle").topology
_BRAESS_COSTS = preset("braess1").topology.node_costs


def _endpoint(**fields):
    """Triangle with link 0 (A->B) given `fields`. It tracks nothing: its
    tracked probability is of link 0, which a refused link leaves unrouted."""
    links = tuple(_replace_at(list(_TOPOLOGY.links), 0, **fields))
    return lambda cfg: cfg._replace(topology=_TOPOLOGY._replace(links=links), tracked=())


# rules only a config built in Python can break: a loaded file always
# builds full destination rows and distinct string labels, resolves link
# endpoints to node ids and each tracked link to an out-link of its router
_PYTHON_RULES = {
    "duplicate_label": (
        lambda cfg: cfg._replace(topology=_TOPOLOGY._replace(nodes=("A", "B", "A"))),
        "network.nodes: labels must be unique",
    ),
    "short_traffic": (
        lambda cfg: cfg._replace(traffic=_TRAFFIC._replace(rates=(1, 1))),
        "traffic: rates and destinations must have one entry per node",
    ),
    "link_src_label": (
        _endpoint(src="A"),
        "network.links[0]: dangling link endpoint ('A'->1)",
    ),
    "link_dst_float": (
        _endpoint(dst=1.0),
        "network.links[0]: dangling link endpoint (0->1.0)",
    ),
    "link_src_bool": (
        _endpoint(src=True),
        "network.links[0]: dangling link endpoint (True->1)",
    ),
    "short_row": (
        lambda cfg: cfg._replace(
            traffic=_TRAFFIC._replace(dest_probs=((0.0, 1.0), *_TRAFFIC.dest_probs[1:]))
        ),
        "traffic.destinations.A: must have one weight per node, got 2",
    ),
    "tracked_dest_float": (
        lambda cfg: cfg._replace(tracked=(TrackedProbability(2.0, 0),)),
        "run.tracked_probabilities[0]: destination is not routable from the router",
    ),
    # a tracked probability's router is its link's source: a link index
    # that names no router's out-link names no router
    "tracked_link_past_end": (
        lambda cfg: cfg._replace(tracked=(TrackedProbability(2, 6),)),
        "run.tracked_probabilities[0]: no link 6",
    ),
    "tracked_link_float": (
        lambda cfg: cfg._replace(tracked=(TrackedProbability(2, 0.0),)),
        "run.tracked_probabilities[0]: no link 0.0",
    ),
    "tracked_link_dangling": (
        lambda cfg: _endpoint(src=9)(cfg)._replace(tracked=cfg.tracked),
        "network.links[0]: dangling link endpoint (9->1); "
        "run.tracked_probabilities[0]: no link 0",
    ),
    # the loader takes only string labels, so a run's saved config loads back
    "label_int": (
        lambda cfg: cfg._replace(topology=_TOPOLOGY._replace(nodes=(5, "B", "C"))),
        "network.nodes: must be a non-empty list of labels",
    ),
    "cost_model_str": (
        lambda cfg: cfg._replace(topology=cfg.topology._replace(cost_model="node_flow")),
        "network.cost_model: must be a CostModel, got 'node_flow'",
        "braess1",
    ),
    "node_cost_tuple": (
        lambda cfg: cfg._replace(
            topology=cfg.topology._replace(node_costs=((1.0,), *cfg.topology.node_costs[1:]))
        ),
        "network.node_costs.A: must be a NodeCost, got (1.0,)",
        "braess1",
    ),
    # the saver labels node costs by position: a tuple one entry short
    # would save no cost for the last node
    "node_cost_key": (
        lambda cfg: cfg._replace(
            topology=cfg.topology._replace(node_costs=cfg.topology.node_costs[:-1])
        ),
        f"network.node_costs: must be one NodeCost per node, got {_BRAESS_COSTS[:-1]!r}",
        "braess1",
    ),
    # node costs are a tuple by node id, not a dict by it
    "node_costs_dict": (
        lambda cfg: cfg._replace(
            topology=cfg.topology._replace(node_costs=dict(enumerate(cfg.topology.node_costs)))
        ),
        "network.node_costs: must be one NodeCost per node, "
        f"got {dict(enumerate(_BRAESS_COSTS))!r}",
        "braess1",
    ),
    # a false value other than None would save no node costs
    "node_costs_float": (
        lambda cfg: cfg._replace(topology=_TOPOLOGY._replace(node_costs=0.0)),
        "network.node_costs: must be one NodeCost per node, got 0.0",
    ),
}


@pytest.mark.parametrize("rule", _PYTHON_RULES)
def test_python_built_config_gets_a_keyed_message(rule, tmp_path):
    """Both a run and a save refuse the config with the same keyed message;
    the save writes no file."""
    edit_cfg, message, *name = _PYTHON_RULES[rule]
    cfg = edit_cfg(preset(name[0] if name else "triangle"))
    with pytest.raises(ConfigError) as e:
        Simulation(cfg)
    assert str(e.value) == message
    path = tmp_path / "config.json"
    with pytest.raises(ConfigError) as e:
        save_config(cfg, path)
    assert str(e.value) == message
    assert not path.exists()


def test_a_weight_of_the_wrong_type_is_only_reported():
    """An own-source weight that is no number is refused for its type
    alone, never compared with 0 as weight on its own source."""
    traffic = _TRAFFIC._replace(dest_probs=(("0.5", 0.5, 0.5), *_TRAFFIC.dest_probs[1:]))
    with pytest.raises(ConfigError) as e:
        Simulation(preset("triangle")._replace(traffic=traffic))
    assert str(e.value) == "traffic.destinations.A.A: must be a number, got '0.5'"


# a refusal names its key, rooted at a section (or "config", the document);
# the key runs to the first ": ", since a key or label may hold any character
_KEYED = re.compile(r"^(config|network|traffic|learner|shaping|run|output)([.\[].*?)?: ", re.S)


def _where(path) -> str:
    """The loader's name for the object at `path`: dotted keys, [i] indices."""
    where = ""
    for k in path:
        where += f"[{k}]" if isinstance(k, int) else f".{k}"
    return where.lstrip(".") or "config"


def _paths(node, prefix=()):
    """Every (container, key) path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _leaves(node, prefix=()):
    """Every path to a leaf of a config built in Python: field names into
    records, indices into tuples, keys into dicts."""
    if hasattr(node, "_fields"):
        items = zip(node._fields, node)
    elif isinstance(node, dict):
        items = node.items()
    elif isinstance(node, tuple):
        items = enumerate(node)
    else:
        yield prefix
        return
    for k, v in items:
        yield from _leaves(v, prefix + (k,))


def _put(node, path, value):
    """`node` with the leaf at `path` replaced by `value`, records rebuilt."""
    if not path:
        return value
    k, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, k: _put(node[k], rest, value)}
    if hasattr(node, "_fields"):
        return node._replace(**{k: _put(getattr(node, k), rest, value)})
    return (*node[:k], _put(node[k], rest, value), *node[k + 1 :])


def _messages(err: ConfigError) -> list[str]:
    """A ConfigError's messages: it joins them with "; ", and each starts
    with its section."""
    return re.split(r"; (?=(?:config|network|traffic|learner|shaping|run|output)\b)", str(err))


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PRESET_NAMES), st.data())
    def test_unknown_key_is_refused_by_path(self, name, data):
        doc = config_to_dict(preset(name))
        objects = [()] + [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
        path = data.draw(st.sampled_from(objects))
        # "~" starts no declared key and no node label
        key = "~" + data.draw(st.text(max_size=3))
        _at(doc, path)[key] = data.draw(_ODD_VALUES)
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert str(err.value).startswith(f"{_where(path)}.{key}: ")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PRESET_NAMES), st.data())
    def test_mutated_preset_loads_or_raises_config_error(self, name, data):
        doc = config_to_dict(preset(name))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            parent = _at(doc, path[:-1])
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_ODD_VALUES)
        try:
            cfg = config_from_dict(doc)
        except ConfigError as e:
            assert _KEYED.match(str(e)), str(e)
            return
        # an accepted config holds no NaN: it survives a round trip equal
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(PRESET_NAMES), st.data())
    def test_a_config_that_runs_is_a_config_that_reloads(self, tmp_path, name, data):
        """A preset with up to three leaves set in Python (a field, an
        entry of a tuple or a node cost) either builds a Simulation and
        comes back equal from save_config then load_config, or is refused
        with a ConfigError whose every message starts with a dotted key."""
        cfg = preset(name)
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_leaves(cfg))))
            cfg = _put(cfg, path, data.draw(_ODD_VALUES))
        try:
            Simulation(cfg)
        except ConfigError as e:
            for message in _messages(e):
                assert _KEYED.match(message), message
            return
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg


class TestRunExperiment:
    def test_row_count_is_ceil_steps_over_interval(self, tmp_path):
        for steps, expected in ((100, 1), (250, 3), (50, 1), (1000, 10)):
            cfg = preset("contention").with_overrides(steps=steps)
            res = run_experiment(cfg, tmp_path / str(steps))
            _, rows = read_csv(res.config.csv_path)
            assert len(rows) == expected, steps

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("six_node", {"steps": 3_000}),
            # the node-flow kernel, sampled every tick
            ("braess1", {"steps": 1_500, "sample_every": 1}),
        ],
        ids=["six_node", "braess1"],
    )
    def test_csv_schema_and_ma_recompute(self, name, overrides, tmp_path):
        cfg = preset(name).with_overrides(ma_window=7, **overrides)
        res = run_experiment(cfg, tmp_path)
        header, rows = read_csv(res.config.csv_path)
        assert header == column_names(cfg)
        totals = [r[header.index("reward_total")] for r in rows]
        mas = [r[header.index("reward_ma")] for r in rows]
        for i, ma in enumerate(mas):
            window = totals[max(0, i - 6) : i + 1]
            assert ma == math.fsum(window) / len(window)  # exact, not approx

    def test_csv_bytes_identical_for_same_seed(self, tmp_path):
        cfg = preset("triangle").with_overrides(steps=2_000)
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        with open(a.config.csv_path, "rb") as fa, open(b.config.csv_path, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_observing_a_run_does_not_steer_it(self, name, tmp_path):
        # reading the tracked rows at every sample must leave the run where
        # a bare step() loop ends, float for float, however often and
        # whichever rows it reads: the preset's, every row with a choice,
        # or none. The run's theta file holds its final logits, and repr
        # round-trips every float, so the loaded file equals them exactly
        cfg = preset(name).with_overrides(steps=3_000, seed=3)
        path = tmp_path / "theta.json"
        sim = Simulation(cfg)
        for _ in range(cfg.steps):
            sim.step()
        bare = dict(sim.theta_by_router())
        topo = cfg.topology
        every_row = tuple(
            TrackedProbability(y, links[0])
            for r in range(topo.n_nodes)
            if len(links := topo.out_link_indices(r)) > 1
            for y in range(topo.n_nodes)
            if y != r
        )
        for sample_every in (1, 7):
            for tracked in (cfg.tracked, every_row, ()):
                watched = cfg._replace(
                    sample_every=sample_every, tracked=tracked, theta_path=str(path)
                )
                run_experiment(watched)
                assert json.loads(path.read_text()) == bare, (sample_every, tracked)

    def test_theta_snapshot_format(self, tmp_path):
        cfg = preset("contention").with_overrides(steps=500)
        res = run_experiment(cfg, tmp_path)
        snap = json.loads((tmp_path / f"theta-seed{cfg.seed}.json").read_text())
        assert set(snap.keys()) == {"A"}  # B has no outgoing links
        assert set(snap["A"].keys()) == {"B"}
        assert len(snap["A"]["B"]) == 2  # ordered slots: top, bottom

    def test_writing_theta_holds_less_than_the_file(self, tmp_path, monkeypatch):
        """theta-seed<S>.json is written router by router: on a 60-router
        ring (3 540 logit rows, a file of about 450 kB) writing it adds
        under a tenth of the file's size to the run's traced peak, and the
        write itself, from the first row read to the last byte, peaks under
        a tenth of it above what the run held before (about 16 kB).
        Building the whole text first added about four times the file, and
        dumping a whole theta copy about one and a half times it."""
        cfg = ring60()
        path = tmp_path / "theta.json"
        write_peaks = []
        real = harness.write_theta

        def measured(fh, routers):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            real(fh, routers)
            write_peaks.append(tracemalloc.get_traced_memory()[1] - held)

        monkeypatch.setattr(harness, "write_theta", measured)

        def traced_peak(c) -> int:
            tracemalloc.start()
            try:
                run_experiment(c)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        without = traced_peak(cfg)
        written = traced_peak(cfg._replace(theta_path=str(path)))
        tenth = path.stat().st_size / 10
        assert written - without < tenth
        (write_peak,) = write_peaks
        assert write_peak < tenth

    def test_simulation_holds_under_296_bytes_a_logit_row(self):
        """The logit and trace rows are two dense lists by row id: a ring60
        Simulation holds about 248 bytes per logit row (tracemalloc), all
        of its state included. Two dicts by row id held about 344 bytes
        per row; the bound sits about 48 bytes from each."""
        cfg = ring60()
        Simulation(cfg)  # caches filled by a first build are not the state's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim = Simulation(cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = sum(row is not None for row in sim._rows)
        assert rows == 60 * 59
        assert held / rows < 296

    def test_a_result_holds_no_theta(self):
        """A returned RunResult keeps no logits: on ring60 it holds under
        16 kB (tracemalloc). Keeping a copy of theta held about 0.7 MB."""
        cfg = ring60()

        def held() -> int:
            gc.collect()
            tracemalloc.start()
            try:
                res = run_experiment(cfg)  # noqa: F841, held while measured
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held()  # caches filled by a first run are not the result's
        assert held() < 16_000

    @pytest.mark.parametrize(
        "cfg",
        [
            *(preset(name).with_overrides(steps=1_500, seed=5) for name in PRESET_NAMES),
            # labels json escapes: non-ASCII, a quote, a backslash, a newline
            ExperimentConfig(
                Topology.build(
                    ESCAPED_LABELS,
                    [(a, b, 1) for a in ESCAPED_LABELS for b in ESCAPED_LABELS if a != b],
                ),
                TrafficSpec.uniform(len(ESCAPED_LABELS)),
                steps=500,
            ),
            # a ring whose routers but A have one out-link
            ExperimentConfig(
                Topology.build(
                    list("ABCD"),
                    [("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("D", "A", 1), ("A", "C", 2)],
                ),
                TrafficSpec.uniform(4),
                steps=500,
            ),
        ],
        ids=[*PRESET_NAMES, "escaped_labels", "one_link_routers"],
    )
    def test_theta_file_is_json_dump_of_theta(self, cfg, tmp_path):
        """The file written router by router is, byte for byte, what dumping
        the whole theta with json.dump(theta, fh, indent=2) wrote."""
        path = tmp_path / "theta.json"
        run_experiment(cfg._replace(theta_path=str(path)))
        sim = Simulation(cfg)
        for _ in range(cfg.steps):
            sim.step()
        theta = dict(sim.theta_by_router())
        assert any(v != 0.0 for dests in theta.values() for row in dests.values() for v in row)
        assert path.read_bytes() == (json.dumps(theta, indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "theta",
        [
            {},
            {"A": {"B": [0.0]}},
            {"A": {"B": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]}, "C": {"A": [1.5, -2.0]}},
        ],
        ids=["empty", "one_row", "non_finite"],
    )
    def test_write_theta_is_json_dump(self, theta):
        fh = io.StringIO()
        harness.write_theta(fh, theta.items())
        assert fh.getvalue() == json.dumps(theta, indent=2) + "\n"

    def test_a_result_holds_no_sampled_rows(self):
        """A run keeps its last row and its window mean, not its rows: a
        braess1 result with 4 000 sampled rows holds under 16 kB more than
        one with 1 000 (tracemalloc). Keeping every row held about 376
        bytes a row, 1.1 MB here."""

        def held(steps) -> int:
            cfg = preset("braess1").with_overrides(steps=steps, sample_every=1)
            gc.collect()
            tracemalloc.start()
            try:
                res = run_experiment(cfg)  # noqa: F841, held while measured
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held(100)  # caches filled by a first run are not the result's
        assert held(4_000) - held(1_000) < 16_000

    @staticmethod
    def _check_final_fields(res) -> int:
        """final_row is the CSV's last row, and final_underlying_ma the
        exact mean of its last ma_window underlying rewards; the CSV's row
        count."""
        header, rows = read_csv(res.config.csv_path)
        last = res.final_row
        assert rows[-1] == [*last[:6], *last.probs, *last[7:]]
        under = [r[header.index("reward_underlying")] for r in rows]
        tail = under[-res.config.ma_window :]
        assert res.final_underlying_ma == math.fsum(tail) / len(tail)
        return len(rows)

    def test_final_row_and_window_mean_match_the_csv(self, tmp_path):
        # unshaped six_node seed 3: 60 sampled rows, whose windowed mean
        # peaks after the first window fills
        window = 20
        cfg = preset("six_node").with_overrides(
            steps=6_000, seed=3, cycle_penalty=0.0, ma_window=window
        )
        longer = run_experiment(cfg, tmp_path / "longer")
        assert self._check_final_fields(longer) == 60
        shorter = run_experiment(cfg.with_overrides(ma_window=100), tmp_path / "shorter")
        assert self._check_final_fields(shorter) == 60
        # stop at the best full-window mean: after the window fills, before the end
        header, rows = read_csv(longer.config.csv_path)
        under = [r[header.index("reward_underlying")] for r in rows]
        ends = range(window, len(under) + 1)
        best = max(math.fsum(under[i - window : i]) / window for i in ends)
        stopped = run_experiment(cfg, tmp_path / "stopped", underlying_threshold=best)
        assert stopped.stop_reason == "threshold"
        assert window < self._check_final_fields(stopped) < 60

    def test_running_mean_column_matches_exact_mean(self, tmp_path):
        cfg = preset("contention").with_overrides(steps=400, sample_every=100)
        res = run_experiment(cfg, tmp_path)
        header, rows = read_csv(res.config.csv_path)
        # recompute from an independent engine pass
        sim = Simulation(cfg)
        totals = [sim.step().total for _ in range(cfg.steps)]
        tick, mean = header.index("tick"), header.index("running_mean")
        assert len(rows) == 4
        for row in rows:
            t = int(row[tick])
            assert row[mean] == sum(totals[:t]) / t

    def test_unreached_threshold_changes_no_output(self, tmp_path):
        cfg = preset("braess1").with_overrides(steps=600, sample_every=1, ma_window=50)
        plain = run_experiment(cfg, tmp_path / "plain")
        # a braess1 tick costs something, so its reward never reaches 1
        armed = run_experiment(cfg, tmp_path / "armed", underlying_threshold=1.0)
        assert armed.ticks_to_threshold is None
        for name in (f"metrics-seed{cfg.seed}.csv", f"theta-seed{cfg.seed}.json"):
            assert (tmp_path / "armed" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()
        assert armed.final_row == plain.final_row
        assert armed.final_underlying_ma == plain.final_underlying_ma

    def test_no_crossing_before_the_window_fills(self, tmp_path):
        # unshaped six_node seed 3: some early samples score far better than
        # the mean of the first full window
        window = 30
        cfg = preset("six_node").with_overrides(
            steps=window * 100, seed=3, cycle_penalty=0.0, ma_window=window
        )
        header, rows = read_csv(run_experiment(cfg, tmp_path).config.csv_path)
        under = [r[header.index("reward_underlying")] for r in rows]
        assert len(under) == window
        threshold = max(under)
        best_sample = under.index(threshold) + 1
        assert best_sample < window and math.fsum(under) / window < threshold
        res = run_experiment(cfg, underlying_threshold=threshold)
        assert res.ticks_to_threshold is None
        # a window one sample longer than the run never fills
        longer = cfg.with_overrides(ma_window=window + 1)
        assert run_experiment(longer, underlying_threshold=-1e9).ticks_to_threshold is None
        # a full window at the very last sample counts
        full = run_experiment(cfg, underlying_threshold=-1e9)
        assert full.ticks_to_threshold == cfg.steps


class TestRunManifest:
    """run-seed<S>.json beside the CSV: one test per stop reason."""

    @staticmethod
    def manifest(path, seed):
        return json.loads((Path(path) / f"run-seed{seed}.json").read_text())

    def test_steps(self, tmp_path):
        cfg = preset("six_node").with_overrides(steps=300, seed=4)
        res = run_experiment(cfg, tmp_path)
        m = self.manifest(tmp_path, 4)
        digest = hashlib.sha256((tmp_path / "config-seed4.json").read_bytes()).hexdigest()
        assert m["config_sha256"] == digest
        assert (m["version"], m["seed"], m["steps"], m["steps_run"]) == (
            gradroute.__version__, 4, 300, 300
        )
        assert m["stop_reason"] == res.stop_reason == "steps"
        assert m["error"] is None
        assert m["wall_s"] > 0.0 and m["ticks_per_s"] == 300 / m["wall_s"]
        row = res.final_row
        generated = sum(cfg.traffic.rates) * 300
        assert m["counters"] == {
            "generated": generated,
            "delivered": row.delivered,
            "dropped": row.dropped,
            "cycles_detected": row.cycles,
            "in_flight": generated - row.delivered - row.dropped,
        }

    def test_threshold(self, tmp_path):
        cfg = preset("contention").with_overrides(steps=5_000, sample_every=10, ma_window=4)
        res = run_experiment(cfg, tmp_path, underlying_threshold=-1e9)
        m = self.manifest(tmp_path, cfg.seed)
        assert m["stop_reason"] == res.stop_reason == "threshold"
        assert m["steps_run"] == res.steps_run == res.ticks_to_threshold == 40
        assert m["steps"] == 5_000

    def test_load_diverged(self, tmp_path):
        cfg = livelock_config()
        with pytest.raises(LoadDiverged) as stop:
            run_experiment(cfg, tmp_path)
        m = self.manifest(tmp_path, cfg.seed)
        assert m["stop_reason"] == "load_diverged"
        assert m["error"] == str(stop.value)
        assert str(stop.value).startswith(f"load diverged at tick {m['steps_run']}: ")
        assert m["steps_run"] < m["steps"]
        assert m["counters"]["in_flight"] == 501  # one over the bound
        assert not (tmp_path / f"theta-seed{cfg.seed}.json").exists()

    def assert_error_at(self, tmp_path, cfg, stop, tick):
        """The run failed at `tick`: its manifest names the error, its CSV
        holds the header and every sample before the tick, and it wrote no
        theta."""
        m = self.manifest(tmp_path, cfg.seed)
        assert (m["stop_reason"], m["steps_run"], m["error"]) == ("error", tick, str(stop.value))
        header, rows = read_csv(tmp_path / f"metrics-seed{cfg.seed}.csv")
        assert header == column_names(cfg)
        assert [row[0] for row in rows] == list(range(cfg.sample_every, tick, cfg.sample_every))
        assert not (tmp_path / f"theta-seed{cfg.seed}.json").exists()

    def test_conservation_error(self, tmp_path, monkeypatch):
        real = engine.Simulation._step_link_delay

        def leaking(sim):
            stats = real(sim)
            if sim.tick_count == 57:
                sim.in_flight -= 1  # a packet lost without a drop
            return stats

        monkeypatch.setattr(engine.Simulation, "_step_link_delay", leaking)
        cfg = preset("six_node").with_overrides(steps=300, sample_every=10)
        with pytest.raises(SimulationError, match="conservation violated at tick 57") as stop:
            run_experiment(cfg, tmp_path)
        self.assert_error_at(tmp_path, cfg, stop, 57)

    def test_non_finite_reward(self, tmp_path, monkeypatch):
        real = engine.shaping_reward
        calls = 0

        def failing(cycles, drops, shaping_cfg):
            nonlocal calls
            calls += 1
            return math.nan if calls == 41 else real(cycles, drops, shaping_cfg)

        monkeypatch.setattr(engine, "shaping_reward", failing)
        cfg = preset("contention").with_overrides(steps=300, sample_every=10)
        with pytest.raises(ValueError, match="non-finite reward nan") as stop:
            run_experiment(cfg, tmp_path)
        self.assert_error_at(tmp_path, cfg, stop, 41)

    def test_overflowing_reward_window(self, tmp_path, capsys):
        """A config every validator accepts, whose sampled rewards overflow
        the reward moving average's window sum: the CLI stops the run as on
        a non-finite reward, with its manifest, no theta and one line."""
        doc = config_to_dict(preset("braess1"))
        doc["network"]["node_costs"]["C"]["base"] = 1e307
        doc["learner"]["gamma"] = 1e-320
        doc["run"]["sample_every"] = 1
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = load_config(path)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        message = "moving average: the window's sum overflows a float"
        assert capsys.readouterr().err == f"error: {message}\n"
        run_dir = tmp_path / "out" / f"over-seed{cfg.seed}"
        m = self.manifest(run_dir, cfg.seed)
        assert (m["stop_reason"], m["error"]) == ("error", message)
        header, rows = read_csv(run_dir / f"metrics-seed{cfg.seed}.csv")
        assert header == column_names(cfg)
        assert [row[0] for row in rows] == list(range(1, m["steps_run"]))
        assert not (run_dir / f"theta-seed{cfg.seed}.json").exists()

    def test_no_csv_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment(preset("contention").with_overrides(steps=100))
        assert list(tmp_path.iterdir()) == []


def cli_layout(kind, out, tmp_path, monkeypatch):
    """Run `kind` through the CLI into `out`: (its exit code, {each
    directory it wrote: (the config run there, its seeds)})."""
    cfg = preset("contention").with_overrides(steps=200, seed=3)
    if kind in ("load_diverged", "batch_diverged"):
        cfg = livelock_config()
    path = tmp_path / "c.json"
    save_config(cfg, path)
    if kind in ("run", "load_diverged"):
        code = cli_main(["run", str(path), "--out", str(out)])
        return code, {f"c-seed{cfg.seed}": (cfg, [cfg.seed])}
    if kind == "preset":
        argv = ["preset", "contention", "--steps", "200", "--seed", "4", "--out", str(out)]
        return cli_main(argv), {"contention-seed4": (cfg.with_overrides(seed=4), [4])}
    if kind in ("batch", "batch_diverged"):
        argv = ["batch", str(path), "--seeds", "1,2", "--out", str(out)]
        return cli_main(argv), {"c-batch": (cfg, [1, 2])}
    shrink(monkeypatch)
    code = cli_main(["reproduce", "triangle", "shaping_speedup", "--out", str(out)])
    return code, {
        Path("reproduce", name, arm).as_posix(): (arm_cfg, [1])  # "" names no arm
        for name in ("triangle", "shaping_speedup")
        for arm, arm_cfg in claims.CLAIMS[name].arms().items()
    }


class TestRunLayout:
    """Every directory a run is given holds the same files per seed,
    whichever command started it, its config first."""

    @pytest.mark.parametrize(
        "kind", ["run", "preset", "batch", "reproduce", "load_diverged", "batch_diverged"]
    )
    def test_each_directory_holds_the_config_each_manifest_names(
        self, kind, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        code, dirs = cli_layout(kind, out, tmp_path, monkeypatch)
        # a claim may fail on shrunk runs; a diverged run exits 2, a batch
        # with a diverged seed 1
        expected = {"reproduce": (0, 1), "load_diverged": (2,), "batch_diverged": (1,)}
        assert code in expected.get(kind, (0,))
        diverged = kind in ("load_diverged", "batch_diverged")
        if kind == "batch_diverged":  # no seed finished: nothing to aggregate
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[0] for line in lines[1:3]] == ["1", "2"]
            assert lines[-1] == "aggregate: median_ticks_to_threshold=-  mean_final_reward=-"
        written = {p.parent.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == set(dirs)
        for rel, (cfg, seeds) in dirs.items():
            d = out / rel
            names = ["config-seed{}.json", "metrics-seed{}.csv", "run-seed{}.json"]
            if not diverged:  # a run stopped by an error writes no theta
                names.append("theta-seed{}.json")
            assert sorted(p.name for p in d.iterdir()) == sorted(
                name.format(seed) for name in names for seed in seeds
            )
            for seed in seeds:
                saved = d / f"config-seed{seed}.json"
                m = json.loads((d / f"run-seed{seed}.json").read_text())
                assert m["config_sha256"] == hashlib.sha256(saved.read_bytes()).hexdigest()
                assert load_config(saved) == cfg._replace(
                    seed=seed,
                    csv_path=str(d / f"metrics-seed{seed}.csv"),
                    theta_path=str(d / f"theta-seed{seed}.json"),
                )
                if diverged:
                    assert m["stop_reason"] == "load_diverged"

    def test_output_paths_without_out_dir_save_no_config(self, tmp_path):
        cfg = preset("contention").with_overrides(steps=100)._replace(
            csv_path=str(tmp_path / "m.csv"), theta_path=str(tmp_path / "t.json")
        )
        run_experiment(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.csv", f"run-seed{cfg.seed}.json", "t.json"
        ]


class TestBatch:
    def test_single_seed_equals_single_run(self):
        cfg = preset("contention").with_overrides(steps=2_000)
        single = run_experiment(cfg.with_overrides(seed=9))
        b = batch(cfg, [9])
        assert list(b.runs) == [9]
        assert b.runs[9].final_running_mean == single.final_running_mean
        assert b.mean_final_reward == single.final_running_mean

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            batch(preset("contention"), [])

    def test_threshold_detection_and_censoring(self):
        cfg = preset("contention").with_overrides(steps=2_000)
        # impossible threshold: every run is censored at cfg.steps
        b = batch(cfg, [1, 2, 3], underlying_threshold=1.0)
        assert b.median_ticks_to_threshold == cfg.steps
        # trivially satisfied threshold: crossing once the window is full
        b2 = batch(cfg.with_overrides(ma_window=5), [1, 2], underlying_threshold=-1e9)
        assert b2.median_ticks_to_threshold == 5 * cfg.sample_every

    def test_diverged_seed_is_recorded_and_the_others_run(self, monkeypatch):
        real = harness.run_experiment
        ran = []

        def run(cfg, out, **kwargs):
            ran.append(cfg.seed)
            if cfg.seed == 2:
                raise LoadDiverged("load diverged at tick 7: 99 packets in flight")
            return real(cfg, out, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", run)
        cfg = preset("contention").with_overrides(steps=2_000, ma_window=5)
        b = batch(cfg, [1, 2, 3], underlying_threshold=-10.6)
        assert ran == [1, 2, 3]
        assert list(b.runs) == [1, 2, 3]
        assert b.runs[2] == "load diverged at tick 7: 99 packets in flight"
        assert list(b.finished) == [1, 3]
        done = list(b.finished.values())
        assert b.mean_final_reward == statistics.fmean(r.final_running_mean for r in done)
        assert b.median_ticks_to_threshold == statistics.median(r.steps_run for r in done)
        rows = b.table().splitlines()
        assert [row.split()[0] for row in rows[1:4]] == ["1", "2", "3"]
        assert rows[2] == "2     load diverged at tick 7: 99 packets in flight"
        assert rows[-1].startswith("aggregate: ")

    def test_bad_seed_refused_before_any_seed_runs(self, tmp_path):
        cfg = preset("contention").with_overrides(steps=100)
        with pytest.raises(ConfigError) as e:
            batch(cfg, [1, -3], out_dir=tmp_path / "batch")
        assert str(e.value) == "run.seed: must be an integer from 0 to 2**64 - 1, got -3"
        assert not any(tmp_path.iterdir())

    def test_repeated_seed_rejected(self):
        with pytest.raises(ValueError, match="seed 2 is given twice"):
            batch(preset("contention"), [1, 2, 2])

    def test_stop_at_threshold_shortens_run(self):
        cfg = preset("contention").with_overrides(steps=5_000, ma_window=3)
        res = run_experiment(cfg, underlying_threshold=-1e9)
        assert res.steps_run == 3 * cfg.sample_every


class TestCli:
    def test_preset_and_rerun_config(self, tmp_path, capsys):
        rc = cli_main(
            ["preset", "contention", "--steps", "400", "--seed", "3",
             "--gamma", "1e-5", "--out", str(tmp_path)]
        )
        assert rc == 0
        out_dir = tmp_path / "contention-seed3"
        assert (out_dir / "metrics-seed3.csv").exists()
        assert (out_dir / "theta-seed3.json").exists()
        saved = out_dir / "config-seed3.json"
        assert load_config(saved).learner.gamma == 1e-5
        # the saved config names the files above in its output section
        first = {p: p.read_bytes() for p in out_dir.iterdir()}

        # an explicit --out decides where a re-run writes
        rc = cli_main(["run", str(saved), "--out", str(tmp_path / "again")])
        assert rc == 0
        # the usual stem rule names the directory after the saved file
        again = tmp_path / "again" / "config-seed3-seed3"
        assert (again / "metrics-seed3.csv").exists()
        assert (again / "theta-seed3.json").exists()
        assert load_config(again / "config-seed3.json").csv_path == str(
            again / "metrics-seed3.csv"
        )

        # a batch writes each seed to its own files under --out
        rc = cli_main(["batch", str(saved), "--seeds", "1,2", "--out", str(tmp_path / "b")])
        assert rc == 0
        batch_dir = tmp_path / "b" / "config-seed3-batch"
        csvs = [(batch_dir / f"metrics-seed{s}.csv").read_bytes() for s in (1, 2)]
        assert csvs[0] != csvs[1]
        assert (batch_dir / "theta-seed2.json").exists()

        # without --out, a batch cannot give each seed the config's one path
        capsys.readouterr()
        assert cli_main(["batch", str(saved), "--seeds", "1,2"]) == 2
        assert "output.csv" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out_dir.iterdir()} == first

    def test_saved_config_names_files_beside_it(self, tmp_path, monkeypatch):
        # --out relative to the working directory: the saved config must
        # still name the run's files after a change of directory
        monkeypatch.chdir(tmp_path)
        argv = ["preset", "contention", "--steps", "50", "--seed", "4", "--out", "rel"]
        assert cli_main(argv) == 0
        run_dir = tmp_path / "rel" / "contention-seed4"
        files = [run_dir / "metrics-seed4.csv", run_dir / "theta-seed4.json"]
        first = [f.read_bytes() for f in files]
        for f in files:
            f.unlink()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        res = run_experiment(load_config(run_dir / "config-seed4.json"))
        assert [Path(res.config.csv_path), Path(res.config.theta_path)] == files
        assert [f.read_bytes() for f in files] == first
        assert not any(elsewhere.iterdir())

    def test_batch_cli(self, tmp_path, capsys):
        cfg = preset("contention").with_overrides(steps=300)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        rc = cli_main(["batch", str(path), "--seeds", "1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "median_ticks_to_threshold" in out and "mean_final_reward" in out

    def test_batch_threshold_ends_each_run(self, tmp_path, capsys):
        """A reachable threshold ends each seed's run at its first full
        window, and its manifest says so."""
        cfg = preset("contention").with_overrides(steps=5_000, ma_window=4)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        argv = ["batch", str(path), "--seeds", "1,2", "--threshold=-1e9"]
        assert cli_main([*argv, "--out", str(tmp_path / "D")]) == 0
        first_window = cfg.ma_window * cfg.sample_every
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[:2] for row in rows[1:3]] == [[s, str(first_window)] for s in "12"]
        for seed in (1, 2):
            m = json.loads((tmp_path / "D" / "c-batch" / f"run-seed{seed}.json").read_text())
            assert (m["stop_reason"], m["steps_run"]) == ("threshold", first_window)

    @pytest.mark.parametrize(
        "flags, problem",
        [
            (["--seeds", "a"], "--seeds takes comma-separated integers, got 'a'"),
            (["--seeds", "1,1"], "seed 1 is given twice"),
            (["--seeds", "1,2", "--threshold", "nan"], "--threshold must be a finite number"),
        ],
        ids=["seeds_not_integers", "seed_repeated", "nan_threshold"],
    )
    def test_batch_bad_flags(self, flags, problem, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_config(preset("contention").with_overrides(steps=50), path)
        assert cli_main(["batch", str(path), *flags, "--out", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_subcommands(self, capsys):
        assert cli_main(["oracle", "contention-reward", "0.25", "21"]) == 0
        assert capsys.readouterr().out.strip() == "-10.75"
        assert cli_main(["oracle", "contention-optimal", "21"]) == 0
        assert capsys.readouterr().out.strip() == "0.25"
        assert cli_main(["oracle", "braess-cost", "ACDB=2", "AEFB=2", "AEGDB=2"]) == 0
        assert capsys.readouterr().out.strip() == "92.0"
        assert cli_main(["oracle", "braess-expected", "0.5", "1.0"]) == 0
        assert capsys.readouterr().out.strip() == "88.5"
        assert cli_main(["oracle", "triangle-optimal"]) == 0
        assert capsys.readouterr().out.strip() == "-4.0"

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["contention-reward"], "takes 2 parameter(s), got 0"),
            (["braess-cost", "x"], "needs PATH=COUNT with a whole COUNT >= 0, got 'x'"),
            (["triangle-optimal", "1", "2", "3"], "takes 0 parameter(s), got 3"),
            (["braess-cost", "ACDB=6", "ACDB=0"], "names path ACDB twice"),
            (["contention-optimal", "21", "--braess0"], "does not take --braess0"),
            (["contention-optimal", "x"], "needs finite numbers, got 'x'"),
            (["contention-optimal", "nan"], "needs finite numbers, got 'nan'"),
            (["braess-cost"], "takes at least one parameter, got 0"),
        ],
        ids=[
            "contention_reward_no_params",
            "braess_cost_malformed",
            "triangle_optimal_extra",
            "braess_cost_repeated_path",
            "contention_optimal_braess0",
            "contention_optimal_not_a_number",
            "contention_optimal_nan",
            "braess_cost_no_params",
        ],
    )
    def test_oracle_bad_parameters(self, argv, problem, capsys):
        assert cli_main(["oracle", *argv]) == 2
        err = capsys.readouterr().err
        assert f"oracle {argv[0]} {problem}" in err
        assert f"usage: gradroute oracle {argv[0]}" in err

    @pytest.mark.parametrize("env", [None, "elsewhere/out"], ids=["unset", "set"])
    def test_default_output_dir(self, env, monkeypatch):
        if env is None:
            monkeypatch.delenv(harness.OUTPUT_DIR_ENV, raising=False)
        else:
            monkeypatch.setenv(harness.OUTPUT_DIR_ENV, env)
        assert harness.default_output_dir() == Path(env or "runs")

    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--gamma", "-1"]])
    def test_invalid_preset_override_writes_nothing(self, flags, tmp_path, capsys):
        out = tmp_path / "D"
        assert cli_main(["preset", "triangle", *flags, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_ma_window_past_a_deque_refused(self, tmp_path, capsys):
        """A window no deque can hold is refused by key at load, before any
        file is written."""
        doc = config_to_dict(preset("triangle").with_overrides(steps=50))
        doc["run"]["ma_window"] = sys.maxsize + 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: run.ma_window: must be an integer from 1 to {sys.maxsize}, "
            f"got {sys.maxsize + 1}\n"
        )
        assert not out.exists()

    def test_cyclic_node_flow_network_refused(self, tmp_path, capsys):
        # braess1 plus D->C: refused at load, before any file is written
        doc = config_to_dict(preset("braess1").with_overrides(steps=50))
        doc["network"]["links"].append({"from": "D", "to": "C", "delay": 1})
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert "directed cycle through node C" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert cli_main(["run", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["run", "."], "Is a directory: '.'"),
            (["preset", "triangle", "--steps", "10", "--out", "file"], "Not a directory: "),
        ],
    )
    def test_os_error_is_one_error_line(self, argv, problem, tmp_path, monkeypatch, capsys):
        """A directory given as the config, or --out under a regular file."""
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("")
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and problem in err and err.count("\n") == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gradroute.cli", "oracle", "triangle-optimal"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-4.0"

"""Workload configs for the benchmark, written as the JSON a `gradroute run`
user would hand the program.

The configs are frozen here instead of being derived from
`gradroute.presets`, so that a later change to a preset cannot silently
change what the benchmark measures. `perfbench/tests` checks that the
copies still load equal to the presets they were taken from.

Each workload has a fixed run length (`steps`); the simulation seed is
the only input that varies between runs. One benchmark seed stands for a
fixed number of simulation seeds, because what a run costs depends on
where learning takes it: on braess1 one seed settles on 3-hop paths and
another on 4-hop paths, which moves ticks/s by 15% and decisions per tick
by a third. A fixed-size mix of seeds per benchmark run keeps most of
that spread out of the figures, while every seed's outputs stay
individually checkable. braess1_fine, by far the most seed-sensitive
workload, mixes four times as many shorter runs.
"""
from __future__ import annotations

LETTERS6 = ["A", "B", "C", "D", "E", "F"]


def _uniform_destinations(labels: list[str], sources: list[str]) -> dict:
    others = {s: [d for d in labels if d != s] for s in sources}
    return {s: {d: 1.0 / len(ds) for d in ds} for s, ds in others.items()}


def six_node(seed: int) -> dict:
    """The paper's shaping preset: complete directed graph on 6 nodes,
    delay 1, 1 packet/node/tick to a uniform other node, cycle penalty
    -100 over a 2-node history, beta=0.9, gamma=1e-6, default sampling."""
    return {
        "network": {
            "cost_model": "link_delay",
            "nodes": LETTERS6,
            "links": [
                {"from": s, "to": d, "delay": 1, "capacity": None, "label": None}
                for s in LETTERS6
                for d in LETTERS6
                if s != d
            ],
        },
        "traffic": {
            "rates": {s: 1 for s in LETTERS6},
            "destinations": _uniform_destinations(LETTERS6, LETTERS6),
        },
        "learner": {"beta": 0.9, "gamma": 1e-6, "credit_current_tick": True},
        "shaping": {"cycle_penalty": -100.0, "history_length": 2, "drop_penalty": 0.0},
        "run": {
            "steps": 8_000,
            "seed": seed,
            "sample_every": 100,
            "ma_window": 1000,
            "tracked_probabilities": [],
        },
    }


BRAESS_NODES = ["A", "B", "C", "D", "E", "F", "G"]
BRAESS_LINKS = [("A", "C"), ("A", "E"), ("C", "D"), ("D", "B"), ("E", "F"),
                ("F", "B"), ("E", "G"), ("G", "D")]
BRAESS_COSTS = {
    "A": (0.0, 0.0), "B": (0.0, 0.0), "C": (50.0, 1.0), "D": (0.0, 10.0),
    "E": (0.0, 10.0), "F": (50.0, 1.0), "G": (10.0, 1.0),
}


def braess1_fine(seed: int) -> dict:
    """The braess1 preset (7-node node-cost network with the shortcut via G,
    6 packets/tick A->B, beta=0.99, gamma=1e-5) sampled every tick, as when
    watching the early collapse. The only node-flow workload, and the one
    where metrics sampling and CSV output carry most of the cost: with
    ma_window=1000 every sample is an fsum over 1000 values."""
    return {
        "network": {
            "cost_model": "node_flow",
            "nodes": BRAESS_NODES,
            "links": [
                {"from": s, "to": d, "delay": 1, "capacity": None, "label": None}
                for s, d in BRAESS_LINKS
            ],
            "node_costs": {
                n: {"base": b, "per_flow": p} for n, (b, p) in BRAESS_COSTS.items()
            },
        },
        "traffic": {"rates": {"A": 6}, "destinations": {"A": {"B": 1.0}}},
        "learner": {"beta": 0.99, "gamma": 1e-5, "credit_current_tick": True},
        "shaping": {"cycle_penalty": 0.0, "history_length": 2, "drop_penalty": 0.0},
        "run": {
            "steps": 3_000,
            "seed": seed,
            "sample_every": 1,
            "ma_window": 1000,
            "tracked_probabilities": [
                {"router": "A", "dest": "B", "link": "AC"},
                {"router": "E", "dest": "B", "link": "EF"},
            ],
        },
    }


RING_N = 60
RING_CHORD = 7
RING_SOURCES = (0, 15, 30, 45)


def ring_label(i: int) -> str:
    return f"n{i:02d}"


def ring60(seed: int) -> dict:
    """Synthetic scaling probe: 60 routers, links i->i+-1 and i->i+-7 (delay 1,
    no capacity), 1 packet/tick at each of nodes 0/15/30/45 to a uniform
    other node, beta=0.9, cycle penalty -100 over a 2-node history.

    gamma is 1e-9: at 1e-6 the policy falls into loops and the in-flight
    load grows without bound, so per-tick cost would depend on run length.
    At 1e-9 the load is steady (about 360 packets in flight) and all
    60x59 trace rows are active well before the run ends, which makes this
    the learner-dominated workload."""
    labels = [ring_label(i) for i in range(RING_N)]
    links = []
    for i in range(RING_N):
        for step in (1, -1, RING_CHORD, -RING_CHORD):
            links.append({
                "from": labels[i], "to": labels[(i + step) % RING_N],
                "delay": 1, "capacity": None, "label": None,
            })
    sources = [labels[s] for s in RING_SOURCES]
    return {
        "network": {"cost_model": "link_delay", "nodes": labels, "links": links},
        "traffic": {
            "rates": {s: 1 for s in sources},
            "destinations": _uniform_destinations(labels, sources),
        },
        "learner": {"beta": 0.9, "gamma": 1e-9, "credit_current_tick": True},
        "shaping": {"cycle_penalty": -100.0, "history_length": 2, "drop_penalty": 0.0},
        "run": {
            "steps": 600,
            "seed": seed,
            "sample_every": 100,
            "ma_window": 1000,
            "tracked_probabilities": [],
        },
    }


def contention(seed: int) -> dict:
    """The contention preset, used only by the tracer self-check: 2 packets
    per tick at A, each making exactly one routing decision."""
    return {
        "network": {
            "cost_model": "link_delay",
            "nodes": ["A", "B"],
            "links": [
                {"from": "A", "to": "B", "delay": 1, "capacity": 1, "label": "top"},
                {"from": "A", "to": "B", "delay": 6, "capacity": 2, "label": "bottom"},
            ],
        },
        "traffic": {"rates": {"A": 2}, "destinations": {"A": {"B": 1.0}}},
        "learner": {"beta": 0.99, "gamma": 1e-7, "credit_current_tick": True},
        "shaping": {"cycle_penalty": 0.0, "history_length": 2, "drop_penalty": 21.0},
        "run": {
            "steps": 2_000,
            "seed": seed,
            "sample_every": 100,
            "ma_window": 1000,
            "tracked_probabilities": [{"router": "A", "dest": "B", "link": "top"}],
        },
    }


# name -> (config builder, simulation seeds per benchmark seed)
WORKLOADS = {"six_node": (six_node, 4), "braess1_fine": (braess1_fine, 16),
             "ring60": (ring60, 4), "contention": (contention, 1)}


def sim_seeds(name: str, seed: int) -> list[int]:
    """The simulation seeds of benchmark seed `seed` (disjoint across seeds)."""
    k = WORKLOADS[name][1]
    return [seed * k + j for j in range(k)]


def build(name: str, seed: int, csv_path: str, theta_path: str) -> dict:
    """The config document for one workload run, with output paths set."""
    doc = WORKLOADS[name][0](seed)
    doc["output"] = {"csv": csv_path, "theta": theta_path}
    return doc

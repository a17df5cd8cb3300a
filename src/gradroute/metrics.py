"""Sampled run metrics and their CSV encoding.

One row is emitted every `sample_every` ticks (plus the final tick when
the run length is not a multiple). Schema, in fixed column order:

    tick,reward_total,reward_underlying,reward_shaping,reward_ma,
    running_mean,<one column per tracked probability>,delivered,dropped,cycles

* reward_* columns are the instantaneous values of the sampled tick.
* reward_ma is the exact mean of the last `ma_window` sampled
  reward_total values (fewer while the window fills); recomputing it
  offline from the reward_total column reproduces the column exactly.
* running_mean is the exact mean of the per-tick reward over *all* ticks
  so far, not just sampled ones.
* delivered/dropped/cycles are cumulative counters.
* probability columns are named p[<router>-><link>|dest=<node>].

Floats are written with repr, so equal runs produce byte-identical files.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TextIO

from .config import ExperimentConfig
from .network import Topology


@dataclass(frozen=True)
class MetricsRow:
    tick: int
    reward_total: float
    reward_underlying: float
    reward_shaping: float
    reward_ma: float
    running_mean: float
    probs: tuple[float, ...]
    delivered: int
    dropped: int
    cycles: int


class SampledMovingAverage:
    """Exact mean over the last `window` observed values (fsum each query,
    so offline recomputation matches bit for bit)."""

    def __init__(self, window: int):
        self.values: deque[float] = deque(maxlen=window)

    def push(self, value: float) -> float:
        self.values.append(value)
        return math.fsum(self.values) / len(self.values)


def probability_column_names(cfg: ExperimentConfig) -> list[str]:
    topo = cfg.topology
    return [
        f"p[{topo.label(tp.router)}->{topo.link_label(tp.link_index)}"
        f"|dest={topo.label(tp.dest)}]"
        for tp in cfg.tracked
    ]


def column_names(cfg: ExperimentConfig) -> list[str]:
    return (
        ["tick", "reward_total", "reward_underlying", "reward_shaping", "reward_ma",
         "running_mean"]
        + probability_column_names(cfg)
        + ["delivered", "dropped", "cycles"]
    )


def format_row(row: MetricsRow) -> str:
    fields = [
        str(row.tick),
        repr(row.reward_total),
        repr(row.reward_underlying),
        repr(row.reward_shaping),
        repr(row.reward_ma),
        repr(row.running_mean),
        *(repr(p) for p in row.probs),
        str(row.delivered),
        str(row.dropped),
        str(row.cycles),
    ]
    return ",".join(fields)


def write_header(fh: TextIO, cfg: ExperimentConfig) -> None:
    fh.write(",".join(column_names(cfg)) + "\n")


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Parse a metrics CSV back into (header, numeric rows)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [
            [float(x) for x in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return header, rows

"""Sampled run metrics and their CSV encoding.

One row is emitted every `sample_every` ticks (plus the final tick when
the run length is not a multiple). Schema, in fixed column order:

    tick,reward_total,reward_underlying,reward_shaping,reward_ma,
    running_mean,<one column per tracked probability>,delivered,dropped,cycles

* reward_* columns are the instantaneous values of the sampled tick.
* reward_ma is the mean of the last `ma_window` sampled reward_total
  values (fewer while the window fills): their correctly rounded sum,
  divided by their count. Recomputing it offline as
  math.fsum(window) / len(window) from the reward_total column
  reproduces the column exactly.
* running_mean is the mean of the per-tick reward over *all* ticks so
  far, not just sampled ones: a left-to-right float sum divided by the
  tick count, so it carries that sum's rounding.
* delivered/dropped/cycles are cumulative counters.
* probability columns are named p[<router>-><link>|dest=<node>].

Floats are written with repr, so equal runs produce byte-identical files.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple, TextIO

from .config import ExperimentConfig


class MetricsRow(NamedTuple):
    """One sampled row, in CSV column order (probs expand to one column
    each). Immutable."""

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


# every finite double is an integer multiple of 2**-1074
_UNIT = 1 << 1074


class SampledMovingAverage:
    """Mean over the last `window` pushed values, bit-identical to
    math.fsum(window) / len(window) at O(1) cost per push.

    The window's sum is kept exactly, as a Python int in units of
    2**-1074 (Kulisch's long accumulator): each pushed float is an
    integer multiple of that unit, so adding the new value's integer and
    subtracting the evicted one never rounds. Dividing the int by 2**1074
    is correctly rounded in CPython, and so is fsum (Shewchuk's exact
    expansion), so both give the same float: the exact sum, rounded once.
    The window holds the values as these ints. A window of only -0.0
    gives +0.0, as CPython 3.11's fsum does.

    One difference from fsum: fsum raises OverflowError when a partial
    sum leaves the float range even if the whole sum does not; this
    raises ValueError, naming the moving average, only when the rounded
    sum does not fit a float, as it does for a non-finite value, so a
    run stops on either as on any other bad reward.
    """

    def __init__(self, window: int):
        self.window = window
        self.units: deque[int] = deque()
        self.total = 0  # exact sum of self.units

    def push(self, value: float) -> float:
        try:
            n, d = value.as_integer_ratio()
        except (OverflowError, ValueError):
            raise ValueError(f"moving average: non-finite value {value!r}") from None
        # d is a power of two no larger than 2**1074
        u = n << (1075 - d.bit_length())
        units = self.units
        units.append(u)
        total = self.total + u
        if len(units) > self.window:
            total -= units.popleft()
        self.total = total
        try:
            return total / _UNIT / len(units)
        except OverflowError:
            raise ValueError("moving average: the window's sum overflows a float") from None


def probability_column_names(cfg: ExperimentConfig) -> list[str]:
    topo = cfg.topology
    return [
        f"p[{topo.label(topo.links[i].src)}->{topo.link_label(i)}|dest={topo.label(dest)}]"
        for dest, i in cfg.tracked
    ]


def column_names(cfg: ExperimentConfig) -> list[str]:
    return (
        ["tick", "reward_total", "reward_underlying", "reward_shaping", "reward_ma",
         "running_mean"]
        + probability_column_names(cfg)
        + ["delivered", "dropped", "cycles"]
    )


def format_row(row: MetricsRow) -> str:
    tick, total, underlying, shaping, ma, mean, probs, delivered, dropped, cycles = row
    prob_cols = "".join([f"{p!r}," for p in probs])
    return (
        f"{tick},{total!r},{underlying!r},{shaping!r},{ma!r},{mean!r},"
        f"{prob_cols}{delivered},{dropped},{cycles}"
    )


def write_header(fh: TextIO, cfg: ExperimentConfig) -> None:
    fh.write(",".join(column_names(cfg)) + "\n")


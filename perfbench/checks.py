"""Checks on the files a gradroute run writes, made from the files alone.

Each check raises CheckError naming what is wrong; the benchmark counts
such a run as failed.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import deque


class CheckError(Exception):
    """A run's output is not what the program promises."""


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_csv(path, steps: int, sample_every: int, ma_window: int,
              final_running_mean: float) -> int:
    """Verify the metrics CSV and return its number of data rows.

    * every row: reward_total == reward_underlying + reward_shaping exactly;
    * reward_ma recomputes exactly from the reward_total column (fsum over
      the last ma_window rows);
    * one row per sample_every ticks plus the final tick, ending at `steps`;
    * the last running_mean is the run's final running mean.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    try:
        col = {k: header.index(k) for k in (
            "tick", "reward_total", "reward_underlying", "reward_shaping",
            "reward_ma", "running_mean")}
    except ValueError as e:
        raise CheckError(f"csv header: {e}") from None
    window: deque[float] = deque(maxlen=ma_window)
    ticks = []
    row: list[str] = []
    for line in lines:
        row = line.split(",")
        tick = int(row[col["tick"]])
        total = float(row[col["reward_total"]])
        underlying = float(row[col["reward_underlying"]])
        shaping = float(row[col["reward_shaping"]])
        if not total == underlying + shaping:
            raise CheckError(
                f"tick {tick}: reward_total {total!r} != reward_underlying "
                f"{underlying!r} + reward_shaping {shaping!r}"
            )
        window.append(total)
        ma = float(row[col["reward_ma"]])
        if not ma == math.fsum(window) / len(window):
            raise CheckError(
                f"tick {tick}: reward_ma {ma!r} does not recompute from reward_total"
            )
        ticks.append(tick)
    expected = list(range(sample_every, steps + 1, sample_every))
    if not expected or expected[-1] != steps:
        expected.append(steps)
    if ticks != expected:
        raise CheckError(
            f"sampled ticks {ticks[:3]}..{ticks[-3:]} ({len(ticks)} rows) are not "
            f"every {sample_every} ticks up to {steps}"
        )
    last = float(row[col["running_mean"]])
    if not last == final_running_mean:
        raise CheckError(
            f"last running_mean {last!r} != final running mean {final_running_mean!r}"
        )
    return len(lines)


def check_theta(path) -> None:
    """Every logit in the theta JSON is a finite number."""
    with open(path, encoding="utf-8") as fh:
        theta = json.load(fh)
    stack = [("theta", theta)]
    n = 0
    while stack:
        where, v = stack.pop()
        if isinstance(v, dict):
            stack.extend((f"{where}.{k}", x) for k, x in v.items())
        elif isinstance(v, list):
            stack.extend((f"{where}[{i}]", x) for i, x in enumerate(v))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            if not math.isfinite(v):
                raise CheckError(f"{where}: non-finite logit {v!r}")
            n += 1
        else:
            raise CheckError(f"{where}: unexpected value {v!r}")
    if n == 0:
        raise CheckError("theta holds no logits")

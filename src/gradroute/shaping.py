"""Reward shaping: cycle detection against a bounded visit history, and
drop penalties. Shaping is added on top of the underlying performance
reward; both components are reported separately every tick.
"""
from __future__ import annotations

import sys
from collections import deque
from math import inf
from typing import NamedTuple

from .network import _is_int, _number_rule


class ShapingConfig(NamedTuple):
    cycle_penalty: float = 0.0  # <= 0, added once per detected cycle
    history_length: int = 2  # H, nodes remembered per packet
    drop_penalty: float = 0.0  # >= 0, subtracted per dropped packet

    def validate(self) -> list[str]:
        """The violations of the shaping rules, as `shaping.<key>: <problem>`."""
        h = self.history_length
        v = _number_rule(
            "shaping.cycle_penalty", self.cycle_penalty, lambda c: -inf < c <= 0,
            "must be finite and <= 0",
        )
        # a packet's visit history is a deque, whose maxlen is at most sys.maxsize
        if not (_is_int(h) and 1 <= h <= sys.maxsize):
            v.append(
                f"shaping.history_length: must be an integer from 1 to {sys.maxsize}, got {h!r}"
            )
        return v + _number_rule("shaping.drop_penalty", self.drop_penalty)


def detect_cycle(history: deque, arriving_at: int) -> bool:
    """True iff a packet's visit history, the maxlen-H deque of the nodes it
    last visited, holds `arriving_at`; the window is then advanced by
    pushing the arrival node.

    The window deliberately misses cycles longer than H between revisits
    (an A-B-C-A loop evades H=2); history is never reset on detection.
    """
    hit = arriving_at in history
    history.append(arriving_at)  # deque with maxlen=H evicts the oldest
    return hit


def shaping_reward(cycles: int, drops: int, cfg: ShapingConfig) -> float:
    """Total shaping component for a tick: linear in both counts."""
    if cycles < 0 or drops < 0:
        raise ValueError("counts must be non-negative")
    return cycles * cfg.cycle_penalty - drops * cfg.drop_penalty

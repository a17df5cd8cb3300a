"""Reward shaping: cycle detection against a bounded visit history, and
drop penalties. Shaping is added on top of the underlying performance
reward; both components are reported separately every tick.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .network import _is_int

if TYPE_CHECKING:
    from .engine import Packet


class ShapingConfig(NamedTuple):
    cycle_penalty: float = 0.0  # <= 0, added once per detected cycle
    history_length: int = 2  # H, nodes remembered per packet
    drop_penalty: float = 0.0  # >= 0, subtracted per dropped packet

    def validate(self) -> list[str]:
        """The violations of the shaping rules, as `shaping.<key>: <problem>`."""
        cycle, h, drop = self.cycle_penalty, self.history_length, self.drop_penalty
        v = []
        if not -math.inf < cycle <= 0:
            v.append(f"shaping.cycle_penalty: must be finite and <= 0, got {cycle!r}")
        if not (_is_int(h) and h >= 1):
            v.append(f"shaping.history_length: must be an integer >= 1, got {h!r}")
        if not 0 <= drop < math.inf:
            v.append(f"shaping.drop_penalty: must be finite and >= 0, got {drop!r}")
        return v


def detect_cycle(packet: "Packet", arriving_at: int) -> bool:
    """True iff the packet already visited `arriving_at` within its last-H
    window; the window is then advanced by pushing the arrival node.

    The window deliberately misses cycles longer than H between revisits
    (an A-B-C-A loop evades H=2); history is never reset on detection.
    """
    history = packet.history
    hit = arriving_at in history
    history.append(arriving_at)  # deque with maxlen=H evicts the oldest
    return hit


def shaping_reward(cycles: int, drops: int, cfg: ShapingConfig) -> float:
    """Total shaping component for a tick: linear in both counts."""
    if cycles < 0 or drops < 0:
        raise ValueError("counts must be non-negative")
    return cycles * cfg.cycle_penalty - drops * cfg.drop_penalty

"""Online policy-gradient learner state, one instance per router.

The rule is OLPOMDP (Baxter & Bartlett 2001). Per tick, the log-policy
gradients of the tick's routing decisions are folded into an
exponentially discounted eligibility trace (z <- beta*z + sum of
gradients), and the globally shared tick reward is then applied as
theta <- theta + gamma * r * z. Several decisions in one tick accumulate
additively into the trace.

By default the reward of tick t multiplies the trace *after* tick-t
decisions were folded in, so a penalty incurred in the same tick as the
decision that caused it (e.g. a drop) credits that decision. Set
credit_current_tick=False to apply the reward against the pre-decision
trace instead.

The update is applied lazily (Carpenter 2008, "Lazy sparse stochastic
gradient descent", applied to traces), so a tick costs O(1) per router
plus O(width) per row that received a gradient, not O(active rows):

* each trace stores its rows scaled, z = scale * rows[y], and decays by
  multiplying the one scalar `scale` by beta;
* `acc` is the running sum of gamma * r * scale over the ticks, so the
  credit a row is owed since tick u is (acc_now - acc_u) * rows[y];
* `mark[y]` is the value of acc when theta[y] was last brought up to date.

theta[y] is therefore current only after settle(): the engine settles a
row before sampling from it, and anything else that reads logits goes
through settle() or settle_all(). When scale falls below RESCALE_BELOW,
every row is settled, the scale is folded into the rows, and scale, acc
and the marks restart from 1, 0 and 0. The threshold is set for
accuracy, not only against underflow: the rounding error of acc - mark
grows as 1/scale. Over 20k ticks of sparse decisions the lazy rule
agrees with the dense one to better than 1e-12 relative at 1e-3, but
only to ~5e-10 at 1e-6.

beta = 0 keeps the trace unscaled (scale would be 0) and is applied
densely; it is memoryless, so only the rows of the last tick's decisions
are active.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .policy import ParamTable


class StepSchedule(Enum):
    CONSTANT = "constant"


@dataclass(frozen=True)
class LearnerConfig:
    beta: float = 0.99
    gamma: float = 1e-5
    schedule: StepSchedule = StepSchedule.CONSTANT
    credit_current_tick: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


# rescale a trace once its decay scale falls below this (see module doc)
RESCALE_BELOW = 1e-3


class EligibilityTrace:
    """Discounted gradient accumulator shaped like a ParamTable, stored
    scaled: the true trace row is scale * rows[y].

    `active` tracks rows that received a gradient; rows outside it are
    exactly zero, so rescaling and settling may skip them. `acc` and
    `mark` hold the reward credit not yet applied to theta (module doc).
    """

    __slots__ = ("rows", "active", "scale", "acc", "mark")

    def __init__(self, table: ParamTable):
        self.rows: dict[int, list[float]] = {
            y: [0.0] * table.n_links for y in table.rows
        }
        self.active: set[int] = set()
        self.scale = 1.0
        self.acc = 0.0
        self.mark: dict[int, float] = {}


def settle(table: ParamTable, trace: EligibilityTrace, dest: int) -> list[float]:
    """Apply the credit row `dest` is owed and return its current logits."""
    row = table.rows[dest]
    acc = trace.acc
    mark = trace.mark
    d = acc - mark.get(dest, acc)
    if d != 0.0:
        for i, y in enumerate(trace.rows[dest]):
            row[i] += d * y
        mark[dest] = acc
    return row


def settle_all(table: ParamTable, trace: EligibilityTrace) -> None:
    """Bring every logit row of the table up to date."""
    for y in trace.active:
        settle(table, trace, y)


def _rescale(table: ParamTable, trace: EligibilityTrace) -> None:
    settle_all(table, trace)
    s = trace.scale
    zrows = trace.rows
    for y in trace.active:
        row = zrows[y]
        for i, v in enumerate(row):
            row[i] = v * s
    trace.scale = 1.0
    trace.acc = 0.0
    trace.mark = dict.fromkeys(trace.active, 0.0)


def _credit_unscaled(table: ParamTable, trace: EligibilityTrace, gr: float) -> None:
    if gr != 0.0:
        for y in trace.active:
            trow = table.rows[y]
            for i, z in enumerate(trace.rows[y]):
                trow[i] += gr * z


def _memoryless_update(
    table: ParamTable,
    trace: EligibilityTrace,
    credit_current_tick: bool,
    grads: Iterable[tuple[int, list[float]]],
    gr: float,
) -> None:
    """beta = 0: the trace is just this tick's gradient sum, kept unscaled."""
    zrows = trace.rows
    active = trace.active
    if not credit_current_tick:
        _credit_unscaled(table, trace, gr)
    for y in active:
        row = zrows[y]
        for i in range(len(row)):
            row[i] = 0.0
    active.clear()
    for dest, g in grads:
        row = zrows.get(dest)
        if row is None:
            raise ValueError(f"gradient for unknown destination row {dest}")
        for i, gi in enumerate(g):
            row[i] += gi
        active.add(dest)
    if credit_current_tick:
        _credit_unscaled(table, trace, gr)


def tick_update(
    table: ParamTable,
    trace: EligibilityTrace,
    cfg: LearnerConfig,
    grads: Iterable[tuple[int, list[float]]],
    reward: float,
) -> None:
    """One full per-tick update in the configured order, applied lazily.

    grads is a sequence of (destination, gradient-vector) pairs, one per
    routing decision this router made in the tick. Only the rows in grads
    are touched: each is settled, gets the sum of its gradients and is
    credited with this tick's reward in one pass; every other row is owed
    its credit through trace.acc until its next settle. The simulation
    calls this once per router per tick.
    """
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    gr = cfg.gamma * reward
    if cfg.beta == 0.0:
        _memoryless_update(table, trace, cfg.credit_current_tick, grads, gr)
        return
    s_prev = trace.scale
    s = s_prev * cfg.beta
    if cfg.credit_current_tick:
        c = gr * s  # credit per unit of this tick's new (scaled) gradient
        acc = trace.acc + c
    else:
        c = 0.0
        acc = trace.acc + gr * s_prev
    if grads:
        by_dest: dict[int, list[list[float]]] = {}
        for dest, g in grads:
            glist = by_dest.get(dest)
            if glist is None:
                by_dest[dest] = [g]
            else:
                glist.append(g)
        inv = 1.0 / s
        zrows = trace.rows
        trows = table.rows
        marks = trace.mark
        active = trace.active
        for dest, glist in by_dest.items():
            zrow = zrows.get(dest)
            if zrow is None:
                raise ValueError(f"gradient for unknown destination row {dest}")
            trow = trows[dest]
            # settle the row as it stood before this tick's gradient (this
            # tick's credit included), add the gradient and credit it
            d = acc - marks.get(dest, acc)
            if len(glist) == 1:
                for i, gi in enumerate(glist[0]):
                    gi *= inv
                    y = zrow[i]
                    zrow[i] = y + gi
                    trow[i] += d * y + c * gi
            else:
                for i in range(len(zrow)):
                    gi = 0.0
                    for g in glist:
                        gi += g[i]
                    gi *= inv
                    y = zrow[i]
                    zrow[i] = y + gi
                    trow[i] += d * y + c * gi
            marks[dest] = acc
            active.add(dest)
    trace.scale = s
    trace.acc = acc
    if s < RESCALE_BELOW:
        _rescale(table, trace)


@dataclass
class RunningAverageReward:
    """Exact arithmetic mean of every per-tick reward seen so far."""

    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def observe_reward(avg: RunningAverageReward, reward: float) -> RunningAverageReward:
    avg.count += 1
    avg.total += reward
    return avg

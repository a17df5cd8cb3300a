"""The dense eligibility-trace update, kept as the reference that the lazy
rule in gradroute.learner is tested against.

Every tick the dense rule decays every active trace row by beta, adds the
tick's decision gradients and credits every active row with the tick's
reward: O(active rows) per router per tick. An EligibilityTrace used with
these functions holds the true trace z in `rows` (its scale stays 1).
"""
from __future__ import annotations

import math
from typing import Iterable

from gradroute.learner import EligibilityTrace, LearnerConfig
from gradroute.policy import ParamTable


def begin_tick_accumulate(
    trace: EligibilityTrace,
    cfg: LearnerConfig,
    grads: Iterable[tuple[int, list[float]]],
) -> EligibilityTrace:
    """Decay the trace by beta, then add this tick's decision gradients.

    grads is a sequence of (destination, gradient-vector) pairs, one per
    routing decision this router made in the tick; an empty sequence just
    decays. Mutates and returns `trace`.
    """
    beta = cfg.beta
    if beta == 0.0:
        for y in trace.active:
            row = trace.rows[y]
            for i in range(len(row)):
                row[i] = 0.0
        trace.active.clear()
    else:
        for y in trace.active:
            row = trace.rows[y]
            for i in range(len(row)):
                row[i] *= beta
    for dest, g in grads:
        try:
            row = trace.rows[dest]
        except KeyError:
            raise ValueError(f"gradient for unknown destination row {dest}") from None
        if len(g) != len(row):
            raise ValueError(
                f"gradient length {len(g)} does not match row width {len(row)}"
            )
        for i, gi in enumerate(g):
            row[i] += gi
        trace.active.add(dest)
    return trace


def apply_reward(
    table: ParamTable, trace: EligibilityTrace, cfg: LearnerConfig, reward: float
) -> ParamTable:
    """theta <- theta + gamma * reward * z, element-wise. Mutates `table`."""
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    if reward != 0.0:
        gr = cfg.gamma * reward
        for y in trace.active:
            zrow = trace.rows[y]
            trow = table.rows[y]
            for i, z in enumerate(zrow):
                trow[i] += gr * z
    return table


def dense_tick_update(
    table: ParamTable,
    trace: EligibilityTrace,
    cfg: LearnerConfig,
    grads: Iterable[tuple[int, list[float]]],
    reward: float,
) -> None:
    """One tick of the dense rule, in the order cfg.credit_current_tick sets."""
    if cfg.credit_current_tick:
        begin_tick_accumulate(trace, cfg, grads)
        apply_reward(table, trace, cfg, reward)
    else:
        apply_reward(table, trace, cfg, reward)
        begin_tick_accumulate(trace, cfg, grads)


def true_trace(trace: EligibilityTrace) -> dict[int, list[float]]:
    """The trace a lazily updated EligibilityTrace stands for: scale * rows."""
    return {y: [trace.scale * v for v in row] for y, row in trace.rows.items()}

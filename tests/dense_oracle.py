"""The dense eligibility-trace update, kept as the reference that the lazy
rule in gradroute.learner is tested against, and the reference sampler.

Every tick the dense rule decays every active trace row by beta, adds the
tick's decision gradients and credits every active row with the tick's
reward: O(active rows) per router per tick. An EligibilityTrace used with
these functions holds the true trace z in `rows` (its scale stays 1).
"""
from __future__ import annotations

import math
from random import Random
from typing import Iterable

from gradroute.learner import EligibilityTrace, LearnerConfig
from gradroute.policy import draw_table


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
    table: dict[int, list[float]], trace: EligibilityTrace, cfg: LearnerConfig, reward: float
) -> dict[int, list[float]]:
    """theta <- theta + gamma * reward * z, element-wise, on one router's
    logit rows by destination. Mutates `table`."""
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    if reward != 0.0:
        gr = cfg.gamma * reward
        for y in trace.active:
            zrow = trace.rows[y]
            trow = table[y]
            for i, z in enumerate(zrow):
                trow[i] += gr * z
    return table


def dense_tick_update(
    table: dict[int, list[float]],
    trace: EligibilityTrace,
    cfg: LearnerConfig,
    grads: Iterable[tuple[int, list[float]]],
    reward: float,
) -> None:
    """One tick of the dense rule: the tick's gradients, then its reward."""
    begin_tick_accumulate(trace, cfg, grads)
    apply_reward(table, trace, cfg, reward)


def gibbs_weights(logits: list[float]) -> tuple[list[float], float, list[float]]:
    """Sampling weights of a logit row, the record learner.sampling_weights
    makes: the max-subtracted exponentials, their total and draw table."""
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    return draw_table(exps)


def decision_gradient(
    weights: tuple[list[float], float, list[float]], slot: int
) -> list[float]:
    """Log-policy gradient of drawing `slot` from `weights`, built the way
    the learner forms it: -e/total per slot, then 1 added at the drawn slot."""
    exps, total, _ = weights
    g = [-e / total for e in exps]
    g[slot] += 1.0
    return g


def sample_slot(probs: list[float], rng: Random) -> int:
    """Inverse-CDF draw over the ordered slots; consumes exactly one uniform.
    The engines make the same draw over the unnormalised weights, with the
    uniform scaled by their sum."""
    u = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for slot, p in enumerate(probs):
        acc += p
        if u < acc:
            return slot
    return last


def true_trace(trace: EligibilityTrace) -> dict[int, list[float]]:
    """The trace a lazily updated EligibilityTrace stands for: scale * rows."""
    return {y: [trace.scale * v for v in row] for y, row in trace.rows.items()}

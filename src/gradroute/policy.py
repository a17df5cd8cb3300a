"""Gibbs (softmax) routing policy: the logit rows and their readers.

Each router holds one logit row per destination, with one column per
outgoing link in declaration order; the network's rows live in one dict
keyed by the flat row id router * N + destination. Routing a packet
destined for y samples a link slot from softmax(theta[y]). The engine
samples from the weights that learner.sampling_weights records, and
learner.tick_update forms the gradient of each draw.
"""
from __future__ import annotations

import math
from operator import add
from typing import Sequence

from .network import Topology

# strict positivity floor: keeps every action probability non-zero even
# for extreme logit spreads, so any log of a probability stays finite
_PROB_FLOOR = 1e-300


def make_tables(topology: Topology) -> dict[int, list[float]]:
    """Every logit row of the network by flat row id router * N +
    destination: one row, of zero logits (uniform routing), for every
    other node at each node that has an outgoing link."""
    n = topology.n_nodes
    widths = map(len, topology.out_links())
    return {r * n + y: [0.0] * w for r, w in enumerate(widths) if w for y in range(n) if y != r}


def draw_table(weights: Sequence[float]) -> tuple[Sequence[float], float, list[float]]:
    """Inverse-CDF table of non-negative weights: (weights, total, cum),
    where cum holds their running sums and total the last of them, after
    which cum's last entry is set to +inf. bisect_right(cum, u * total), u
    in [0, 1), picks the first slot whose running sum exceeds u * total, or
    the last slot when rounding puts u * total at or past the total."""
    cum = []
    total = 0.0
    for w in weights:  # a plain loop: faster than accumulate on short rows
        total += w
        cum.append(total)
    cum[-1] = math.inf
    return weights, total, cum


def softmax_row(logits: list[float]) -> list[float]:
    """Max-subtracted softmax over one logit row, each probability floored
    at _PROB_FLOOR (a NaN stays NaN). The exponentials are totalled by a
    plain left-to-right loop, not the builtin sum, which compensates its
    rounding from CPython 3.12 on: the same row gives the same floats on
    every supported interpreter."""
    exp = math.exp
    m = max(logits)
    exps = [exp(v - m) for v in logits]
    s = 0.0
    for e in exps:
        # operator.add, not +=: the sign of NaN + NaN may change once the
        # interpreter specialises +=, and this one C addition never does
        s = add(s, e)
    # max(p, _PROB_FLOOR) without the call: the floor only where it is larger
    return [_PROB_FLOOR if _PROB_FLOOR > (p := e / s) else p for e in exps]


def snapshot(rows: dict[int, list[float]], topology: Topology) -> dict:
    """Logits export: {router label: {destination label: [logits]}}. It
    holds the lists of `rows` themselves, so give it lists of its own."""
    label = topology.label
    out: dict = {}
    for row_id, row in sorted(rows.items()):
        router, y = divmod(row_id, topology.n_nodes)
        out.setdefault(label(router), {})[label(y)] = row
    return out

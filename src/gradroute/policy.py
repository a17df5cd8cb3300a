"""Gibbs (softmax) routing policy: the logit tables and their readers.

Each router holds one logit row per destination, with one column per
outgoing link in declaration order. Routing a packet destined for y
samples a link slot from softmax(theta[y]). The engine samples from the
weights that learner.sampling_weights records, and learner.tick_update
forms the gradient of each draw.
"""
from __future__ import annotations

import math
from typing import Sequence

from .network import Topology

# strict positivity floor: keeps every action probability non-zero even
# for extreme logit spreads, so any log of a probability stays finite
_PROB_FLOOR = 1e-300


class ParamTable:
    """Logit table of one router: rows[destination] -> list of slot logits."""

    __slots__ = ("router", "n_links", "rows")

    def __init__(self, router: int, n_links: int, destinations: list[int]):
        self.router = router
        self.n_links = n_links
        # zero logits = uniform routing at the start
        self.rows: dict[int, list[float]] = {y: [0.0] * n_links for y in destinations}


def make_tables(topology: Topology) -> dict[int, ParamTable]:
    """One table per node that has at least one outgoing link, with a row
    for every other node."""
    tables = {}
    for node in range(topology.n_nodes):
        n_out = len(topology.out_link_indices(node))
        if n_out == 0:
            continue
        dests = [y for y in range(topology.n_nodes) if y != node]
        tables[node] = ParamTable(node, n_out, dests)
    return tables


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
    at _PROB_FLOOR (a NaN stays NaN)."""
    exp = math.exp
    m = max(logits)
    exps = [exp(v - m) for v in logits]
    s = sum(exps)
    # max(p, _PROB_FLOOR) without the call: the floor only where it is larger
    return [_PROB_FLOOR if _PROB_FLOOR > (p := e / s) else p for e in exps]


def snapshot(tables: dict[int, ParamTable], topology: Topology) -> dict:
    """Read-only logits export: {router label: {destination label: [logits]}}."""
    return {
        topology.label(router): {
            topology.label(y): list(row) for y, row in sorted(table.rows.items())
        }
        for router, table in sorted(tables.items())
    }

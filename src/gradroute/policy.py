"""Gibbs (softmax) routing policy and its log-likelihood gradient.

Each router holds one logit row per destination, with one column per
outgoing link in declaration order. Routing a packet destined for y
samples a link slot from softmax(theta[y]); the log-policy gradient of
that draw restricted to row y is indicator(u) - probs(u), which sums to
zero over the slots of the row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .network import Topology

# strict positivity floor: keeps every action probability non-zero even
# for extreme logit spreads, so any log of a probability stays finite
_PROB_FLOOR = 1e-300


class PolicyError(ValueError):
    pass


class ParamTable:
    """Logit table of one router: rows[destination] -> list of slot logits."""

    __slots__ = ("router", "n_links", "rows")

    def __init__(self, router: int, n_links: int, destinations: list[int]):
        self.router = router
        self.n_links = n_links
        # zero logits = uniform routing at the start
        self.rows: dict[int, list[float]] = {y: [0.0] * n_links for y in destinations}

    def row(self, destination: int) -> list[float]:
        try:
            return self.rows[destination]
        except KeyError:
            raise PolicyError(
                f"router {self.router} has no policy row for destination {destination}"
            ) from None


@dataclass(frozen=True)
class RoutingDecision:
    router: int
    destination: int
    slot: int
    tick: int = 0


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


def softmax_row(logits: list[float]) -> list[float]:
    """Max-subtracted softmax over one logit row."""
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    s = sum(exps)
    return [max(e / s, _PROB_FLOOR) for e in exps]


def action_probabilities(table: ParamTable, destination: int) -> list[float]:
    """Probability of each outgoing-link slot for packets destined `destination`."""
    return softmax_row(table.row(destination))


def sample_slot(probs: list[float], rng: Random) -> int:
    """Inverse-CDF draw over the ordered slots; consumes exactly one uniform."""
    u = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for slot, p in enumerate(probs):
        acc += p
        if u < acc:
            return slot
    return last


def sample_link(
    table: ParamTable, destination: int, rng: Random, tick: int = 0
) -> RoutingDecision:
    probs = action_probabilities(table, destination)
    return RoutingDecision(table.router, destination, sample_slot(probs, rng), tick)


def log_policy_gradient(table: ParamTable, destination: int, slot: int) -> list[float]:
    """Gradient of log mu(slot) w.r.t. the logits of row `destination`.

    Component u is indicator(u == slot) - probs[u]; all other rows of the
    table have zero gradient and are not represented.
    """
    probs = action_probabilities(table, destination)
    if not 0 <= slot < len(probs):
        raise PolicyError(f"slot {slot} out of range for {len(probs)} outgoing links")
    return [(1.0 - p) if u == slot else -p for u, p in enumerate(probs)]


def snapshot(tables: dict[int, ParamTable], topology: Topology) -> dict:
    """Read-only logits export: {router label: {destination label: [logits]}}."""
    return {
        topology.label(router): {
            topology.label(y): list(row) for y, row in sorted(table.rows.items())
        }
        for router, table in sorted(tables.items())
    }

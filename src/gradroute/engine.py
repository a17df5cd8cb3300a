"""Discrete-time network simulation where every router learns online.

Two engine modes share the learner plumbing:

* link-delay transit (queued): every tick runs a fixed phase order --
  (1) take the tick's arrivals, each at the node it carries, (2) deliver
  arrivals that reached their destination, scoring -(trip time) each,
  (3) generate new traffic, (4) route everything that needs a decision
  in (node id, packet id) order, with cycle detection at arrival and
  capacity drops at placement (a link without a capacity counts none);
  a placed packet carries its next node to its arrival tick's bucket,
  (5) hand the tick's decisions and reward to the learner, (6) emit
  per-tick stats.

* node-flow traversal (synchronous): each generated packet walks its
  whole source-to-destination path within the tick, one policy sample
  per hop; node costs are evaluated at the per-tick node flows produced
  jointly by all packets, so congestion externalities act within a tick.
  Validation refuses a node-flow network with a directed cycle, so every
  walk ends.

A routing decision is recorded as a (row, slot) pair; row is the flat id
router * N + destination of the logit row, its index in the row table,
which only this module lays out (make_tables) or decodes
(theta_by_router). The first packet a router routes for a destination in
a tick reads the row through learner.sampling_weights, which settles it
and records its Gibbs weights in the trace; later packets reuse them.
Each kernel ends its tick with one tick_update call, which takes every
decision of the network and the shared reward. The whole network has one learner state and one trace
clock: every router gets the same reward, so per-router clocks would be
N identical copies. A router still reads and writes only its own rows,
and the clock depends on the global reward alone, so sharing it is no
communication between routers.

Every draw bisects a draw table (running sums of non-negative weights,
the last set to +inf) with one uniform u: a slot is
bisect_right(cum, u * total) over the row's weights, a new packet's
destination bisect_right(cum, u) over its source's destination
probabilities, cut after the last positive one so that it can be drawn.

A router with one out-link has nothing to choose: its Gibbs policy puts
probability 1 on slot 0 and its log-policy gradient is exactly zero, so
its logits never move. Both kernels forward a packet at such a node
without reading the policy: they skip sampling_weights and the draw,
use slot 0, and still record the decision (row, 0), which the
learner checks and otherwise ignores. They do still take the one
uniform that a draw over the one-slot row would take, and discard it:
the stream of draws, and so every later draw and every output, stays
what it is when every hop samples.

Both modes update the learner lazily (see gradroute.learner): a tick
touches only the trace rows that received a gradient, and every other
logit row is owed its share of the reward until the learner next
settles it. Outside code reads logits through `theta_by_router()` and
tracked probabilities through `probabilities()`, never through the rows
directly. Both apply the owed credit through learner.current_logits or
learner.current_probability and write nothing, so a run ends in the
same state however often, and whichever rows, it is read.

A simulation is single-threaded, owns a single seeded random stream, and
is a deterministic function of (config, seed). The per-tick conservation
invariant (generated == delivered + dropped + in-flight, cumulatively) is
checked every tick and any violation aborts the run.

A loop-free trip takes fewer than N x (longest link delay) ticks, so by
Little's law packets on loop-free routes keep fewer than total rate x
that in flight; a run whose load passes LOAD_FACTOR times that bound has
packets caught in routing loops, and stops with LoadDiverged.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate
from math import inf
from random import Random
from typing import Iterator, NamedTuple

from .config import ExperimentConfig
from .learner import (
    EligibilityTrace,
    Rows,
    current_logits,
    current_probability,
    sampling_weights,
    tick_update,
)
from .network import CostModel, Topology
from .shaping import detect_cycle, shaping_reward


LOAD_FACTOR = 100  # times the loop-free load bound (module doc)


def make_tables(topology: Topology) -> Rows:
    """Every logit row of the network in one list of N * N entries, indexed
    by flat row id router * N + destination: a row of zero logits (uniform
    routing) for every other node at each node that has an outgoing link,
    and None on the diagonal and at a node with none."""
    n = topology.n_nodes
    rows: Rows = [None] * (n * n)
    for r, links in enumerate(topology.out_links()):
        if links:
            w = len(links)
            for y in range(n):
                if y != r:
                    rows[r * n + y] = [0.0] * w
    return rows


class SimulationError(RuntimeError):
    """Internal invariant violation or broken run precondition."""


class LoadDiverged(SimulationError):
    """The in-flight load passed the run's bound (module doc)."""


class Packet:
    """`history` is the packet's own maxlen-H deque of the nodes it last
    visited, begun as (source,) so that a bounce-back to the source is a
    cycle; `node` is where the packet is, or on a link, where it arrives."""

    __slots__ = ("id", "source", "destination", "birth_tick", "history", "node")

    def __init__(
        self, pid: int, source: int, destination: int, birth_tick: int, history: deque
    ):
        self.id = pid
        self.source = source
        self.destination = destination
        self.birth_tick = birth_tick
        self.history = history
        self.node = source


class TickStats(NamedTuple):
    """What one tick did, for that tick alone: its counts and its reward,
    underlying + shaping = total. Immutable; built positionally, in field order."""

    tick: int
    generated: int
    delivered: int
    dropped: int
    cycles_detected: int
    in_flight: int
    underlying: float
    shaping: float
    total: float


class Simulation:
    """Owns all mutable run state; step() executes exactly one tick."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        topo = cfg.topology
        self.topology = topo
        self.rng = Random(cfg.seed)
        self.tick_count = 0

        # every logit row by flat row id (module doc), and the one learner
        # trace over them
        self._rows = make_tables(topo)
        self._trace = EligibilityTrace(self._rows)
        self.reward_sum = 0.0  # left-to-right sum of every tick's total reward

        # traffic, flattened for the generation loop: (source, rate, draw
        # table of its destinations up to the last it can draw, the history
        # a new packet copies, which is cheaper than building its deque)
        history_len = cfg.shaping.history_length
        self._sources: list[tuple[int, int, list[float], deque]] = []
        for s, rate in enumerate(cfg.traffic.rates):
            if rate > 0:
                probs = cfg.traffic.dest_probs[s]
                last = max(y for y, p in enumerate(probs) if p > 0.0)
                cum = list(accumulate(probs[: last + 1]))
                cum[-1] = inf
                self._sources.append((s, rate, cum, deque((s,), history_len)))

        # per node, per outgoing slot: (link index, capacity, delay, next node)
        out = topo.out_links()
        self._hops: list[list[tuple[int, int | None, int, int]]] = [
            [(i, topo.links[i].capacity, topo.links[i].delay, topo.links[i].dst) for i in o]
            for o in out
        ]
        # per node: the next node of its only out-link, or None when it has
        # none or several; a packet there skips the policy (module doc)
        self._forced: list[int | None] = [
            h[0][3] if len(h) == 1 else None for h in self._hops
        ]
        # each tracked probability as (flat row id, slot), read by probabilities()
        n, links = topo.n_nodes, topo.links
        self._tracked = [
            (links[i].src * n + dest, out[links[i].src].index(i)) for dest, i in cfg.tracked
        ]

        self._next_packet_id = 0
        # packets on links by arrival tick, {tick: [packet]}, each at its `node`
        self._arrivals: dict[int, list[Packet]] = {}
        self.in_flight = 0

        self.generated_total = 0
        self.delivered_total = 0
        self.dropped_total = 0
        self.cycles_total = 0

        longest = max((link.delay for link in topo.links), default=0)
        self._max_in_flight = LOAD_FACTOR * sum(cfg.traffic.rates) * topo.n_nodes * longest

        if topo.cost_model is CostModel.NODE_FLOW:
            self._step = self._step_node_flow
        else:
            self._step = self._step_link_delay

    # -- public API ---------------------------------------------------------

    def step(self) -> TickStats:
        stats = self._step()
        self.reward_sum += stats.total
        self.generated_total += stats.generated
        self.delivered_total += stats.delivered
        self.dropped_total += stats.dropped
        self.cycles_total += stats.cycles_detected
        if (
            self.generated_total
            != self.delivered_total + self.dropped_total + self.in_flight
        ):
            raise SimulationError(
                f"conservation violated at tick {stats.tick}: "
                f"{self.generated_total} generated != {self.delivered_total} delivered "
                f"+ {self.dropped_total} dropped + {self.in_flight} in flight"
            )
        if self.in_flight > self._max_in_flight:
            raise LoadDiverged(
                f"load diverged at tick {stats.tick}: {self.in_flight} packets in flight"
            )
        return stats

    @property
    def running_mean(self) -> float:
        """Mean total reward per tick so far (0.0 before the first tick)."""
        return self.reward_sum / self.tick_count if self.tick_count else 0.0

    def theta_by_router(self) -> Iterator[tuple[str, dict[str, list[float]]]]:
        """(router label, {destination label: current logits}) for each
        router with a logit row, in row-id order: theta one router at a
        time, each row in a fresh list."""
        rows, trace, label = self._rows, self._trace, self.topology.label
        n = self.topology.n_nodes
        for router in range(n):
            base = router * n
            dests = {
                label(y): current_logits(rows, trace, base + y)
                for y in range(n)
                if rows[base + y] is not None
            }
            if dests:
                yield label(router), dests

    def probabilities(self) -> tuple[float, ...]:
        """The current probability of each of cfg.tracked, in order,
        through learner.current_probability."""
        rows, trace = self._rows, self._trace
        return tuple([current_probability(rows, trace, y, slot) for y, slot in self._tracked])

    # -- link-delay mode ----------------------------------------------------

    def _step_link_delay(self) -> TickStats:
        t = self.tick_count + 1
        self.tick_count = t

        # (1) take the tick's arrivals; (2) deliver what reached its destination
        arrivals = self._arrivals.pop(t, ())
        in_flight = self.in_flight - len(arrivals)
        underlying = 0.0
        delivered = 0
        cycles = 0
        to_route: list[tuple[int, int, Packet]] = []
        for packet in arrivals:
            node = packet.node
            if node == packet.destination:
                underlying -= t - packet.birth_tick
                delivered += 1
            else:
                if detect_cycle(packet.history, node):
                    cycles += 1
                to_route.append((node, packet.id, packet))

        # (3) new traffic, sources in node-id order, one draw per packet
        rng_random = self.rng.random
        first_pid = pid = self._next_packet_id
        for source, rate, dest_cum, history in self._sources:
            for _ in range(rate):
                dest = bisect_right(dest_cum, rng_random())
                to_route.append((source, pid, Packet(pid, source, dest, t, history.copy())))
                pid += 1
        self._next_packet_id = pid
        generated = pid - first_pid

        # (4) route in (node id, packet id) order; capacity drops here
        to_route.sort()
        dropped = 0
        placed = [0] * len(self.topology.links)
        hops = self._hops
        n = len(hops)
        decisions: list[tuple[int, int]] = []
        decide = decisions.append
        rows = self._rows
        trace = self._trace
        arrivals_by_tick = self._arrivals
        # theta is frozen during routing, so the weights recorded for a row
        # serve every packet routed by it this tick
        recorded = trace.weights
        forced = self._forced
        for node, pid, packet in to_route:
            row = node * n + packet.destination
            if forced[node] is not None:
                rng_random()  # the one-slot row's draw, kept for the stream
                slot = 0
            else:
                parts = recorded.get(row)
                if parts is None:
                    parts = sampling_weights(rows, trace, row)
                _, total, cum = parts
                slot = bisect_right(cum, rng_random() * total)
            decide((row, slot))
            link_index, capacity, delay, dst = hops[node][slot]
            if capacity is not None:
                placed[link_index] += 1
                if placed[link_index] > capacity:
                    dropped += 1  # placement beyond capacity: packet is lost
                    continue
            packet.node = dst
            bucket = arrivals_by_tick.get(t + delay)
            if bucket is None:
                arrivals_by_tick[t + delay] = [packet]
            else:
                bucket.append(packet)
            in_flight += 1
        self.in_flight = in_flight

        # (5) the learner update: one shared reward for every router
        shaping = shaping_reward(cycles, dropped, self.cfg.shaping)
        total = underlying + shaping
        tick_update(rows, trace, self.cfg.learner, decisions, total)

        return TickStats(
            t, generated, delivered, dropped, cycles, in_flight, underlying, shaping, total
        )

    # -- node-flow mode -----------------------------------------------------

    def _step_node_flow(self) -> TickStats:
        t = self.tick_count + 1
        self.tick_count = t
        rng = self.rng
        n = self.topology.n_nodes
        rows = self._rows
        trace = self._trace
        hops = self._hops

        # every packet walks its full path now; flows are counted jointly.
        # visits holds every packet's path, source included, one after another
        generated = 0
        visits: list[int] = []
        visit = visits.append
        decisions: list[tuple[int, int]] = []
        decide = decisions.append
        flows = [0] * n
        rng_random = rng.random
        recorded = trace.weights
        forced = self._forced
        for source, rate, dest_cum, _ in self._sources:
            for _ in range(rate):
                dest = bisect_right(dest_cum, rng_random())
                generated += 1
                node = source
                visit(node)
                flows[node] += 1
                while node != dest:
                    row = node * n + dest
                    nxt = forced[node]
                    if nxt is not None:
                        rng_random()  # the one-slot row's draw, kept for the stream
                        decide((row, 0))
                        node = nxt
                    else:
                        parts = recorded.get(row)
                        if parts is None:
                            parts = sampling_weights(rows, trace, row)
                        _, total, cum = parts
                        slot = bisect_right(cum, rng_random() * total)
                        decide((row, slot))
                        node = hops[node][slot][3]
                    visit(node)
                    flows[node] += 1

        # each visit pays its node's cost at the tick's flow (NodeCost.cost,
        # inlined), summed in visit order
        costs = [c.base + c.per_flow * flow for c, flow in zip(self.topology.node_costs, flows)]
        total_cost = 0.0
        for node in visits:
            total_cost += costs[node]
        underlying = -total_cost
        tick_update(rows, trace, self.cfg.learner, decisions, underlying)

        return TickStats(t, generated, generated, 0, 0, 0, underlying, 0.0, underlying)

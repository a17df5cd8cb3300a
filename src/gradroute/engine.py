"""Discrete-time network simulation with one online learner per router.

Two engine modes share the learner plumbing:

* link-delay transit (queued): every tick runs a fixed phase order --
  (1) advance in-transit packets and collect arrivals, (2) deliver
  arrivals that reached their destination, scoring -(trip time) each,
  (3) generate new traffic, (4) route everything that needs a decision
  in (node id, packet id) order, with cycle detection at arrival and
  capacity drops at placement, (5) hand every router its decisions and
  the tick reward (one learner tail for both modes), (6) emit per-tick
  stats.

* node-flow traversal (synchronous): each generated packet walks its
  whole source-to-destination path within the tick, one policy sample
  per hop; node costs are evaluated at the per-tick node flows produced
  jointly by all packets, so congestion externalities act within a tick.
  Validation refuses a node-flow network with a directed cycle, so every
  walk ends.

A routing decision is recorded as a (row, slot) pair. The first packet
a router routes for a destination in a tick reads the row through
learner.sampling_weights, which settles it and records its Gibbs weights
in the router's trace; later packets reuse them, and tick_update forms
the decisions' gradients from them.

Every draw bisects a draw table in policy.draw_table's form (running
sums, the last set to +inf) with one uniform u: a slot is
bisect_right(cum, u * total) over the row's weights, a new packet's
destination bisect_right(cum, u) over its source's destination
probabilities, cut after the last positive one so that it can be drawn.

A router with one out-link has nothing to choose: its Gibbs policy puts
probability 1 on slot 0 and its log-policy gradient is exactly zero, so
its logits never move. Both kernels forward a packet at such a node
without reading the policy: they skip sampling_weights and the draw,
use slot 0, and still record the decision (dest, 0), which the
learner checks and otherwise ignores. They do still take the one
uniform that a draw over the one-slot row would take, and discard it:
the stream of draws, and so every later draw and every output, stays
what it is when every hop samples.

Both modes update the learners lazily (see gradroute.learner): a tick
touches only the trace rows that received a gradient, and every other
logit row is owed its share of the reward until it is read. Every read
therefore settles the row first: sampling_weights for the routing
kernel, `logits()` for readers outside the engine, and `theta()` for
every row before the snapshot. Outside code reads logits through these,
never through `tables` directly.

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
from random import Random
from typing import NamedTuple

from .config import ExperimentConfig
from .learner import (
    EligibilityTrace,
    sampling_weights,
    settle,
    settle_all,
    tick_update,
)
from .network import CostModel
from .policy import ParamTable, draw_table, make_tables, snapshot
from .shaping import detect_cycle, shaping_reward


LOAD_FACTOR = 100  # times the loop-free load bound (module doc)


class SimulationError(RuntimeError):
    """Internal invariant violation or broken run precondition."""


class LoadDiverged(SimulationError):
    """The in-flight load passed the run's bound (module doc)."""


class Packet:
    __slots__ = ("id", "source", "destination", "birth_tick", "history")

    def __init__(
        self, pid: int, source: int, destination: int, birth_tick: int, history_len: int
    ):
        self.id = pid
        self.source = source
        self.destination = destination
        self.birth_tick = birth_tick
        # the source counts as visited, so an immediate bounce-back is a cycle
        self.history = deque((source,), maxlen=history_len)


class TickReward(NamedTuple):
    """One tick's reward: underlying + shaping = total. Immutable."""

    underlying: float
    shaping: float
    total: float


class TickStats(NamedTuple):
    """What one tick did, with its counts for that tick alone. Immutable;
    the engine builds one per tick, positionally, in field order."""

    tick: int
    generated: int
    delivered: int
    dropped: int
    cycles_detected: int
    in_flight: int
    reward: TickReward


class Simulation:
    """Owns all mutable run state; step() executes exactly one tick."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        topo = cfg.topology
        self.topology = topo
        self.rng = Random(cfg.seed)
        self.tick_count = 0

        self.tables: dict[int, ParamTable] = make_tables(topo)
        self.traces: dict[int, EligibilityTrace] = {
            r: EligibilityTrace(t) for r, t in self.tables.items()
        }
        self.reward_sum = 0.0  # left-to-right sum of every tick's total reward
        # by node: the sampling weights its trace recorded this tick, which
        # tick_update empties; nodes without a table get an empty dict
        self._recorded = [
            self.traces[n].weights if n in self.traces else {}
            for n in range(topo.n_nodes)
        ]

        # traffic, flattened for the generation loop: (source, rate, draw
        # table of its destinations up to the last it can draw)
        self._sources: list[tuple[int, int, list[float]]] = []
        for s, rate in enumerate(cfg.traffic.rates):
            if rate > 0:
                probs = cfg.traffic.dest_probs[s]
                last = max(y for y, p in enumerate(probs) if p > 0.0)
                self._sources.append((s, rate, draw_table(probs[: last + 1])[2]))

        # per node, per outgoing slot: (link index, capacity, delay, next node)
        self._hops: list[list[tuple[int, int | None, int, int]]] = [
            [
                (i, topo.links[i].capacity, topo.links[i].delay, topo.links[i].dst)
                for i in topo.out_link_indices(n)
            ]
            for n in range(topo.n_nodes)
        ]
        # per node: the next node of its only out-link, or None when it has
        # none or several; a packet there skips the policy (module doc)
        self._forced: list[int | None] = [
            h[0][3] if len(h) == 1 else None for h in self._hops
        ]

        self._next_packet_id = 0
        # packets in transit, bucketed by arrival tick: {tick: [(packet, node)]}
        self._arrivals: dict[int, list[tuple[Packet, int]]] = {}
        self.in_flight = 0

        self.generated_total = 0
        self.delivered_total = 0
        self.dropped_total = 0
        self.cycles_total = 0

        longest = max((link.delay for link in topo.links), default=0)
        self._max_in_flight = LOAD_FACTOR * sum(cfg.traffic.rates) * topo.n_nodes * longest

        if topo.cost_model is CostModel.NODE_FLOW:
            self._node_costs = [topo.node_costs[n] for n in range(topo.n_nodes)]
            self._step = self._step_node_flow
        else:
            self._step = self._step_link_delay

    # -- public API ---------------------------------------------------------

    def step(self) -> TickStats:
        stats = self._step()
        self.reward_sum += stats.reward.total
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

    def theta(self) -> dict:
        """Settle every logit row and return the snapshot of all tables."""
        for router, table in self.tables.items():
            settle_all(table, self.traces[router])
        return snapshot(self.tables, self.topology)

    def logits(self, router: int, dest: int) -> list[float]:
        """Up-to-date logit row of `router` for packets destined `dest`."""
        return settle(self.tables[router], self.traces[router], dest)

    def _update_learners(
        self, decisions: list[list[tuple[int, int]]], reward: float
    ) -> None:
        """Apply the tick's update to every router: its (row, slot) routing
        decisions, indexed by router, and the one shared reward."""
        learner_cfg = self.cfg.learner
        traces = self.traces
        for router, table in self.tables.items():
            tick_update(table, traces[router], learner_cfg, decisions[router], reward)

    # -- link-delay mode ----------------------------------------------------

    def _step_link_delay(self) -> TickStats:
        t = self.tick_count + 1
        self.tick_count = t
        rng = self.rng
        shaping_cfg = self.cfg.shaping
        history_len = shaping_cfg.history_length

        # (1) advance transit; (2) deliver what arrived at its destination
        arrivals = self._arrivals.pop(t, ())
        in_flight = self.in_flight - len(arrivals)
        underlying = 0.0
        delivered = 0
        cycles = 0
        to_route: list[tuple[int, int, Packet]] = []
        for packet, node in arrivals:
            if node == packet.destination:
                underlying -= t - packet.birth_tick
                delivered += 1
            else:
                if detect_cycle(packet, node):
                    cycles += 1
                to_route.append((node, packet.id, packet))

        # (3) new traffic, sources in node-id order, one draw per packet
        generated = 0
        rng_random = rng.random
        for source, rate, dest_cum in self._sources:
            for _ in range(rate):
                dest = bisect_right(dest_cum, rng_random())
                pid = self._next_packet_id
                self._next_packet_id += 1
                to_route.append(
                    (source, pid, Packet(pid, source, dest, t, history_len))
                )
                generated += 1

        # (4) route in (node id, packet id) order; capacity drops here
        to_route.sort()
        dropped = 0
        placed = [0] * len(self.topology.links)
        hops = self._hops
        decisions: list[list[tuple[int, int]]] = [[] for _ in hops]
        tables = self.tables
        traces = self.traces
        arrivals_by_tick = self._arrivals
        # theta is frozen during routing, so the weights recorded for a
        # (router, destination) serve every packet routed there this tick
        recorded = self._recorded
        forced = self._forced
        for node, pid, packet in to_route:
            dest = packet.destination
            if forced[node] is not None:
                rng_random()  # the one-slot row's draw, kept for the stream
                slot = 0
            else:
                parts = recorded[node].get(dest)
                if parts is None:
                    table = tables.get(node)
                    if table is None:
                        raise SimulationError(
                            f"packet {pid} stranded at {self.topology.label(node)}: "
                            "no outgoing links"
                        )
                    parts = sampling_weights(table, traces[node], dest)
                _, total, cum = parts
                slot = bisect_right(cum, rng_random() * total)
            decisions[node].append((dest, slot))
            link_index, capacity, delay, dst = hops[node][slot]
            count = placed[link_index] + 1
            placed[link_index] = count
            if capacity is not None and count > capacity:
                dropped += 1  # placement beyond capacity: packet is lost
            else:
                arrivals_by_tick.setdefault(t + delay, []).append((packet, dst))
                in_flight += 1
        self.in_flight = in_flight

        # (5) learner updates: one shared reward for every router
        shaping = shaping_reward(cycles, dropped, shaping_cfg)
        reward = TickReward(underlying, shaping, underlying + shaping)
        self._update_learners(decisions, reward.total)

        return TickStats(t, generated, delivered, dropped, cycles, in_flight, reward)

    # -- node-flow mode -----------------------------------------------------

    def _step_node_flow(self) -> TickStats:
        t = self.tick_count + 1
        self.tick_count = t
        rng = self.rng
        n_nodes = self.topology.n_nodes
        tables = self.tables
        traces = self.traces
        hops = self._hops

        # every packet walks its full path now; flows are counted jointly
        generated = 0
        paths: list[list[int]] = []
        decisions: list[list[tuple[int, int]]] = [[] for _ in hops]
        flows = [0] * n_nodes
        rng_random = rng.random
        recorded = self._recorded
        forced = self._forced
        for source, rate, dest_cum in self._sources:
            for _ in range(rate):
                dest = bisect_right(dest_cum, rng_random())
                generated += 1
                node = source
                path = [source]
                while node != dest:
                    nxt = forced[node]
                    if nxt is not None:
                        rng_random()  # the one-slot row's draw, kept for the stream
                        decisions[node].append((dest, 0))
                        node = nxt
                    else:
                        parts = recorded[node].get(dest)
                        if parts is None:
                            table = tables.get(node)
                            if table is None:
                                raise SimulationError(
                                    f"packet stranded at {self.topology.label(node)}: "
                                    "no outgoing links"
                                )
                            parts = sampling_weights(table, traces[node], dest)
                        _, total, cum = parts
                        slot = bisect_right(cum, rng_random() * total)
                        decisions[node].append((dest, slot))
                        node = hops[node][slot][3]
                    path.append(node)
                paths.append(path)
                for nd in path:
                    flows[nd] += 1

        costs = [c.cost(f) for c, f in zip(self._node_costs, flows)]
        total_cost = 0.0
        for path in paths:
            for nd in path:
                total_cost += costs[nd]
        underlying = -total_cost
        reward = TickReward(underlying, 0.0, underlying)
        self._update_learners(decisions, reward.total)

        return TickStats(t, generated, generated, 0, 0, 0, reward)

"""Discrete-time network simulation with one online learner per router.

Two engine modes share the learner plumbing:

* link-delay transit (queued): every tick runs a fixed phase order --
  (1) advance in-transit packets and collect arrivals, (2) deliver
  arrivals that reached their destination, scoring -(trip time) each,
  (3) generate new traffic, (4) route everything that needs a decision
  in (node id, packet id) order, with cycle detection at arrival and
  capacity drops at placement, (5) fold the tick's decision gradients
  into the traces and apply the tick reward to every router,
  (6) emit per-tick stats.

* node-flow traversal (synchronous): each generated packet walks its
  whole source-to-destination path within the tick, one policy sample
  per hop; node costs are evaluated at the per-tick node flows produced
  jointly by all packets, so congestion externalities act within a tick.

Both modes update the learners lazily (see gradroute.learner): a tick
touches only the trace rows that received a gradient, and every other
logit row is owed its share of the reward until it is read. Every read
therefore settles the row first: the routing kernel settles a row on a
softmax-cache miss, `logits()` serves readers outside the engine, and
`result()` settles every row before the snapshot. Outside code reads
logits through these, never through `tables` directly.

A simulation is single-threaded, owns a single seeded random stream, and
is a deterministic function of (config, seed). The per-tick conservation
invariant (generated == delivered + dropped + in-flight, cumulatively) is
checked every tick and any violation aborts the run.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import exp
from random import Random
from typing import Callable

from .config import ExperimentConfig
from .learner import (
    EligibilityTrace,
    RunningAverageReward,
    observe_reward,
    settle,
    settle_all,
    tick_update,
)
from .network import CostModel
from .policy import ParamTable, make_tables, snapshot
from .shaping import detect_cycle, shaping_reward


class SimulationError(RuntimeError):
    """Internal invariant violation or broken run precondition."""


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


@dataclass(frozen=True)
class TickReward:
    underlying: float
    shaping: float
    total: float


@dataclass(frozen=True)
class TickStats:
    tick: int
    generated: int
    delivered: int
    dropped: int
    cycles_detected: int
    in_flight: int
    reward: TickReward


@dataclass
class RunResult:
    """Engine-level result: learned logits plus cumulative accounting."""

    steps: int
    theta: dict
    average_reward: float
    generated: int
    delivered: int
    dropped: int
    cycles_detected: int


class Simulation:
    """Owns all mutable run state; step() executes exactly one tick."""

    def __init__(self, cfg: ExperimentConfig, record_trips: bool = False):
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
        self.average_reward = RunningAverageReward()

        # traffic, flattened for the generation loop: (source, cumulative dest probs)
        self._sources: list[tuple[int, int, list[float]]] = []
        for s, rate in enumerate(cfg.traffic.rates):
            if rate > 0:
                cum, acc = [], 0.0
                for p in cfg.traffic.dest_probs[s]:
                    acc += p
                    cum.append(acc)
                self._sources.append((s, rate, cum))

        self._out_indices = [topo.out_link_indices(n) for n in range(topo.n_nodes)]
        self._out_links = [
            [topo.links[i] for i in topo.out_link_indices(n)]
            for n in range(topo.n_nodes)
        ]

        self._next_packet_id = 0
        # packets in transit, bucketed by arrival tick: {tick: [(packet, node)]}
        self._arrivals: dict[int, list[tuple[Packet, int]]] = {}
        self.in_flight = 0

        self.generated_total = 0
        self.delivered_total = 0
        self.dropped_total = 0
        self.cycles_total = 0

        self.trip_log: list[tuple[int, int, int]] | None = [] if record_trips else None

        if topo.cost_model is CostModel.NODE_FLOW:
            self._node_costs = [topo.node_costs[n] for n in range(topo.n_nodes)]
            self._step = self._step_node_flow
        else:
            self._step = self._step_link_delay

    # -- public API ---------------------------------------------------------

    def step(self) -> TickStats:
        stats = self._step()
        observe_reward(self.average_reward, stats.reward.total)
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
        return stats

    def run(
        self, steps: int | None = None, sink: Callable[[TickStats], None] | None = None
    ) -> RunResult:
        steps = self.cfg.steps if steps is None else steps
        if sink is None:
            for _ in range(steps):
                self.step()
        else:
            for _ in range(steps):
                sink(self.step())
        return self.result()

    def result(self) -> RunResult:
        for router, table in self.tables.items():
            settle_all(table, self.traces[router])
        return RunResult(
            steps=self.tick_count,
            theta=snapshot(self.tables, self.topology),
            average_reward=self.average_reward.mean,
            generated=self.generated_total,
            delivered=self.delivered_total,
            dropped=self.dropped_total,
            cycles_detected=self.cycles_total,
        )

    def logits(self, router: int, dest: int) -> list[float]:
        """Up-to-date logit row of `router` for packets destined `dest`."""
        return settle(self.tables[router], self.traces[router], dest)

    def max_in_flight_age(self) -> int:
        """Age in ticks of the oldest packet currently on a link."""
        oldest = None
        for bucket in self._arrivals.values():
            for p, _ in bucket:
                if oldest is None or p.birth_tick < oldest:
                    oldest = p.birth_tick
        return 0 if oldest is None else self.tick_count - oldest

    # -- link-delay mode ----------------------------------------------------

    def _step_link_delay(self) -> TickStats:
        t = self.tick_count + 1
        self.tick_count = t
        rng = self.rng
        shaping_cfg = self.cfg.shaping
        history_len = shaping_cfg.history_length

        # (1) advance transit; (2) deliver what arrived at its destination
        arrivals = self._arrivals.pop(t, ())
        self.in_flight -= len(arrivals)
        underlying = 0.0
        delivered = 0
        cycles = 0
        to_route: list[tuple[int, int, Packet]] = []
        for packet, node in arrivals:
            if node == packet.destination:
                underlying -= t - packet.birth_tick
                delivered += 1
                if self.trip_log is not None:
                    self.trip_log.append(
                        (packet.source, packet.destination, t - packet.birth_tick)
                    )
            else:
                if detect_cycle(packet, node):
                    cycles += 1
                to_route.append((node, packet.id, packet))

        # (3) new traffic, sources in node-id order, one draw per packet
        generated = 0
        rng_random = rng.random
        for source, rate, cum in self._sources:
            for _ in range(rate):
                u = rng_random()
                dest = 0
                for y, c in enumerate(cum):
                    if u < c:
                        dest = y
                        break
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
        decisions: list[list[tuple[int, list[float]]] | None] = [None] * len(
            self._out_links
        )
        tables = self.tables
        traces = self.traces
        out_links = self._out_links
        out_indices = self._out_indices
        arrivals_by_tick = self._arrivals
        # theta is frozen during routing, so softmax parts are shared by all
        # packets with the same (router, destination) this tick; a miss
        # settles the row's owed reward credit before reading it
        softmax_cache: dict[tuple[int, int], tuple[list[float], float]] = {}
        for node, pid, packet in to_route:
            dest = packet.destination
            key = (node, dest)
            parts = softmax_cache.get(key)
            if parts is None:
                table = tables.get(node)
                if table is None:
                    raise SimulationError(
                        f"packet {pid} stranded at {self.topology.label(node)}: "
                        "no outgoing links"
                    )
                logits = settle(table, traces[node], dest)
                m = logits[0]
                for v in logits:
                    if v > m:
                        m = v
                exps = [exp(v - m) for v in logits]
                parts = (exps, sum(exps))
                softmax_cache[key] = parts
            exps, s = parts
            u = rng_random() * s
            acc = 0.0
            slot = len(exps) - 1
            for i, e in enumerate(exps):
                acc += e
                if u < acc:
                    slot = i
                    break
            grad = [-e / s for e in exps]
            grad[slot] += 1.0
            bucket = decisions[node]
            if bucket is None:
                decisions[node] = [(dest, grad)]
            else:
                bucket.append((dest, grad))
            link_index = out_indices[node][slot]
            link = out_links[node][slot]
            count = placed[link_index] + 1
            placed[link_index] = count
            if link.capacity is not None and count > link.capacity:
                dropped += 1  # placement beyond capacity: packet is lost
            else:
                arrivals_by_tick.setdefault(t + link.delay, []).append(
                    (packet, link.dst)
                )
                self.in_flight += 1

        # (5) learner updates: one shared reward for every router
        shaping = shaping_reward(cycles, dropped, shaping_cfg)
        reward = TickReward(underlying, shaping, underlying + shaping)
        learner_cfg = self.cfg.learner
        empty: list = []
        for router, table in tables.items():
            grads = decisions[router]
            tick_update(
                table,
                self.traces[router],
                learner_cfg,
                grads if grads is not None else empty,
                reward.total,
            )

        return TickStats(
            tick=t,
            generated=generated,
            delivered=delivered,
            dropped=dropped,
            cycles_detected=cycles,
            in_flight=self.in_flight,
            reward=reward,
        )

    # -- node-flow mode -----------------------------------------------------

    def _step_node_flow(self) -> TickStats:
        t = self.tick_count + 1
        self.tick_count = t
        rng = self.rng
        n_nodes = self.topology.n_nodes
        tables = self.tables
        traces = self.traces
        out_links = self._out_links

        # every packet walks its full path now; flows are counted jointly
        generated = 0
        paths: list[list[int]] = []
        decisions: list[list[tuple[int, list[float]]] | None] = [None] * n_nodes
        flows = [0] * n_nodes
        rng_random = rng.random
        softmax_cache: dict[tuple[int, int], tuple[list[float], float]] = {}
        for source, rate, cum in self._sources:
            for _ in range(rate):
                u = rng_random()
                dest = 0
                for y, c in enumerate(cum):
                    if u < c:
                        dest = y
                        break
                generated += 1
                node = source
                path = [source]
                while node != dest:
                    key = (node, dest)
                    parts = softmax_cache.get(key)
                    if parts is None:
                        table = tables.get(node)
                        if table is None:
                            raise SimulationError(
                                f"packet stranded at {self.topology.label(node)}: "
                                "no outgoing links"
                            )
                        logits = settle(table, traces[node], dest)
                        m = logits[0]
                        for v in logits:
                            if v > m:
                                m = v
                        exps = [exp(v - m) for v in logits]
                        parts = (exps, sum(exps))
                        softmax_cache[key] = parts
                    exps, s = parts
                    u2 = rng_random() * s
                    acc = 0.0
                    slot = len(exps) - 1
                    for i, e in enumerate(exps):
                        acc += e
                        if u2 < acc:
                            slot = i
                            break
                    grad = [-e / s for e in exps]
                    grad[slot] += 1.0
                    bucket = decisions[node]
                    if bucket is None:
                        decisions[node] = [(dest, grad)]
                    else:
                        bucket.append((dest, grad))
                    node = out_links[node][slot].dst
                    path.append(node)
                    if len(path) > n_nodes:
                        raise SimulationError(
                            "routing cycle in node-flow mode; the topology is "
                            "expected to be acyclic"
                        )
                paths.append(path)
                for nd in path:
                    flows[nd] += 1

        node_costs = self._node_costs
        total_cost = 0.0
        for path in paths:
            for nd in path:
                total_cost += node_costs[nd].cost(flows[nd])
        underlying = -total_cost
        reward = TickReward(underlying, 0.0, underlying)

        learner_cfg = self.cfg.learner
        empty: list = []
        for router, table in tables.items():
            grads = decisions[router]
            tick_update(
                table,
                self.traces[router],
                learner_cfg,
                grads if grads is not None else empty,
                reward.total,
            )

        return TickStats(
            tick=t,
            generated=generated,
            delivered=generated,
            dropped=0,
            cycles_detected=0,
            in_flight=0,
            reward=reward,
        )


def run(cfg: ExperimentConfig) -> RunResult:
    """Run cfg.steps ticks from cfg.seed; purely in-memory, no metrics I/O."""
    return Simulation(cfg).run()

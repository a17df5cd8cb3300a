"""Network model: nodes, links, node cost functions, traffic, validation.

Topologies are immutable once constructed and safe to share read-only.
Routing-relevant order is pinned here: the outgoing links of a node are
always listed in link declaration order, and that order defines the
column order of every per-router parameter table, eligibility trace and
action distribution built on top of the topology.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum


class TopologyError(ValueError):
    """Raised for lookups on nodes/paths that do not exist."""


class CostModel(Enum):
    LINK_DELAY = "link_delay"
    NODE_FLOW = "node_flow"


@dataclass(frozen=True)
class Node:
    id: int
    label: str


@dataclass(frozen=True)
class Link:
    """Directed link.

    capacity is the maximum number of packets that may be *placed* on the
    link within one tick; placements beyond it are dropped at placement
    time. None means unlimited.
    """

    src: int
    dst: int
    delay: int = 1
    capacity: int | None = None
    label: str | None = None


@dataclass(frozen=True)
class NodeCost:
    """Affine per-packet cost of transiting a node: base + per_flow * x,
    where x is the node's packet flow within the tick."""

    base: float = 0.0
    per_flow: float = 0.0

    def cost(self, flow: float) -> float:
        return self.base + self.per_flow * flow


@dataclass(frozen=True)
class TrafficSpec:
    """Per-node generation rates and per-source destination distributions.

    rates[i] packets are created at node i every tick; each draws its
    destination from dest_probs[i] (a probability vector over node ids
    with zero weight on i itself). Rate 0 marks a silent node.
    """

    rates: tuple[int, ...]
    dest_probs: tuple[tuple[float, ...], ...]

    @classmethod
    def uniform(cls, n_nodes: int, rate: int = 1) -> "TrafficSpec":
        """Every node emits `rate` packets/tick, destination uniform over the others."""
        p = 1.0 / (n_nodes - 1)
        rows = tuple(
            tuple(0.0 if y == s else p for y in range(n_nodes)) for s in range(n_nodes)
        )
        return cls(rates=(rate,) * n_nodes, dest_probs=rows)

    @classmethod
    def single_flow(cls, n_nodes: int, src: int, dst: int, rate: int) -> "TrafficSpec":
        """All traffic is `rate` packets/tick from src to dst."""
        rows = tuple(
            tuple(1.0 if (s == src and y == dst) else 0.0 for y in range(n_nodes))
            for s in range(n_nodes)
        )
        rates = tuple(rate if s == src else 0 for s in range(n_nodes))
        return cls(rates=rates, dest_probs=rows)


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    cost_model: CostModel = CostModel.LINK_DELAY
    node_costs: dict[int, NodeCost] | None = None

    # derived lookup tables, built once in __post_init__
    _out: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _label_to_id: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        n = len(self.nodes)
        out: list[list[int]] = [[] for _ in range(n)]
        for i, link in enumerate(self.links):
            if 0 <= link.src < n and 0 <= link.dst < n:
                out[link.src].append(i)
        object.__setattr__(self, "_out", tuple(tuple(o) for o in out))
        object.__setattr__(self, "_label_to_id", {nd.label: nd.id for nd in self.nodes})

    @classmethod
    def build(
        cls,
        labels: list[str],
        links: list[tuple],
        cost_model: CostModel = CostModel.LINK_DELAY,
        node_costs: dict[str, NodeCost] | None = None,
    ) -> "Topology":
        """Construct from labels and (src_label, dst_label, delay[, capacity[, label]]) tuples."""
        nodes = tuple(Node(i, lb) for i, lb in enumerate(labels))
        ids = {lb: i for i, lb in enumerate(labels)}
        built = []
        for spec in links:
            src, dst, delay = spec[0], spec[1], spec[2]
            capacity = spec[3] if len(spec) > 3 else None
            label = spec[4] if len(spec) > 4 else None
            built.append(Link(ids[src], ids[dst], delay, capacity, label))
        costs = (
            {ids[lb]: c for lb, c in node_costs.items()} if node_costs is not None else None
        )
        return cls(nodes=nodes, links=tuple(built), cost_model=cost_model, node_costs=costs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_id(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise TopologyError(f"unknown node label {label!r}") from None

    def label(self, node: int) -> str:
        return self.nodes[node].label

    def out_link_indices(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < len(self.nodes):
            raise TopologyError(f"unknown node id {node}")
        return self._out[node]

    def link_label(self, index: int) -> str:
        """Display name of a link: its explicit label, else src+dst labels."""
        link = self.links[index]
        if link.label:
            return link.label
        return f"{self.nodes[link.src].label}{self.nodes[link.dst].label}"


def outgoing_links(topology: Topology, node: int) -> list[Link]:
    """Outgoing links of `node` in declaration order.

    This order is stable across calls and runs; it defines the slot order
    used by policies and traces.
    """
    return [topology.links[i] for i in topology.out_link_indices(node)]


def shortest_path_delay(topology: Topology, src: int, dst: int) -> int:
    """Minimal total link delay from src to dst (Dijkstra). 0 for src == dst."""
    if topology.cost_model is not CostModel.LINK_DELAY:
        raise TopologyError("shortest_path_delay is defined for link-delay topologies")
    n = topology.n_nodes
    if not (0 <= src < n and 0 <= dst < n):
        raise TopologyError(f"unknown node id {src if not 0 <= src < n else dst}")
    if src == dst:
        return 0
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == dst:
            return d
        if d > dist.get(node, d):
            continue
        for i in topology.out_link_indices(node):
            link = topology.links[i]
            nd = d + link.delay
            if nd < dist.get(link.dst, nd + 1):
                dist[link.dst] = nd
                heapq.heappush(heap, (nd, link.dst))
    raise TopologyError(
        f"{topology.label(dst)} unreachable from {topology.label(src)}"
    )


def _reachable(topology: Topology, src: int) -> set[int]:
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        for i in topology.out_link_indices(node):
            dst = topology.links[i].dst
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


def validate_topology(topology: Topology, traffic: TrafficSpec) -> ValidationReport:
    """Check structural invariants; returns a report instead of raising.

    Detects: duplicate labels, non-dense ids, dangling links, self-loops,
    bad delays/capacities, malformed destination distributions, nodes with
    traffic but no outgoing links, unreachable destinations, and missing or
    misplaced node costs for the active cost model.
    """
    v: list[str] = []
    n = topology.n_nodes

    labels = [nd.label for nd in topology.nodes]
    if len(set(labels)) != len(labels):
        v.append("node labels not unique")
    if [nd.id for nd in topology.nodes] != list(range(n)):
        v.append("node ids not dense 0..N-1")

    for i, link in enumerate(topology.links):
        where = f"link {i} ({link.src}->{link.dst})"
        if not (0 <= link.src < n and 0 <= link.dst < n):
            v.append(f"{where}: dangling link endpoint")
            continue
        if link.src == link.dst:
            v.append(f"{where}: self-loop")
        if link.delay < 1:
            v.append(f"{where}: delay must be >= 1")
        if link.capacity is not None and link.capacity < 1:
            v.append(f"{where}: capacity must be >= 1 when finite")

    if topology.cost_model is CostModel.NODE_FLOW:
        costs = topology.node_costs or {}
        for nd in topology.nodes:
            if nd.id not in costs:
                v.append(f"missing node cost for node {nd.label}")
            else:
                c = costs[nd.id]
                if not (0 <= c.base < math.inf and 0 <= c.per_flow < math.inf):
                    v.append(f"node cost for {nd.label} must be finite and non-negative")
    elif topology.node_costs:
        v.append("node_costs present in link-delay mode")

    if len(traffic.rates) != n or len(traffic.dest_probs) != n:
        v.append("traffic spec size does not match node count")
        return ValidationReport(v)

    for s in range(n):
        rate = traffic.rates[s]
        row = traffic.dest_probs[s]
        if rate < 0:
            v.append(f"negative traffic rate at node {labels[s]}")
        if not all(0 <= p < math.inf for p in row):
            v.append(f"negative or non-finite destination weight at node {labels[s]}")
        if row[s] != 0.0:
            v.append(f"destination distribution of {labels[s]} puts weight on itself")
        if rate > 0:
            if not abs(sum(row) - 1.0) <= 1e-12:
                v.append(f"destination distribution of {labels[s]} does not sum to 1")
            reach = _reachable(topology, s)
            targets = [y for y in range(n) if row[y] > 0.0]
            for y in targets:
                if y not in reach:
                    v.append(f"unreachable destination {labels[y]} from {labels[s]}")
            # every node a wandering packet can sit at needs a way out
            for m in reach:
                if not topology.out_link_indices(m) and any(y != m for y in targets):
                    v.append(f"node {labels[m]} has no outgoing links")

    # dedupe, preserving order
    seen: set[str] = set()
    unique = [x for x in v if not (x in seen or seen.add(x))]
    return ValidationReport(unique)

"""Network model: nodes, links, node cost functions, traffic, validation.

validate_topology holds every rule of the network and traffic config
sections and returns the violations as `<dotted config key>: <problem>`,
e.g. "traffic.rates.A: must be an integer from 0 to 10000, got 10001".

Topologies are immutable once constructed and safe to share read-only.
Routing-relevant order is pinned here: the outgoing links of a node are
always listed in link declaration order, and that order defines the
column order of every per-router parameter table, eligibility trace row
and action distribution built on top of the topology.
"""
from __future__ import annotations

import heapq
import math
import sys
from enum import Enum
from typing import NamedTuple


class TopologyError(ValueError):
    """Raised for lookups on nodes/paths that do not exist."""


class CostModel(Enum):
    LINK_DELAY = "link_delay"
    NODE_FLOW = "node_flow"


class Link(NamedTuple):
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


class NodeCost(NamedTuple):
    """Affine per-packet cost of transiting a node: base + per_flow * x,
    where x is the node's packet flow within the tick."""

    base: float = 0.0
    per_flow: float = 0.0

    def cost(self, flow: float) -> float:
        return self.base + self.per_flow * flow


class TrafficSpec(NamedTuple):
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


class Topology(NamedTuple):
    """Node labels, links, the cost model and, in a node-flow network,
    each node's cost. A node's id is its position in `nodes`, and
    node_costs is by node id, like TrafficSpec.rates."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    cost_model: CostModel = CostModel.LINK_DELAY
    node_costs: tuple[NodeCost, ...] | None = None

    @classmethod
    def build(
        cls,
        labels: list[str],
        links: list[tuple],
        cost_model: CostModel = CostModel.LINK_DELAY,
        node_costs: dict[str, NodeCost] | None = None,
    ) -> "Topology":
        """Construct from labels, (src_label, dst_label, delay[, capacity[,
        label]]) tuples and node costs by label."""
        ids = {lb: i for i, lb in enumerate(labels)}
        built = tuple(Link(ids[spec[0]], ids[spec[1]], *spec[2:]) for spec in links)
        costs = None if node_costs is None else tuple(node_costs.get(lb) for lb in labels)
        return cls(nodes=tuple(labels), links=built, cost_model=cost_model, node_costs=costs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_id(self, label: str) -> int:
        if label not in self.nodes:
            raise TopologyError(f"unknown node label {label!r}")
        return self.nodes.index(label)

    def label(self, node: int) -> str:
        return self.nodes[node]

    def out_links(self) -> list[tuple[int, ...]]:
        """By node, the indices into `links` of its outgoing links, in
        declaration order: the slot order of its policy rows and traces.
        One pass over the links; a loop over nodes reads it once."""
        n = len(self.nodes)
        out: list[list[int]] = [[] for _ in range(n)]
        for i, link in enumerate(self.links):
            if _is_node(link.src, n) and _is_node(link.dst, n):
                out[link.src].append(i)
        return [tuple(o) for o in out]

    def out_link_indices(self, node: int) -> tuple[int, ...]:
        """out_links()[node], for one node."""
        if not 0 <= node < len(self.nodes):
            raise TopologyError(f"unknown node id {node}")
        return self.out_links()[node]

    def link_label(self, index: int) -> str:
        """Display name of a link: its explicit label, else src+dst labels."""
        link = self.links[index]
        if link.label:
            return link.label
        return f"{self.nodes[link.src]}{self.nodes[link.dst]}"


def shortest_path_delay(topology: Topology, src: int, dst: int) -> int:
    """Minimal total link delay from src to dst (Dijkstra). 0 for src == dst."""
    if topology.cost_model is not CostModel.LINK_DELAY:
        raise TopologyError("shortest_path_delay is defined for link-delay topologies")
    n = topology.n_nodes
    if not (0 <= src < n and 0 <= dst < n):
        raise TopologyError(f"unknown node id {src if not 0 <= src < n else dst}")
    if src == dst:
        return 0
    out = topology.out_links()
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == dst:
            return d
        if d > dist.get(node, d):
            continue
        for i in out[node]:
            link = topology.links[i]
            nd = d + link.delay
            if nd < dist.get(link.dst, nd + 1):
                dist[link.dst] = nd
                heapq.heappush(heap, (nd, link.dst))
    raise TopologyError(
        f"{topology.label(dst)} unreachable from {topology.label(src)}"
    )


def _node_on_cycle(topology: Topology, out: list[tuple[int, ...]]) -> int | None:
    """A node on a directed cycle of the topology, whose out-link table
    is `out`, or None (depth-first search: a link back to a node on the
    search path closes a cycle)."""
    links = topology.links
    state = [0] * topology.n_nodes  # 0 unseen, 1 on the search path, 2 done
    for root in range(topology.n_nodes):
        path = [] if state[root] else [root]
        while path:
            node = path[-1]
            state[node] = 1
            for i in out[node]:
                nxt = links[i].dst
                if state[nxt] == 1:
                    return nxt
                if state[nxt] == 0:
                    path.append(nxt)
                    break
            else:
                state[node] = 2
                path.pop()
    return None


def _reachable(topology: Topology, out: list[tuple[int, ...]], src: int) -> set[int]:
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        for i in out[node]:
            dst = topology.links[i].dst
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


# the most packets one source may generate per tick. Each packet is a
# Python object of about 0.85 kB (its cycle-detection deque included) that
# lives until it is delivered, and a tick makes and routes every one of
# them, so a rate like 10**30 would never finish its first tick and would
# grow memory without bound. The presets' rates are at most 6; this cap
# still admits 8.5 MB of new packets per source per tick.
MAX_RATE = 10_000


def _is_int(value) -> bool:
    """An integer: an int, and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_node(value, n: int) -> bool:
    """A node id of an n-node network: an integer from 0 to n - 1."""
    return _is_int(value) and 0 <= value < n


def _is_number(value) -> bool:
    """A float, or an integer that a float can hold."""
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def _number_rule(
    key: str, value, ok=lambda x: 0 <= x < math.inf, rule="must be finite and non-negative"
) -> list[str]:
    """`<key>: must be a number` unless _is_number(value), else `<key>:
    <rule>` unless ok(value), else []: a value of the wrong type is never
    compared."""
    if not _is_number(value):
        return [f"{key}: must be a number, got {value!r}"]
    return [] if ok(value) else [f"{key}: {rule}, got {value!r}"]


def validate_topology(topology: Topology, traffic: TrafficSpec) -> tuple[str, ...]:
    """The violations of the network and traffic rules, each as
    `<dotted config key>: <problem>`, deduped, in order; () when valid.

    Detects: a cost model that is not a CostModel (reported alone, since
    every other rule depends on it), no nodes or a label that is not a
    string (a node's id is its position), duplicate labels, a link
    endpoint that is not a node id, a link label that is not a string or
    None, self-loops, a delay or capacity that is not an integer >= 1, a
    capacity in a node-flow network, a rate that is not an integer from 0
    to MAX_RATE, malformed destination distributions, nodes with traffic
    but no outgoing links, unreachable destinations, node costs that are
    not a tuple of one entry per node, missing, misplaced or mistyped node
    costs for the active cost model, and a directed cycle in a node-flow
    network, where a packet walks its whole path in one tick. A value of
    the wrong type is reported, never compared.
    """
    if not isinstance(topology.cost_model, CostModel):
        return (f"network.cost_model: must be a CostModel, got {topology.cost_model!r}",)
    v: list[str] = []
    n = topology.n_nodes
    out = topology.out_links()

    labels = topology.nodes
    # the loader's own rule, so that a run's saved config loads back
    if not labels or not all(isinstance(lb, str) for lb in labels):
        v.append("network.nodes: must be a non-empty list of labels")
    elif len(set(labels)) != len(labels):
        v.append("network.nodes: labels must be unique")

    for i, link in enumerate(topology.links):
        where = f"network.links[{i}]"
        # the loader's own rule, so that a run's saved config loads back
        if not (link.label is None or isinstance(link.label, str)):
            v.append(f"{where}.label: must be a string or null")
        if not (_is_node(link.src, n) and _is_node(link.dst, n)):
            v.append(f"{where}: dangling link endpoint ({link.src!r}->{link.dst!r})")
            continue
        if link.src == link.dst:
            v.append(f"{where}: self-loop at {labels[link.src]}")
        if not (_is_int(link.delay) and link.delay >= 1):
            v.append(f"{where}.delay: must be an integer >= 1, got {link.delay!r}")
        capacity = link.capacity
        if capacity is not None and topology.cost_model is CostModel.NODE_FLOW:
            v.append(f"{where}.capacity: only a link_delay network has link capacities")
        elif capacity is not None and not (_is_int(capacity) and capacity >= 1):
            v.append(f"{where}.capacity: must be an integer >= 1 or null, got {capacity!r}")

    costs = topology.node_costs
    if not (costs is None or isinstance(costs, tuple) and len(costs) == n):
        v.append(f"network.node_costs: must be one NodeCost per node, got {costs!r}")
    elif topology.cost_model is CostModel.NODE_FLOW:
        for label, cost in zip(labels, costs or (None,) * n):
            where = f"network.node_costs.{label}"
            if cost is None:
                v.append(f"{where}: missing node cost")
            elif not isinstance(cost, NodeCost):
                v.append(f"{where}: must be a NodeCost, got {cost!r}")
            else:
                for field, x in zip(NodeCost._fields, cost):
                    v += _number_rule(f"{where}.{field}", x)
    elif costs is not None:
        v.append("network.node_costs: only a node_flow network has node costs")
    if topology.cost_model is CostModel.NODE_FLOW:
        on_cycle = _node_on_cycle(topology, out)
        if on_cycle is not None:
            v.append(
                f"network.links: directed cycle through node {labels[on_cycle]}: "
                "a node-flow network must be acyclic"
            )

    if len(traffic.rates) != n or len(traffic.dest_probs) != n:
        v.append("traffic: rates and destinations must have one entry per node")
        return tuple(v)

    for s in range(n):
        rate = traffic.rates[s]
        row = traffic.dest_probs[s]
        where = f"traffic.destinations.{labels[s]}"
        bad = [m for lb, p in zip(labels, row) for m in _number_rule(f"{where}.{lb}", p)]
        if len(row) != n:
            bad.append(f"{where}: must have one weight per node, got {len(row)}")
        v += bad
        if not bad and row[s] != 0.0:
            v.append(f"{where}: puts weight on its own source")
        if not (_is_int(rate) and 0 <= rate <= MAX_RATE):
            v.append(
                f"traffic.rates.{labels[s]}: must be an integer from 0 to {MAX_RATE}, "
                f"got {rate!r}"
            )
        elif rate > 0 and not bad:
            if not abs(sum(row) - 1.0) <= 1e-12:
                v.append(f"{where}: does not sum to 1")
            reach = _reachable(topology, out, s)
            targets = [y for y in range(n) if row[y] > 0.0]
            for y in targets:
                if y not in reach:
                    v.append(f"{where}: unreachable destination {labels[y]}")
            # every node a wandering packet can sit at needs a way out
            for m in reach:
                if not out[m] and any(y != m for y in targets):
                    v.append(f"network.links: node {labels[m]} has no outgoing links")

    return tuple(dict.fromkeys(v))  # deduped, in order

"""Hierarchical routing tables, packet forwarding, stretch measurement.

Every node's table holds one self entry, one entry per other node in
its own leaf cluster, and one entry per sibling of each of its ancestor
clusters, so the table length is 1 + sum over levels of (units visible
at that level - 1).  Next hops take the first edge of a breadth-first
shortest path computed inside the tightest cluster enclosing both the
owner and the target: the leaf cluster for node entries, the owner's
parent cluster at the key's level for sibling-cluster entries (the
entire graph for top-level keys).  Routes therefore descend through a
common parent and never leave it, which is what keeps stateless
per-hop forwarding loop-free.  Where several first edges tie, the
lowest node id wins.  An entry for a sibling cluster aims at that
cluster's nearest member (nearest by hop count inside the parent, ties
by lowest member id, then lowest next-hop id).

Tables come from breadth-first searches, and no all-pairs distance
matrix is kept.  Each sibling cluster gets one search that carries
gateways, started from all of its members and confined to its parent: a
reached node records its distance, its gateway (nearest source, lowest
id among ties) and its next hop (lowest-id neighbor one layer closer
with that gateway).  That costs O(branching * edges) per level.  Each
leaf gets one bit-parallel search of the distances between its members
(graphs._induced_lengths), run over blocks of targets; the next hop
from u toward t is the lowest-id neighbor w inside the leaf with
d(w, t) = d(u, t) - 1.  A leaf of m members costs about m / 64 passes
over its edges per search level, plus one vectorised pass over its
edges per target block for the next hops.  Memory beyond the tables
is one block of distances, bounded by graphs._SEARCH_CELLS cells.

Forwarding resolves the destination to the finest key the current node
can see: the destination itself inside the node's own leaf cluster,
otherwise the destination's ancestor cluster at the first level where
the two label paths diverge.  Hops are counted against a loop guard of
n_nodes; exceeding it raises RoutingLoopError naming the cycle.

Measurement never walks routes one by one.  Forwarding is stateless, so
a route's length obeys L(x, t) = 1 + L(next(x, t), t): measure fills an
n x n next-hop array, one row per node, where each table entry covers
every destination its key resolves to, then resolves all lengths
toward a block of destinations at once by pointer jumping.  A pair
whose jumps never reach its destination hits a missing entry or a
cycle; the first such pair in source-major order is walked along the
next-hop array and raises exactly what route() raises for it.  The
result, including the bits of the per-pair ratio sum, equals routing
every ordered pair with route() in source-major order.  Shortest
lengths come from the same bit-parallel search over the entire graph,
one block of sources at a time, so no n x n shortest-length matrix is
held.  The headline s_p is the ratio of means (mean hierarchical route
length over mean shortest length); the mean of per-pair ratios is
reported alongside for transparency but it is not s_p.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, _induced_lengths, _ranked_neighbors
from .hierarchy import Hierarchy


class RoutingError(ValueError):
    """Forwarding hit a table without a usable entry."""


class RoutingLoopError(RoutingError):
    """The loop guard tripped; carries the offending cycle."""

    def __init__(self, message: str, cycle: list[int]):
        super().__init__(message)
        self.cycle = cycle


@dataclass(frozen=True)
class RoutingTable:
    """One node's table.  Keys are destination nodes in the owner's leaf
    cluster (node_entries) or (level, cluster id) ancestor siblings
    (cluster_entries); values are next-hop neighbor ids."""

    owner: int
    node_entries: dict[int, int]
    cluster_entries: dict[tuple[int, int], int]

    @property
    def length(self) -> int:
        """Entry count, including the owner's self entry."""
        return 1 + len(self.node_entries) + len(self.cluster_entries)


def _prefix_groups(paths: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], list[int]]:
    """Members under every label-path prefix, in ascending id order: the
    empty prefix is the entire graph, a full path is a leaf cluster."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for u, p in enumerate(paths):
        for k in range(len(p) + 1):
            groups.setdefault(p[:k], []).append(u)
    return groups


def _gateway_bfs(
    adj, sources: Sequence[int], inside: set[int]
) -> dict[int, tuple[int, int, int]]:
    """node -> (distance, gateway, next hop) for every node of `inside`
    that a breadth-first search from `sources` reaches without leaving it.

    The gateway is the nearest source, ties going to the lowest id; the
    next hop is the lowest-id neighbor one step closer to that gateway.
    A node's nearest sources are the union of those of its neighbors one
    layer closer, so both follow from the minimum (gateway, hop) pair
    over that layer, which is complete before the node is popped.
    """
    found = {s: (0, s, s) for s in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        d, g, _ = found[u]
        d += 1
        for w in adj[u]:
            if w in inside:
                old = found.get(w)
                if old is None:
                    found[w] = (d, g, u)
                    queue.append(w)
                elif old[0] == d and (g < old[1] or g == old[1] and u < old[2]):
                    found[w] = (d, g, u)
    return found


def _leaf_entries(adj, members: list[int], node_entries: list[dict[int, int]]) -> None:
    """Add every member's node entries toward the other members of its
    leaf cluster, `members` (ascending).

    The next hop from u toward t is the lowest-id neighbor w inside the
    leaf with d(w, t) = d(u, t) - 1, the first edge that a breadth-first
    search from t finds.  The distances toward a block of targets come
    from one search; the neighbors are tried from the last rank down, so
    the lowest-id match is written last.  Entries store the members' own
    int objects.
    """
    m = len(members)
    order, ranks = _ranked_neighbors(adj, members)
    s0 = 0
    for dist in _induced_lengths(adj, members):
        k = len(dist)
        missing = np.argwhere(dist < 0)  # ordered by target, then node
        if len(missing):
            r, i = missing[0]
            raise RoutingError(
                f"node {members[i]} cannot reach node {members[s0 + r]} "
                "inside its leaf cluster"
            )
        dist = np.ascontiguousarray(dist.T)  # [u, t]
        closer = dist - 1
        hop = np.full((m, k), -1, dtype=np.int32)  # -1 stays on u == t
        for w in reversed(ranks):
            nodes = order[: len(w)]
            hop[nodes] = np.where(dist[w] == closer[nodes], w[:, None], hop[nodes])
        targets = members[s0 : s0 + k]
        for u, row in zip(members, hop):
            hops = map(members.__getitem__, row.tolist())
            node_entries[u].update(compress(zip(targets, hops), (row >= 0).tolist()))
        s0 += k


def build_tables(graph: Graph, hierarchy: Hierarchy) -> tuple[RoutingTable, ...]:
    """Tables for every node.

    Next hops for a key are computed inside the induced subgraph of the
    tightest cluster enclosing both the owner and the key (see the
    module docstring).  A disconnected cluster raises RoutingError
    naming a node and the target it cannot reach.
    """
    n = graph.n_nodes
    if hierarchy.n_nodes != n:
        raise ValueError(
            f"hierarchy covers {hierarchy.n_nodes} nodes, graph has {n}"
        )
    hierarchy._require_uniform()
    adj = graph.adj
    paths = hierarchy.label_paths
    depth = hierarchy.levels - 1
    groups = _prefix_groups(paths)
    node_entries: list[dict[int, int]] = [{} for _ in range(n)]
    cluster_entries: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    # by prefix length, so every table lists its cluster entries level by level
    for key in sorted(groups, key=len):
        members = groups[key]
        if key:
            # a sibling-cluster entry for every node of the parent outside key
            level, cid = len(key), key[-1]
            parent = groups[key[:-1]]
            found = _gateway_bfs(adj, members, set(parent))
            for u in parent:
                if paths[u][level - 1] != cid:
                    if u not in found:
                        raise RoutingError(
                            f"node {u} cannot reach level {level} cluster {cid} "
                            f"inside level {level - 1} cluster {key[-2]}"
                        )
                    cluster_entries[u][(level, cid)] = found[u][2]
        if len(key) == depth:
            _leaf_entries(adj, members, node_entries)
    return tuple(
        RoutingTable(u, node_entries[u], cluster_entries[u]) for u in range(n)
    )


def route(
    tables: Sequence[RoutingTable],
    graph: Graph,
    hierarchy: Hierarchy,
    src: int,
    dst: int,
) -> list[int]:
    """Forward a packet hop by hop; returns the node sequence src..dst."""
    n = graph.n_nodes
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"src/dst must lie in [0, {n}) (got {src}, {dst})")
    if src == dst:
        raise ValueError("src and dst must differ")
    paths = hierarchy.label_paths
    p_dst = paths[dst]

    def next_hop(x: int) -> int | None:
        px = paths[x]
        if px == p_dst:
            return tables[x].node_entries.get(dst)
        j = next(i for i in range(len(px)) if px[i] != p_dst[i])
        return tables[x].cluster_entries.get((j + 1, p_dst[j]))

    return _follow(next_hop, n, src, dst)


def _follow(next_hop: Callable[[int], int | None], n: int, src: int, dst: int) -> list[int]:
    """Hop sequence src..dst along next_hop (None: no entry covers dst),
    with the loop guard: more than n hops raises RoutingLoopError."""
    hops = [src]
    x = src
    while x != dst:
        nxt = next_hop(x)
        if nxt is None:
            raise RoutingError(f"node {x} has no entry covering destination {dst}")
        hops.append(nxt)
        x = nxt
        if len(hops) - 1 > n:
            first = hops.index(x)
            cycle = hops[first:]
            raise RoutingLoopError(
                f"routing loop from {src} to {dst}: "
                + " -> ".join(map(str, cycle)),
                cycle,
            )
    return hops


@dataclass(frozen=True)
class StretchReport:
    """Measured operating point of one (graph, hierarchy) pair."""

    n_nodes: int
    levels: int
    method: str
    s_p: float
    s_t: float
    mean_table_length: float
    mean_hier_path: float
    mean_shortest_path: float
    mean_path_ratio: float
    histogram: tuple[tuple[int, int], ...]

    CSV_HEADER = "n,levels,method,s_p,s_t,mean_table,mean_hier,mean_short"

    def csv_record(self) -> str:
        fields = [
            str(self.n_nodes),
            str(self.levels),
            self.method,
            _fmt(self.s_p),
            _fmt(self.s_t),
            _fmt(self.mean_table_length),
            _fmt(self.mean_hier_path),
            _fmt(self.mean_shortest_path),
        ]
        return ",".join(fields)

    def to_text(self) -> str:
        lines = [
            f"n: {self.n_nodes}",
            f"levels: {self.levels}",
            f"method: {self.method}",
            f"s_p: {_fmt(self.s_p)}",
            f"s_t: {_fmt(self.s_t)}",
            f"mean_table_length: {_fmt(self.mean_table_length)}",
            f"mean_hier_path: {_fmt(self.mean_hier_path)}",
            f"mean_shortest_path: {_fmt(self.mean_shortest_path)}",
            f"mean_path_ratio: {_fmt(self.mean_path_ratio)}",
            "histogram:",
        ]
        lines.extend(f"  {length}: {count}" for length, count in self.histogram)
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _next_hops(
    tables: Sequence[RoutingTable], hierarchy: Hierarchy
) -> np.ndarray:
    """n x n int32 array: [x, t] is x's next hop toward t as route()
    resolves it, x itself on the diagonal, -1 where no entry covers t."""
    n = hierarchy.n_nodes
    paths = hierarchy.label_paths
    # a node entry covers its target inside the owner's leaf, and a cluster
    # entry (level, cid) covers the destinations whose paths first leave
    # the owner's at that level into cid
    groups = _prefix_groups(paths)
    members = {key: np.array(mem, dtype=np.intp) for key, mem in groups.items()}
    nxt = np.full((n, n), -1, dtype=np.int32)
    for x, table in enumerate(tables):
        row = nxt[x]
        px = paths[x]
        leaf = groups[px]
        row[members[px]] = [table.node_entries.get(v, -1) for v in leaf]
        for (level, cid), hop in table.cluster_entries.items():
            if cid != px[level - 1]:
                covered = members.get(px[: level - 1] + (cid,))
                if covered is not None:
                    row[covered] = hop
        row[x] = x
    return nxt


# cells (destinations x (n + 1)) per pointer-jumping block: keeps each
# block's temporaries to a few hundred kB whatever n is
_BLOCK_CELLS = 1 << 16


def _route_lengths(nxt: np.ndarray) -> np.ndarray:
    """n x n int32 hop counts of every route, [src, dst], 0 on the diagonal.

    Each block of destinations is resolved by pointer jumping: after r
    rounds every node points 2**r hops down its route and holds the hops
    it skipped.  Column n is a sink that absorbs missing entries.  The
    first pair in source-major order that does not reach its destination
    within n - 1 hops is walked along nxt, which raises what route()
    raises for it.
    """
    n = len(nxt)
    lengths = np.empty((n, n), dtype=np.int32)
    block = max(1, _BLOCK_CELLS // (n + 1))
    first_bad: tuple[int, int] | None = None
    for t0 in range(0, n, block):
        t1 = min(t0 + block, n)
        rows = np.arange(t1 - t0)
        targets = (t0 + rows)[:, None]
        hop = np.full((t1 - t0, n + 1), n, dtype=np.int32)
        hop[:, :n] = nxt[:, t0:t1].T
        hop[hop < 0] = n
        skipped = np.ones_like(hop)
        skipped[rows, t0 + rows] = 0
        skipped[:, n] = 0
        offsets = (rows * (n + 1))[:, None]
        for _ in range((n - 2).bit_length()):  # 2**rounds >= n - 1 hops
            flat = hop + offsets
            jumped = hop.ravel()[flat]
            if np.array_equal(jumped, hop):
                break
            skipped += skipped.ravel()[flat]
            hop = jumped
        bad = hop[:, :n] != targets
        if bad.any():
            src = int(np.flatnonzero(bad.any(axis=0))[0])
            pair = (src, t0 + int(np.flatnonzero(bad[:, src])[0]))
            first_bad = pair if first_bad is None else min(first_bad, pair)
        lengths[:, t0:t1] = skipped[:, :n].T
    if first_bad is not None:
        src, dst = first_bad
        _follow(lambda x: int(nxt[x, dst]) if nxt[x, dst] >= 0 else None, n, src, dst)
    return lengths


def measure(
    graph: Graph,
    hierarchy: Hierarchy,
    method: str | None = None,
) -> StretchReport:
    """Length of every ordered pair's route and both stretch factors."""
    n = graph.n_nodes
    if n < 2:
        raise ValueError("stretch measurement needs at least two nodes")
    tables = build_tables(graph, hierarchy)
    mean_table = sum(t.length for t in tables) / n
    nxt = _next_hops(tables, hierarchy)
    del tables  # the largest structures; nothing below reads them
    lengths = _route_lengths(nxt)
    del nxt
    # the per-pair ratios summed one by one in source-major order: cumsum
    # accumulates sequentially, unlike np.sum, and the diagonal adds 0.0
    ratio_sum = 0.0
    short_sum = 0
    s0 = 0
    for short in _induced_lengths(graph.adj, range(n)):
        k = len(short)
        short_sum += int(short.sum(dtype=np.int64))
        ratios = short.astype(np.float64)
        ratios[np.arange(k), np.arange(s0, s0 + k)] = 1.0
        np.divide(lengths[s0 : s0 + k], ratios, out=ratios)
        ratios = ratios.ravel()
        ratios[0] += ratio_sum
        ratio_sum = float(np.cumsum(ratios, out=ratios)[-1])
        s0 += k
    counts = np.bincount(lengths.ravel())
    counts[0] -= n
    pairs = n * (n - 1)
    mean_hier = int(lengths.sum(dtype=np.int64)) / pairs
    mean_short = short_sum / pairs
    return StretchReport(
        n_nodes=n,
        levels=hierarchy.levels,
        method=method if method is not None else hierarchy.method,
        s_p=mean_hier / mean_short,
        s_t=mean_table / n,
        mean_table_length=mean_table,
        mean_hier_path=mean_hier,
        mean_shortest_path=mean_short,
        mean_path_ratio=ratio_sum / pairs,
        histogram=tuple((k, c) for k, c in enumerate(counts.tolist()) if c),
    )

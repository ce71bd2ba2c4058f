"""Hierarchical routing tables, packet forwarding, stretch measurement.

Every node's table holds one self entry, one entry per other node in
its own leaf cluster, and one entry per sibling of each of its ancestor
clusters, so the table length is 1 + sum over levels of (units visible
at that level - 1).  Next hops take the first edge of a breadth-first
shortest path computed inside the tightest cluster enclosing both the
owner and the target: the leaf cluster for node entries, the owner's
parent cluster at the key's level for sibling-cluster entries (the
whole graph for top-level keys).  Routes therefore descend through a
common parent and never leave it, which is what keeps stateless
per-hop forwarding loop-free.  Where several first edges tie, the
lowest node id wins.  An entry for a sibling cluster aims at that
cluster's nearest member (nearest by hop count inside the parent, ties
by lowest member id, then lowest next-hop id).

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
every ordered pair with route() in source-major order.  The headline
s_p is the ratio of means (mean hierarchical route length over mean
shortest length); the mean of per-pair ratios is reported alongside for
transparency but it is not s_p.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, all_pairs_shortest_lengths
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


def _induced_distances(nodes: Sequence[int], adj) -> dict[int, dict[int, int]]:
    """All-pairs BFS hop counts inside the induced subgraph of `nodes`."""
    node_set = set(nodes)
    out: dict[int, dict[int, int]] = {}
    for s in nodes:
        d = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in node_set and w not in d:
                    d[w] = d[u] + 1
                    queue.append(w)
        out[s] = d
    return out


def _hop_toward(adj, d_ctx: dict[int, dict[int, int]], u: int, t: int) -> int:
    """First edge of a shortest u->t path inside the context whose
    distances are d_ctx; adj rows are sorted, so the first qualifying
    neighbor is the lowest id."""
    du = d_ctx[u].get(t)
    if du is None:
        raise RoutingError(f"{t} unreachable from {u} inside its cluster")
    for w in adj[u]:
        row = d_ctx.get(w)
        if row is not None and row.get(t) == du - 1:
            return w
    raise RoutingError(f"no shortest-path edge from {u} toward {t}")


def build_tables(
    graph: Graph,
    hierarchy: Hierarchy,
    dist: Sequence[Sequence[int]] | None = None,
) -> tuple[RoutingTable, ...]:
    """Tables for every node; pass a precomputed distance matrix to reuse it.

    Next hops for a key are computed inside the induced subgraph of the
    tightest cluster enclosing both the owner and the key (see the
    module docstring); hierarchy invariants guarantee those subgraphs
    are connected.
    """
    n = graph.n_nodes
    if hierarchy.n_nodes != n:
        raise ValueError(
            f"hierarchy covers {hierarchy.n_nodes} nodes, graph has {n}"
        )
    if dist is None:
        dist = all_pairs_shortest_lengths(graph)
    # the whole graph is the context for top-level keys (and for a flat leaf)
    whole: dict[int, dict[int, int]] = {
        u: {v: dist[u][v] for v in range(n)} for u in range(n)
    }
    paths = hierarchy.label_paths
    leaf_groups = hierarchy.leaf_groups()
    leaf_dist: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
    for key, members in leaf_groups.items():
        leaf_dist[key] = whole if len(members) == n else _induced_distances(members, graph.adj)
    # per level: members of each cluster, sibling groups keyed by parent
    # prefix, and induced distances of each parent cluster
    level_members: list[dict[int, list[int]]] = []
    level_siblings: list[dict[tuple[int, ...], list[int]]] = []
    parent_dist: list[dict[tuple[int, ...], dict[int, dict[int, int]]]] = []
    prev_members: dict[int, list[int]] | None = None
    for level in range(1, hierarchy.levels):
        members = hierarchy.clusters_at_level(level)
        level_members.append(members)
        sib: dict[tuple[int, ...], list[int]] = {}
        for cid, mem in members.items():
            sib.setdefault(paths[mem[0]][: level - 1], []).append(cid)
        level_siblings.append(sib)
        ctx: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
        if level == 1:
            ctx[()] = whole
        else:
            assert prev_members is not None
            for pcid, pmem in prev_members.items():
                prefix = paths[pmem[0]][: level - 1]
                ctx[prefix] = _induced_distances(pmem, graph.adj)
        parent_dist.append(ctx)
        prev_members = members
    tables = []
    for u in range(n):
        pu = paths[u]
        node_entries: dict[int, int] = {}
        d_leaf = leaf_dist[pu]
        for v in leaf_groups[pu]:
            if v != u:
                node_entries[v] = _hop_toward(graph.adj, d_leaf, u, v)
        cluster_entries: dict[tuple[int, int], int] = {}
        for level in range(1, hierarchy.levels):
            own = pu[level - 1]
            d_ctx = parent_dist[level - 1][pu[: level - 1]]
            du = d_ctx[u]
            for cid in level_siblings[level - 1][pu[: level - 1]]:
                if cid == own:
                    continue
                members = level_members[level - 1][cid]
                gateway = min(members, key=lambda mm: (du[mm], mm))
                cluster_entries[(level, cid)] = _hop_toward(graph.adj, d_ctx, u, gateway)
        tables.append(RoutingTable(u, node_entries, cluster_entries))
    return tuple(tables)


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
    # members under every label-path prefix: a node entry covers its target
    # inside the owner's leaf, and a cluster entry (level, cid) covers the
    # destinations whose paths first leave the owner's at that level into cid
    groups: dict[tuple[int, ...], list[int]] = {}
    for u, p in enumerate(paths):
        for k in range(len(p) + 1):
            groups.setdefault(p[:k], []).append(u)
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
    dist: Sequence[Sequence[int]] | None = None,
) -> StretchReport:
    """Length of every ordered pair's route and both stretch factors."""
    n = graph.n_nodes
    if n < 2:
        raise ValueError("stretch measurement needs at least two nodes")
    if dist is None:
        dist = all_pairs_shortest_lengths(graph)
    tables = build_tables(graph, hierarchy, dist)
    lengths = _route_lengths(_next_hops(tables, hierarchy))
    # the per-pair ratios summed one by one in source-major order: cumsum
    # accumulates sequentially, unlike np.sum, and the diagonal adds 0.0
    ratio_sum = 0.0
    for src in range(n):
        short = np.array(dist[src], dtype=np.float64)
        short[src] = 1.0
        ratios = lengths[src] / short
        ratios[0] += ratio_sum
        ratio_sum = float(np.cumsum(ratios)[-1])
    counts = np.bincount(lengths.ravel())
    counts[0] -= n
    pairs = n * (n - 1)
    mean_hier = int(lengths.sum(dtype=np.int64)) / pairs
    mean_short = sum(map(sum, dist)) / pairs
    mean_table = sum(t.length for t in tables) / n
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

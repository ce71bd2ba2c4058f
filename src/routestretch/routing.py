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

Tables come from measure's arrays (below), and no all-pairs distance
matrix is kept.  A sibling cluster's entries come from its copy of the
gateway search, confined to its parent: a reached node has a distance
and a gateway (nearest member, lowest id among ties), and its next hop
is its lowest-id neighbor one step closer with the same gateway, found
for every node at once over the CSR arrays (_first_hops).  A node entry
toward t is a sibling entry toward the one-member cluster {t} inside
the leaf: one search of the leaves side by side, member j of every leaf
starting bit j, gives each d(u, t) inside a leaf, and the same rule,
with the leaf for the gateway, gives the next hop from u toward t.
Only the reference walk (route() over these tables) and the benchmark's
traced probe build tables: measure builds none.

build_tables and measure name a faulty hierarchy's first fault alike,
from the same arrays (_fault): the nodes of a parent that a copy of the
gateway search leaves unreached, and the members of a leaf that do not
reach its lowest member in it (graphs._label_roots).  routing runs no
breadth-first search of a node set.

Forwarding resolves the destination to the finest key the current node
can see: the destination itself inside the node's own leaf cluster,
otherwise the destination's ancestor cluster at the first level where
the two label paths diverge.  Hops are counted against a loop guard of
n_nodes; exceeding it raises RoutingLoopError naming the cycle.

Measurement builds no tables and walks no routes.  Forwarding toward a
sibling cluster C keeps the distance to C falling and the gateway fixed,
so a route's length obeys L(x, t) = d_P(x, C) + L(g_C(x), t), where P
is the finest cluster holding both x and t, C the child of P holding t,
and g_C(x) the gateway of x to C; inside t's leaf, L(x, t) is the
leaf's own distance d(x, t).  measure finds every d_P(x, C) and g_C(x)
with one array search over the graph's CSR (graphs._gateway_search):
every level and every sibling rank j side by side, copy (level, j)
starting from the rank j child of every cluster one level up and
keeping to that parent, and a newly reached node taking the lowest
gateway among its frontier neighbors: the lowest id among its nearest
members.
measure takes the targets a chunk of leaf positions at a time: member j
of every leaf, for j in the chunk.  One bit-parallel search of the
graph with the edges between two leaves dropped finds the leaf
distances toward the whole chunk, member j of every leaf starting bit
j, which cannot leave its leaf; in the first chunk, a node that member
0 of its leaf does not reach shows a split leaf.  The chunk is cut into
blocks of targets; for each block, one bit-parallel search of the
entire graph gives the shortest lengths, and the route lengths are
filled from the leaf outward, one array gather per level.  Chunks and
blocks hold about graphs._SEARCH_CELLS (node, target) cells, rounded
up to whole 64-bit words of targets, so no n x n array is held whatever
n is; a hierarchy whose one leaf is the entire graph takes its leaf
distances from the whole-graph search.  Distances and route lengths are
int16 below 2**15 nodes (graphs._distance_type), and one measure call
allocates one block-sized buffer each for the shortest lengths, the
route lengths and the leaf distances, refilled for every block and
chunk, so it does not touch fresh pages block after block.  Each block
adds to a count of (route length, shortest length) pairs, keyed and
counted a row chunk of about _TALLY_CELLS cells at a time, so no
block-sized intp array is made.  The means follow from that count as
exact integer sums, and the mean of per-pair ratios as one correctly
rounded division of exact integers.  The result equals routing every
ordered pair with route().  The headline s_p is the ratio of means
(mean hierarchical route length over mean shortest length); the mean of
per-pair ratios is reported alongside for transparency but it is not
s_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from . import graphs
from .graphs import Graph
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


def _require_fit(graph: Graph, hierarchy: Hierarchy) -> None:
    """ValueError for a hierarchy of another size than the graph or with
    label paths of several lengths."""
    if hierarchy.n_nodes != graph.n_nodes:
        raise ValueError(
            f"hierarchy covers {hierarchy.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    hierarchy._require_uniform()


def _nesting(
    paths: Sequence[tuple[int, ...]],
) -> list[tuple[np.ndarray, np.ndarray, list[int], list[int]]]:
    """(inside, cluster, up, rank) for each level k of clusters below the
    entire graph, coarsest first: inside[u] and cluster[u] index node u's
    clusters of levels k - 1 and k, up[c] indexes the level k - 1
    cluster holding level k cluster c, and rank[c] counts the siblings
    of c indexed before it.  A level's clusters are indexed in order of
    their lowest member."""
    index: dict[tuple[int, ...], int] = {}
    cluster = np.array([index.setdefault(p, len(index)) for p in paths])
    keys = list(index)
    nest = []
    while keys[0]:
        parents: dict[tuple[int, ...], int] = {}
        up = [parents.setdefault(key[:-1], len(parents)) for key in keys]
        inside = np.array(up)[cluster]
        seen = [0] * len(parents)
        rank = []
        for p in up:
            rank.append(seen[p])
            seen[p] += 1
        nest.append((inside, cluster, up, rank))
        keys, cluster = list(parents), inside
    nest.reverse()
    return nest


def _toward(graph: Graph, nest: list) -> tuple[list, list[list[tuple]] | None]:
    """(found, toward): found is the graphs._gateway_search of every level
    and sibling rank side by side, copy j of level k starting from the
    rank j children of every level k - 1 cluster, and toward[k - 1][c],
    for level k cluster c, holds the nodes of its parent outside it,
    their distances to it inside the parent (a column of
    graphs._distance_type(n)) and their gateways to it.  toward is None
    when a node cannot reach a sibling cluster inside their parent."""
    if not nest:
        return [], []
    starts = np.array([np.array(rank)[cluster] for _, cluster, _, rank in nest])
    found = graphs._gateway_search(graph, [inside for inside, *_ in nest], starts)
    toward = []
    for (dist, gw), (inside, cluster, up, rank) in zip(found, nest):
        # each parent's nodes in one run, runs in parent order
        by_parent, bounds = _members(inside)
        copies = []
        for d, g in zip(dist, gw):
            row = d[by_parent]
            at = np.flatnonzero(row > 0)  # the reached nodes outside the starts
            nodes = by_parent[at]
            copies.append((nodes, row[at][:, None], g[nodes], np.searchsorted(at, bounds).tolist()))
        outside = (np.bincount(inside)[up] - np.bincount(cluster)).tolist()
        level = []
        for r, p, m in zip(rank, up, outside):
            nodes, d, g, cut = copies[r]
            if cut[p + 1] - cut[p] < m:
                return found, None  # a node of the parent is out of reach
            s = slice(cut[p], cut[p + 1])
            level.append((nodes[s], d[s], g[s]))
        toward.append(level)
    return found, toward


def _fault(graph: Graph, hierarchy: Hierarchy, nest: list, found: list) -> NoReturn:
    """Raise the RoutingError of the first fault once the arrays show one:
    clusters coarsest level first, then by lowest member, a leaf's
    sibling check before its leaf check.  A sibling check fails at the
    lowest node of the parent that the cluster's copy in _toward's
    `found` leaves unreached, a leaf check at the lowest member whose
    leaf root (graphs._label_roots) is not the leaf's lowest member."""
    n = graph.n_nodes
    paths = hierarchy.label_paths
    for k, ((dist, _), (inside, cluster, up, rank)) in enumerate(zip(found, nest), 1):
        # which[r, p]: the rank r child of level k - 1 cluster p, -1 for none
        which = np.full((len(dist), max(up) + 1), -1)
        which[rank, up] = np.arange(len(up))
        copy, u = np.nonzero(dist < 0)
        c = which[copy, inside[u]]
        # a fault's place in that order: 2c for c's sibling check, 2c + 1
        # for its leaf check, then the node
        order = 2 * c[c >= 0] * n + u[c >= 0]
        if k == len(nest):
            firsts = np.unique(cluster, return_index=True)[1]
            split = np.flatnonzero(graphs._label_roots(graph, cluster) != firsts[cluster])
            order = np.concatenate((order, (2 * cluster[split] + 1) * n + split))
        if order.size:
            at, u = divmod(int(order.min()), n)
            m = int(np.argmax(cluster == at // 2))  # the cluster's lowest member
            if at % 2:
                raise RoutingError(f"node {u} cannot reach node {m} inside its leaf cluster")
            raise RoutingError(
                f"node {u} cannot reach level {k} cluster {paths[m][k - 1]} "
                f"inside level {k - 1} cluster {paths[u][k - 2]}"
            )
    raise AssertionError("the arrays show a fault that they do not name")


def _members(cluster: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(order, cut): the nodes by cluster, each cluster's in ascending
    order, cluster c's members at order[cut[c]:cut[c + 1]]."""
    return np.argsort(cluster, kind="stable"), [0, *np.bincount(cluster).cumsum().tolist()]


def _prelude(graph: Graph, hierarchy: Hierarchy) -> tuple:
    """(nest, found, toward, leaf, order, cut), what measure and
    build_tables both start from: the _nesting of the label paths, the
    _toward arrays, each node's leaf cluster, and the nodes by leaf
    (_members).  Raises the first fault when a node cannot reach a
    sibling cluster inside their parent."""
    _require_fit(graph, hierarchy)
    nest = _nesting(hierarchy.label_paths)
    found, toward = _toward(graph, nest)
    if toward is None:
        _fault(graph, hierarchy, nest, found)
    leaf = nest[-1][1] if nest else np.zeros(graph.n_nodes, dtype=np.intp)
    return nest, found, toward, leaf, *_members(leaf)


def _first_hops(graph: Graph, dist: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """The next-hop rule: hop[c, u] is the lowest-id neighbor w of node u
    one step closer to the same gateway, dist[c, w] = dist[c, u] - 1 and
    gw[c, w] = gw[c, u], for each row c of the (copies x n) arrays `dist`
    and `gw` (one gw row may serve all) where dist[c, u] > 0, and -1
    elsewhere.  Each node's hits are marked over its CSR row and the
    least is kept, for a chunk of rows of about a quarter of
    graphs._SEARCH_CELLS (row, edge) cells at a time."""
    ends, neighbors, degree = graph._csr
    gw = np.broadcast_to(gw, dist.shape)
    # node ids, like distances, lie below n
    hops = np.full(dist.shape, -1, dtype=graphs._distance_type(graph.n_nodes))
    if not neighbors.size:  # one node, no edges
        return hops
    step = max(1, (graphs._SEARCH_CELLS >> 2) // neighbors.size)
    for a in range(0, len(dist), step):
        d, g = dist[a : a + step], gw[a : a + step]
        closer = d[:, neighbors] == np.repeat(d, degree, axis=1) - 1
        closer &= g[:, neighbors] == np.repeat(g, degree, axis=1)
        hit = np.minimum.reduceat(np.where(closer, neighbors, graph.n_nodes), ends - degree, axis=1)
        hops[a : a + step] = np.where(d > 0, hit, -1)
    return hops


def build_tables(graph: Graph, hierarchy: Hierarchy) -> tuple[RoutingTable, ...]:
    """Tables for every node.

    Next hops for a key are computed inside the induced subgraph of the
    tightest cluster enclosing both the owner and the key (see the
    module docstring).  A disconnected cluster raises RoutingError
    naming a node and the target it cannot reach.
    """
    nest, found, _, leaf, order, cut = _prelude(graph, hierarchy)
    n = graph.n_nodes
    paths = hierarchy.label_paths
    # member j of every leaf starts bit j: column j holds each node's
    # distance to member j of its own leaf
    near = graphs._search(graph, leaf)(order, np.arange(n) - np.array(cut)[leaf[order]])
    if near[:, 0].min() < 0:
        _fault(graph, hierarchy, nest, found)
    ids = list(range(n))  # one int per node, shared by every entry
    cluster_entries: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    # coarsest first, then by sibling rank, so every table lists its
    # cluster entries level by level, each level's in cluster order: an
    # entry toward the cluster of the gateway, for every reached node but
    # the sources
    for k, (dist, gw) in enumerate(found, 1):
        for d, g, hop in zip(dist, gw, _first_hops(graph, dist, gw)):
            at = np.flatnonzero(d > 0)
            for u, t, w in zip(at.tolist(), g[at].tolist(), hop[at].tolist()):
                cluster_entries[u][k, paths[t][k - 1]] = ids[w]
    # toward each member t of a leaf: a sibling entry toward {t}, the leaf
    # for the gateway
    hops = _first_hops(graph, near.T, leaf)
    node_entries: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b in zip(cut, cut[1:]):
        members = order[a:b].tolist()
        for u, row in zip(members, hops[: b - a, order[a:b]].T):
            node_entries[u] = dict(zip(members, map(ids.__getitem__, row.tolist())))
            del node_entries[u][u]
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
    """Forward a packet hop by hop; returns the node sequence src..dst.

    Raises RoutingError when a node has no entry covering dst, and
    RoutingLoopError, carrying the cycle, after more than n_nodes hops.
    """
    n = graph.n_nodes
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"src/dst must lie in [0, {n}) (got {src}, {dst})")
    if src == dst:
        raise ValueError("src and dst must differ")
    paths = hierarchy.label_paths
    p_dst = paths[dst]
    hops = [src]
    x = src
    while x != dst:
        px = paths[x]
        if px == p_dst:
            nxt = tables[x].node_entries.get(dst)
        else:
            j = next(i for i in range(len(px)) if px[i] != p_dst[i])
            nxt = tables[x].cluster_entries.get((j + 1, p_dst[j]))
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


def _target_blocks(runs: list, size: int) -> Iterator[list]:
    """The targets of `runs`, run by run, cut into blocks of `size`
    targets: a run's first item is its targets, and a block is a list
    of (run, i0, i1) pieces, the run's targets at positions i0..i1-1."""
    block, room = [], size
    for run in runs:
        m = len(run[0])
        i0 = 0
        while i0 < m:
            i1 = min(m, i0 + room)
            block.append((run, i0, i1))
            room -= i1 - i0
            i0 = i1
            if not room:
                yield block
                block, room = [], size
    if block:
        yield block


# (node, target) cells per row chunk of _tally: 64 KB of intp keys
_TALLY_CELLS = 1 << 13


def _tally(joint: np.ndarray, lengths: np.ndarray, short: np.ndarray) -> np.ndarray:
    """joint, grown as needed, plus the count of every (route length,
    shortest length) pair of two (n x k) arrays.  bincount takes intp
    keys, so the rows are keyed and counted a chunk of about _TALLY_CELLS
    cells at a time, in one buffer."""
    rows, width = int(lengths.max()) + 1, int(short.max()) + 1
    n, k = lengths.shape
    step = max(1, _TALLY_CELLS // k)
    keys = np.empty((min(step, n), k), dtype=np.intp)
    counts = np.zeros(rows * width, dtype=np.intp)
    for r0 in range(0, n, step):
        chunk = keys[: min(step, n - r0)]
        np.multiply(lengths[r0 : r0 + step], width, out=chunk, dtype=np.intp)
        chunk += short[r0 : r0 + step]
        counts += np.bincount(chunk.ravel(), minlength=rows * width)
    have, wide = joint.shape
    grown = np.zeros((max(rows, have), max(width, wide)), dtype=np.int64)
    grown[:have, :wide] = joint
    grown[:rows, :width] += counts.reshape(rows, width)
    return grown


def _route_lengths(
    block: list,
    whole: Callable[..., np.ndarray],
    near: np.ndarray | None,
    short: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(route lengths, shortest lengths) from every node [x] toward the
    targets of a block [t], filled into the first columns of the buffers
    `lengths` and `short`.  `whole` searches the entire graph and `near`
    holds the leaf distances toward the targets' chunk (None when the
    one leaf is the entire graph, whose route lengths are the shortest)."""
    targets = np.concatenate([run[0][i0:i1] for run, i0, i1 in block])
    short = whole(targets, np.arange(len(targets)), short)
    lengths = short if near is None else lengths[:, : len(targets)]
    c0 = 0
    for (_, members, chain), i0, i1 in block:
        cols = slice(c0, c0 + i1 - i0)
        c0 = cols.stop
        if near is not None:
            lengths[members, cols] = near[members, i0:i1]
        # from the leaf outward: L(x, t) = d_P(x, C) + L(g_C(x), t) for
        # the nodes x of P outside C, the child of P holding t (module
        # docstring)
        for out, dist, gw in chain:
            via = lengths[gw, cols]
            via += dist
            lengths[out, cols] = via
    return lengths, short


def measure(
    graph: Graph,
    hierarchy: Hierarchy,
    method: str | None = None,
) -> StretchReport:
    """Length of every ordered pair's route and both stretch factors."""
    n = graph.n_nodes
    if n < 2:
        raise ValueError("stretch measurement needs at least two nodes")
    nest, found, toward, leaf, order, cut = _prelude(graph, hierarchy)
    # self entries and sibling entries
    entries = n + sum(len(out) for level in toward for out, _, _ in level)
    leaves = []  # (members, the toward arrays from the leaf outward)
    for c, (a, b) in enumerate(zip(cut, cut[1:])):
        entries += (b - a) * (b - a - 1)
        chain = []
        for (_, _, up, _), level in zip(reversed(nest), reversed(toward)):
            chain.append(level[c])
            c = up[c]
        leaves.append((order[a:b], chain))
    # one search of the leaves side by side: the edges between two leaves
    # dropped, member j0 + b of every leaf gets bit b, so a bit never
    # leaves its leaf; a single leaf is the entire graph
    whole = graphs._search(graph)
    local = graphs._search(graph, leaf) if len(leaves) > 1 else None
    size = graphs._block_size(n)
    # one buffer each for the shortest lengths, the route lengths and the
    # leaf distances, refilled for every block and chunk
    short, lengths, near_buffer = np.empty((3, n, size), dtype=graphs._distance_type(n))
    joint = np.zeros((1, 1), dtype=np.int64)  # [route length, shortest length]
    for j0 in range(0, max(len(members) for members, _ in leaves), size):
        # the targets: members j0..j0+size-1 of every leaf
        runs = [
            (members[j0 : j0 + size], members, chain)
            for members, chain in leaves
            if len(members) > j0
        ]
        near = None
        if local is not None:
            starts = np.concatenate([run[0] for run in runs])
            bits = np.concatenate([np.arange(len(run[0])) for run in runs])
            near = local(starts, bits, near_buffer)
            # column 0 of the first chunk starts at member 0 of every leaf
            if not j0 and near[:, 0].min() < 0:
                _fault(graph, hierarchy, nest, found)  # a split leaf
        for block in _target_blocks(runs, size):
            joint = _tally(joint, *_route_lengths(block, whole, near, short, lengths))
    joint[0, 0] = 0  # each node toward itself
    pairs = n * (n - 1)
    route_lens, short_lens = np.nonzero(joint)
    counts = joint[route_lens, short_lens]
    cells = list(zip(route_lens.tolist(), short_lens.tolist(), counts.tolist()))
    hier_sum = sum(c * r for r, _, c in cells)
    short_sum = sum(c * d for _, d, c in cells)
    # the per-pair ratios summed exactly over one common denominator, and
    # rounded once
    scale = math.lcm(*short_lens.tolist())
    ratio_sum = sum(c * r * (scale // d) for r, d, c in cells)
    mean_table = entries / n
    mean_hier = hier_sum / pairs
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
        mean_path_ratio=ratio_sum / (scale * pairs),
        histogram=tuple(
            (r, c) for r, c in enumerate(joint.sum(axis=1).tolist()) if c
        ),
    )

"""Undirected unweighted graphs: generators, text files, hop distances.

Node ids are dense integers 0..n-1.  Grid and torus generators number
nodes row-major (id = row * cols + col).  Every Graph is connected; the
constructor rejects anything else, so downstream stretch measurements
never see unreachable pairs.

File format, stable and diffable:

    n 8
    0 1
    0 7
    ...

First significant line is ``n <count>``, then one edge per line with
u < v, sorted lexicographically.  Lines starting with ``#`` and blank
lines are ignored.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """A graph file failed to parse; the message carries the line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DisconnectedGraphError(ValueError):
    """The node set does not form a single connected component."""


class Graph:
    """Immutable connected undirected graph."""

    __slots__ = ("n_nodes", "edges", "adj")

    def __init__(self, n_nodes: int, edges: Iterable[tuple[int, int]]):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1 (got {n_nodes})")
        seen: set[tuple[int, int]] = set()
        canon: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {n_nodes} nodes")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        message = f"graph with {n_nodes} nodes and {len(canon)} edges is not connected"
        # fewer than n - 1 edges cannot connect n nodes: fail before
        # allocating adjacency for a node count read from a file
        if len(canon) < n_nodes - 1:
            raise DisconnectedGraphError(message)
        self.n_nodes = n_nodes
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(ns)) for ns in adj)
        if not _connected_set(set(range(n_nodes)), self.adj):
            raise DisconnectedGraphError(message)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_nodes == other.n_nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, num_edges={self.num_edges})"


def _component(start: int, nodes: set[int], adj) -> set[int]:
    """The nodes of `nodes` that `start` (one of them) reaches inside them."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in nodes and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _connected_set(nodes: set[int], adj) -> bool:
    """Whether `nodes` induce a connected subgraph (the empty set does)."""
    return len(nodes) <= 1 or len(_component(next(iter(nodes)), nodes, adj)) == len(nodes)


def _components(nodes: set[int], adj) -> list[list[int]]:
    """Connected components of the subgraph `nodes` induce, each sorted,
    ordered by (size, lowest id)."""
    remaining = set(nodes)
    comps: list[list[int]] = []
    while remaining:
        comp = _component(min(remaining), remaining, adj)
        comps.append(sorted(comp))
        remaining -= comp
    comps.sort(key=lambda c: (len(c), c[0]))
    return comps


def ring_graph(n: int) -> Graph:
    """Cycle on n >= 3 nodes; every node has degree 2."""
    if n < 3:
        raise ValueError(f"a ring needs n >= 3 (got {n})")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice without wraparound, nodes numbered row-major."""
    if rows < 2 or cols < 2:
        raise ValueError(f"a grid needs rows >= 2 and cols >= 2 (got {rows}x{cols})")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph(rows * cols, edges)


def torus_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice with wraparound; degree 4 everywhere once dims >= 3."""
    if rows < 2 or cols < 2:
        raise ValueError(f"a torus needs rows >= 2 and cols >= 2 (got {rows}x{cols})")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            for v in (right, down):
                if u != v:
                    edges.add((u, v) if u < v else (v, u))
    return Graph(rows * cols, sorted(edges))


# draws random_graph makes before it gives up on a connected sample
_MAX_TRIES = 100


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Connected G(n, p) sample.

    Each attempt draws every unordered pair once from the seeded stream;
    disconnected draws are discarded and the stream advances, so the
    result is a deterministic function of (n, edge_prob, seed).
    """
    if n < 2:
        raise ValueError(f"a random graph needs n >= 2 (got {n})")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob must lie in (0, 1] (got {edge_prob})")
    rng = random.Random(seed)
    for _ in range(_MAX_TRIES):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_prob
        ]
        try:
            return Graph(n, edges)
        except DisconnectedGraphError:
            continue
    raise DisconnectedGraphError(
        f"no connected G({n}, {edge_prob}) sample in {_MAX_TRIES} attempts (seed {seed})"
    )


def generate(
    topology: str,
    *,
    n: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    edge_prob: float | None = None,
    seed: int = 0,
) -> Graph:
    """Dispatch to a generator by topology name (ring, grid, torus, random)."""
    if topology == "ring":
        if n is None:
            raise ValueError("ring topology needs n")
        return ring_graph(n)
    if topology == "grid":
        if rows is None or cols is None:
            raise ValueError("grid topology needs rows and cols")
        return grid_graph(rows, cols)
    if topology == "torus":
        if rows is None or cols is None:
            raise ValueError("torus topology needs rows and cols")
        return torus_graph(rows, cols)
    if topology == "random":
        if n is None or edge_prob is None:
            raise ValueError("random topology needs n and edge_prob")
        return random_graph(n, edge_prob, seed)
    raise ValueError(f"unknown topology {topology!r}")


def save(graph: Graph, path: str) -> None:
    """Write the canonical text form (header line, then sorted edges)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n {graph.n_nodes}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def load(path: str) -> Graph:
    """Parse a graph file; errors name the offending line."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if n is None:
                if len(tokens) != 2 or tokens[0] != "n":
                    raise GraphFormatError("expected header 'n <count>'", line_no)
                try:
                    n = int(tokens[1])
                except ValueError:
                    raise GraphFormatError(
                        f"node count {tokens[1]!r} is not an integer", line_no
                    ) from None
                if n < 1:
                    raise GraphFormatError(f"node count must be >= 1 (got {n})", line_no)
                continue
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"expected 'u v', got {len(tokens)} fields", line_no
                )
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"non-integer endpoint in {line!r}", line_no) from None
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}", line_no)
            if not u < v:
                raise GraphFormatError(
                    f"edge endpoints must satisfy u < v (got {u} {v})", line_no
                )
            if not (0 <= u and v < n):
                raise GraphFormatError(
                    f"edge ({u}, {v}) out of range for {n} nodes", line_no
                )
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})", line_no)
            seen.add((u, v))
            edges.append((u, v))
    if n is None:
        raise GraphFormatError("file has no 'n <count>' header")
    return Graph(n, edges)


def _ranked_neighbors(adj, members: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """(order, ranks) of the subgraph the ascending `members` induce, as
    member positions.  `order` sorts the members by falling degree, ties
    by position; ranks[r] holds neighbor r (counting from 0, lowest
    first) of each of order[:len(ranks[r])], the members with more than
    r neighbors."""
    index = {u: i for i, u in enumerate(members)}
    rows = [[index[w] for w in adj[u] if w in index] for u in members]
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    neighbors = np.fromiter(chain.from_iterable(rows), np.intp, offsets[-1])
    degree = np.diff(offsets)
    order = np.argsort(-degree, kind="stable")
    ranks = [
        neighbors[offsets[order[: np.count_nonzero(degree > r)]] + r]
        for r in range(degree.max(initial=0))
    ]
    return order, ranks


# cells (sources x members) per search block: keeps a block's distances
# and bit sets to a few MB whatever the graph's size
_SEARCH_CELLS = 1 << 18


def _induced_search(adj, members: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The search of the subgraph the ascending `members` induce, set up
    once: called with the positions of some members, it returns their
    hop distances as a (members x sources) int32 array, -1 where a
    source cannot reach a member.

    One level-synchronous search serves all the sources of a call.
    Every member holds its frontier and its unreached set as bits, one
    per source, packed into 64-bit words.  At each level a member's new
    frontier is the OR of its neighbors' frontiers, minus what it has
    reached; a bit that turns on at level L means a distance of L, and
    is added to the bit planes of L's binary digits.  A level costs one
    pass over the induced edges per 64 sources.
    """
    m = len(members)
    # search positions follow `order`, so the members with more than r
    # neighbors are the first len(ranks[r])
    order, ranks = _ranked_neighbors(adj, members)
    place = np.empty(m, dtype=np.intp)
    place[order] = np.arange(m)
    ranks = [place[rank] for rank in ranks]

    def search(positions: np.ndarray) -> np.ndarray:
        k = len(positions)
        bits = np.arange(k)
        frontier = np.zeros((m, (k + 63) // 64), dtype="<u8")
        frontier[place[positions], bits // 64] = np.uint64(1) << (bits % 64).astype(np.uint64)
        unreached = ~frontier
        planes: list[np.ndarray] = []  # planes[b]: reached at a level with bit b set
        level = 0
        while frontier.any():
            level += 1
            new = np.zeros_like(frontier)
            for rank in ranks:
                new[: len(rank)] |= frontier.take(rank, axis=0)
            new &= unreached
            unreached ^= new
            for b in range(level.bit_length()):
                if level >> b & 1:
                    if b == len(planes):
                        planes.append(np.zeros_like(new))
                    planes[b] |= new
            frontier = new
        dist = np.zeros((m, k), dtype=np.int32)
        for b, plane in enumerate(planes):
            dist += _bit_columns(plane, k) * np.int32(1 << b)
        dist[_bit_columns(unreached, k).view(bool)] = -1
        return dist.take(place, axis=0)

    return search


def _bit_columns(words: np.ndarray, k: int) -> np.ndarray:
    """(rows x k) uint8 0/1 array of the first k bits of each row of
    little-endian 64-bit words."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :k]


def all_pairs_shortest_lengths(graph: Graph) -> list[list[int]]:
    """Full hop-distance matrix, one row per source, searched a block of
    sources at a time."""
    n = graph.n_nodes
    search = _induced_search(graph.adj, range(n))
    block = max(1, _SEARCH_CELLS // n)
    rows: list[list[int]] = []
    for s0 in range(0, n, block):
        rows += search(np.arange(s0, min(s0 + block, n))).T.tolist()
    return rows

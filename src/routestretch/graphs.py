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
u < v, sorted lexicographically.  Lines starting with ``#`` (after
leading whitespace) and blank lines are ignored.

``load`` reads the text once.  The header is read with ``int`` as a
Python integer, so any count parses; the edge lines below it go through
one ``np.loadtxt`` call into int64 rows, with comment lines blanked
first so that every row keeps its line.  That parse splits fields on
the whitespace ``str.split`` uses and accepts ASCII decimal integers
with an optional sign and leading zeros inside the int64 range.  It
rejects what ``int`` alone would take: digit-group underscores
(``1_0``), non-ASCII digits and ids beyond int64; such a line is a
non-integer endpoint.  Field count, u < v, the node range and repeats
are array checks.  Only once one fails does a scan of the lines run,
and it only locates the first bad row and names its line: it never
accepts a file.

The searches here are array searches over the CSR arrays that the
constructor keeps as ``_csr``; the balanced builder keeps its own
neighbour rows and searches them (see ``hierarchy``).  ``_search`` is
the bit-parallel hop-distance search, which runs a block of sources at
once as bits over the whole graph (``all_pairs_shortest_lengths`` and
measure's shortest lengths) or over labelled node sets side by side
(routing's leaf clusters), set up by masking the CSR.
``_gateway_search`` gives the distance to many start sets at once and
the nearest start (lowest id among ties), one level-synchronous search
of every copy side by side (routing's sibling clusters, every level and
sibling rank at once).
Whether each label's nodes are connected is one array routine,
``_label_roots`` (hook and shortcut over the edge arrays: a few rounds,
where a search confined to the labels takes a level per hop): the
constructor's check gives every node one label, ``hierarchy.validate``
one per cluster of a level and ``routing._fault``'s leaf check one per
leaf.

``random_graph`` keeps each node pair whose ``random.Random(seed)``
double falls below p, and draws those doubles in bulk: one
``getrandbits`` call gives the 32-bit outputs of many ``random()``
calls, and each pair's integer K of K / 2**53 is compared with
ceil(p * 2**53), a threshold that decides exactly as the float compare
does.  The stream, every graph and every file stay as with one
``random()`` call per pair.  ``save`` formats a file with one ``%``
template over the flattened edge arrays.

The constructor sorts the edges unless they already come in strict
(lo, hi) order, as files that ``save`` writes and ``random_graph``
draws do; one pass over the rows checks that order.  A Graph holds
arrays only: the sorted edges as two int64 arrays, which ``num_edges``,
``==``, ``hash``, ``save`` and ``_label_roots`` read, and CSR adjacency
arrays from one sort of the distinct keys src * n + dst, two per edge,
which puts every row in ascending order.  The ``edges`` tuple of pairs
is built on first use.
"""

from __future__ import annotations

import math
import random
from contextlib import suppress
from itertools import chain
from operator import index
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np


class FileFormatError(ValueError):
    """A file failed to parse; the message starts with the line number
    when one is known, which is also kept as `line_no`."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class GraphFormatError(FileFormatError):
    """A graph file failed to parse."""


class DisconnectedGraphError(ValueError):
    """The node set does not form a single connected component."""


class EdgeError(ValueError):
    """An edge given to Graph is a self-loop, has an endpoint out of range
    or repeats an earlier edge; `index` is its position in input order."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Graph:
    """Immutable connected undirected graph.

    The `edges` argument is an (m, 2) integer array or an iterable of
    (u, v) pairs, in any order and orientation.  Before any edge is
    checked, an edge that is not a pair of integers (Python or numpy)
    raises TypeError naming it, so a float or a numeric string is never
    truncated or parsed, and an endpoint beyond int64 raises ValueError.
    Then the first edge in input order that is a self-loop, out of range
    or a repeat raises EdgeError.

    The graph holds its edges as sorted (lo, hi) int64 arrays and its
    adjacency as CSR arrays, and builds the `edges` tuple of pairs on
    first use: a graph whose `edges` are never read keeps no Python
    object per edge.
    """

    __slots__ = ("n_nodes", "_csr", "_lo", "_hi", "_edges")

    def __init__(self, n_nodes: int, edges: np.ndarray | Iterable[tuple[int, int]]):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1 (got {n_nodes})")
        if (
            isinstance(edges, np.ndarray)
            and edges.dtype.kind == "i"
            and edges.shape[1:] == (2,)
        ):
            pairs = edges.astype(np.int64, copy=False)
        else:
            edges = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
            try:
                pairs = np.fromiter(map(index, chain.from_iterable(edges)), np.int64)
                pairs_only = set(map(len, edges)) <= {2}
            except OverflowError:
                raise ValueError("an edge endpoint lies outside the int64 range") from None
            except TypeError:
                pairs_only = False
            if not pairs_only:
                _require_int_pairs(edges)
            pairs = pairs.reshape(-1, 2)
        lo, hi = _sorted_edges(n_nodes, pairs)
        message = f"graph with {n_nodes} nodes and {len(lo)} edges is not connected"
        # fewer than n - 1 edges cannot connect n nodes: fail before
        # allocating arrays for a node count read from a file
        if len(lo) < n_nodes - 1:
            raise DisconnectedGraphError(message)
        self.n_nodes = n_nodes
        # the sorted edges stay as two read-only int64 arrays that no
        # caller holds; `edges` is built from them on first use
        lo.flags.writeable = hi.flags.writeable = False
        self._lo, self._hi = lo, hi
        self._edges: tuple[tuple[int, int], ...] | None = None
        if _label_roots(self, np.zeros(n_nodes, dtype=np.intp)).any():
            raise DisconnectedGraphError(message)
        # adjacency in CSR form, rows of (src, dst) in lexicographic order:
        # one sort of the distinct keys src * n + dst, each edge giving
        # (lo, hi) and (hi, lo).  With m >= n - 1 edges the keys stay
        # below (m + 1)**2, inside int64.  The arrays stay on the graph
        # as `_csr`, (row ends, neighbors, degrees), for the array
        # searches (_search, _gateway_search), routing's next hops and
        # the balanced builder's rows (hierarchy._adjacency, _rows).
        keys = np.sort(np.concatenate((lo * n_nodes + hi, hi * n_nodes + lo)))
        neighbors = keys % n_nodes
        degree = np.bincount(lo, minlength=n_nodes) + np.bincount(hi, minlength=n_nodes)
        self._csr = (degree.cumsum(), neighbors, degree)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (lo, hi) pairs, lo < hi, in lexicographic order."""
        if self._edges is None:
            self._edges = tuple(zip(self._lo.tolist(), self._hi.tolist()))
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._lo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and np.array_equal(self._lo, other._lo)
            and np.array_equal(self._hi, other._hi)
        )

    def __hash__(self) -> int:
        return hash((self.n_nodes, self._lo.tobytes(), self._hi.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, num_edges={self.num_edges})"


def _require_int_pairs(edges: list) -> None:
    """Raise TypeError naming the first of `edges` that is not a pair of
    integers (Python or numpy ints)."""
    for i, edge in enumerate(edges):
        try:
            _, _ = map(index, edge)
        except (TypeError, ValueError):
            raise TypeError(f"edge {i} is not a pair of integers: {edge!r}") from None


def _sorted_edges(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of every (u, v) row of `pairs` with lo < hi, sorted
    lexicographically, or EdgeError for the first row in input order
    that is a self-loop, has an endpoint outside [0, n) or repeats an
    earlier row in either orientation (one row can be all three; the
    message names the first of those).

    Rows already in strict (lo, hi) order, as save writes them and
    random_graph draws them, hold no repeat: one pass checks that order
    and the node range, and such rows skip the sort.  Either way the
    two arrays returned are new ones, not views of `pairs`."""
    u, v = pairs[:, 0], pairs[:, 1]
    if (
        len(pairs)
        and u[0] >= 0
        and v.max() < n
        and (u < v).all()
        and (u[1:] >= u[:-1]).all()
        and ((u[1:] > u[:-1]) | (v[1:] > v[:-1])).all()
    ):
        return u.copy(), v.copy()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out = (lo < 0) | (hi >= n)
    # a stable sort, so of equal rows the first in input order comes first
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    bad = (u == v) | out | repeat
    if bad.any():
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if a == b:
            raise EdgeError(f"self-loop at node {a}", i)
        if out[i]:
            raise EdgeError(f"edge ({a}, {b}) out of range for {n} nodes", i)
        raise EdgeError(f"duplicate edge ({min(a, b)}, {max(a, b)})", i)
    return lo, hi


def _label_roots(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Each node's lowest id among the nodes it reaches over the edges
    whose two ends share a label (one per node in `labels`).

    Shiloach and Vishkin's hook and shortcut ("An O(log n) parallel
    connectivity algorithm", 1982) over the edge arrays: each node starts
    as its own tree; each round hooks every root to the lowest root across
    its crossing edges, then jumps pointers until every tree is a star.
    Hooks point down, so a tree's root is its lowest node; an edge inside
    a tree stays inside, so each round keeps only the crossing edges.
    """
    lo, hi = graph._lo, graph._hi
    kept = labels[lo] == labels[hi]
    lo, hi = lo[kept], hi[kept]
    root = np.arange(graph.n_nodes)
    while lo.size:
        a, b = root[lo], root[hi]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
        crossing = root[lo] != root[hi]
        lo, hi = lo[crossing], hi[crossing]
    return root


def ring_graph(n: int) -> Graph:
    """Cycle on n >= 3 nodes; every node has degree 2."""
    if n < 3:
        raise ValueError(f"a ring needs n >= 3 (got {n})")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice without wraparound, nodes numbered row-major."""
    if rows < 2 or cols < 2:
        raise ValueError(f"a grid needs rows >= 2 and cols >= 2 (got {rows}x{cols})")
    return _lattice(rows, cols, wrap=False)


def torus_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice with wraparound; degree 4 everywhere once dims >= 3."""
    if rows < 2 or cols < 2:
        raise ValueError(f"a torus needs rows >= 2 and cols >= 2 (got {rows}x{cols})")
    return _lattice(rows, cols, wrap=True)


def _lattice(rows: int, cols: int, wrap: bool) -> Graph:
    """The row-major rows x cols lattice: every node linked to the next
    one along each axis, and with `wrap` the last one back to the first,
    unless that axis has two nodes and the link is already there."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    us, vs = [], []
    for axis, side in ((1, cols), (0, rows)):
        links = np.arange(side if wrap and side > 2 else side - 1)
        us.append(ids.take(links, axis).ravel())
        vs.append(ids.take((links + 1) % side, axis).ravel())
    return Graph(rows * cols, np.column_stack((np.concatenate(us), np.concatenate(vs))))


# draws random_graph makes before it gives up on a connected sample
_MAX_TRIES = 100
# node pairs drawn per getrandbits call: keeps a chunk's draws to 512 KB
# whatever the graph's size
_DRAW_CHUNK = 1 << 16


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Connected G(n, p) sample.

    Each attempt draws every unordered pair once from the seeded stream;
    disconnected draws are discarded and the stream advances, so the
    result is a deterministic function of (n, edge_prob, seed).

    Pair (i, j), in row-major order over i < j, keeps its edge when the
    ``random.Random(seed).random()`` call it would take falls below
    edge_prob.  The draws come _DRAW_CHUNK pairs at a time from one
    ``getrandbits`` call, read as little-endian 64-bit words: each word
    holds the two 32-bit outputs a (low half) and b (high half) that one
    ``random()`` call reads as K / 2**53 with K = (a >> 5) << 26 | b >> 6,
    and K / 2**53 < p exactly when K < ceil(p * 2**53).  So every seed
    gives the same graph, retries and error as one ``random()`` call per
    pair would.
    """
    if n < 2:
        raise ValueError(f"a random graph needs n >= 2 (got {n})")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob must lie in (0, 1] (got {edge_prob})")
    rng = random.Random(seed)
    limit = math.ceil(edge_prob * 2**53)
    pairs = n * (n - 1) // 2
    rows = np.arange(n - 1)
    firsts = rows * (2 * n - 1 - rows) // 2  # index of each row's first pair
    for _ in range(_MAX_TRIES):
        kept = []
        for start in range(0, pairs, _DRAW_CHUNK):
            c = min(_DRAW_CHUNK, pairs - start)
            words = np.frombuffer(rng.getrandbits(64 * c).to_bytes(8 * c, "little"), "<u8")
            draws = (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38
            kept.append(np.flatnonzero(draws < limit) + start)
        picked = np.concatenate(kept)
        i = firsts.searchsorted(picked, side="right") - 1
        try:
            return Graph(n, np.column_stack((i, picked - firsts[i] + i + 1)))
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
    """Write the canonical text form (header line, then sorted edges),
    formatted by one template over the flattened edge arrays."""
    ends = np.column_stack((graph._lo, graph._hi)).ravel().tolist()
    text = ("n %d\n" + "%d %d\n" * graph.num_edges) % (graph.n_nodes, *ends)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load(path: str) -> Graph:
    """Parse a graph file; errors name the offending line.

    Every line below the header goes through one int64 ``np.loadtxt``
    parse and the edge checks run on the rows as arrays (the module
    docstring says what the parse accepts: no ``1_0``, no non-ASCII
    digits, no id beyond int64).  A row the checks reject maps back to
    its line by counting the non-blank lines above it.  When the parse
    itself fails, the same parse runs on one line at a time to find the
    first line that does not parse; a fault in the lines above that one
    is reported instead, so the line named is always the first bad one.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" in text:
        lines = ["" if line.lstrip().startswith("#") else line for line in lines]
    head = next((i for i, line in enumerate(lines) if line.strip()), None)
    if head is None:
        raise GraphFormatError("file has no 'n <count>' header")
    tokens = lines[head].split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise GraphFormatError("expected header 'n <count>'", head + 1)
    try:
        n = int(tokens[1])
    except ValueError:
        raise GraphFormatError(
            f"node count {tokens[1]!r} is not an integer", head + 1
        ) from None
    if n < 1:
        raise GraphFormatError(f"node count must be >= 1 (got {n})", head + 1)
    return _edge_graph(n, lines[head + 1 :], head + 2)


def _parsed(lines: list[str], width: int | None = 2) -> np.ndarray | None:
    """The non-blank `lines` as int64 rows of `width` fields (of any one
    width for None), or None if they do not parse that way."""
    if not any(map(str.strip, lines)):
        return np.empty((0, width or 0), dtype=np.int64)  # loadtxt warns on no data
    try:
        rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if width in (None, rows.shape[1]) else None


def _edge_graph(n: int, lines: list[str], first: int) -> Graph:
    """The graph whose edge lines are `lines`, from line `first` of the
    file on; GraphFormatError names the first bad line."""
    rows = _parsed(lines)
    if rows is None:
        _reject_unparsed(n, lines, first)
    unordered = np.flatnonzero(rows[:, 0] > rows[:, 1])
    try:
        if not unordered.size:
            return Graph(n, rows)
        _sorted_edges(n, rows[: unordered[0]])  # a fault above the first u > v
    except EdgeError as exc:
        raise GraphFormatError(str(exc), _line_of(lines, first, exc.index)) from None
    i = int(unordered[0])
    u, v = rows[i].tolist()
    raise GraphFormatError(
        f"edge endpoints must satisfy u < v (got {u} {v})", _line_of(lines, first, i)
    )


def _line_of(lines: list[str], first: int, row: int) -> int:
    """The file line of row `row` (from 0) of the non-blank `lines`."""
    return first + [i for i, line in enumerate(lines) if line.strip()][row]


def _reject_unparsed(n: int, lines: list[str], first: int) -> NoReturn:
    """Raise GraphFormatError for the first of `lines` that does not
    parse on its own, or for a fault in the lines above it."""
    for i, line in enumerate(lines):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            message = f"expected 'u v', got {len(fields)} fields"
        elif _parsed([line]) is None:
            message = f"non-integer endpoint in {line.strip()!r}"
        else:
            continue
        # the lines above parse, so a fault among them comes first
        with suppress(DisconnectedGraphError):
            _edge_graph(n, lines[:i], first)
        raise GraphFormatError(message, first + i)
    # the lines parse one at a time but not together: reject all the same
    raise GraphFormatError("edge lines do not parse", first)


# cells (sources x nodes) per search block, rounded up to whole 64-bit
# words of sources (_block_size): keeps a block's distances and bit sets
# to a few MB whatever the graph's size
_SEARCH_CELLS = 1 << 18


def _block_size(n: int) -> int:
    """Sources per search block on a graph of n nodes: _SEARCH_CELLS // n,
    at least one, rounded up to a multiple of 64."""
    return -(-max(1, _SEARCH_CELLS // n) // 64) * 64


def _distance_type(n: int) -> type:
    """The integer type of _search's distances on a graph of n nodes.
    n - 1 bounds every hop distance and the length of every route that
    visits no node twice, so int16 holds them below 2**15 nodes."""
    return np.int16 if n < 1 << 15 else np.int32


def _search(
    graph: Graph, labels: np.ndarray | None = None
) -> Callable[..., np.ndarray]:
    """The hop-distance search of `graph` or, given one label per node, of
    the subgraph that keeps only the edges whose two ends share a label,
    set up once.  Called with distinct start nodes and a bit for each,
    it returns an (n x k) array of _distance_type(n), k the highest bit
    plus one: column b holds each node's hop distance from the nearest
    start of bit b, -1 where no start of bit b reaches it.  Given `out`,
    an array of that type with n rows and at least k columns, it fills
    and returns out's first k columns, so a caller that searches block
    after block can keep one buffer.

    One level-synchronous search serves all the starts of a call.  Every
    node holds its frontier and its unreached set as bits, one per
    column, packed into 64-bit words.  At each level a node's new
    frontier is the OR of its neighbors' frontiers, minus what it has
    reached; a bit that turns on at level L means a distance of L, and
    is added to the bit planes of L's binary digits.  The distances are
    then read from the planes highest first, shifting and ORing in place.
    A level costs one pass over the kept edges per 64 columns.  Starts of
    one bit in different labels search their own labels side by side,
    which is how measure searches every leaf cluster at once.

    The set-up masks the graph's CSR arrays and ranks each node's
    neighbors; nodes are searched in falling order of degree, so the
    nodes with more than r neighbors are the first len(ranks[r]).
    """
    n = graph.n_nodes
    ends, neighbors, degree = graph._csr
    if labels is not None:
        owner = np.repeat(np.arange(n), degree)
        kept = labels[owner] == labels[neighbors]
        neighbors = neighbors[kept]
        degree = np.bincount(owner[kept], minlength=n)
        ends = degree.cumsum()
    order = np.argsort(-degree, kind="stable")
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    firsts = (ends - degree)[order]
    ranks = [
        place[neighbors[firsts[: np.count_nonzero(degree > r)] + r]]
        for r in range(degree.max(initial=0))
    ]

    def search(starts: np.ndarray, bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        k = int(bits.max()) + 1
        frontier = np.zeros((n, (k + 63) // 64), dtype="<u8")
        frontier[place[starts], bits // 64] = np.uint64(1) << (bits % 64).astype(np.uint64)
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
        dist = np.empty((n, k), dtype=_distance_type(n)) if out is None else out[:, :k]
        dist[...] = 0
        for plane in reversed(planes):
            dist <<= 1
            dist |= _bit_columns(plane.take(place, axis=0), k)
        # an unreached node has no plane bit: 0 - 1
        dist -= _bit_columns(unreached.take(place, axis=0), k)
        return dist

    return search


def _gateway_search(
    graph: Graph, labels: Sequence[np.ndarray], starts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hop distances from many start sets at once, with the nearest
    start of each node, as arrays.

    Each of `labels` gives one label per node for a group of copies, and
    starts[k, u] is the copy of group k that node u starts.  A copy of
    group k follows only the edges whose two ends share a label in
    labels[k].  Returns (dist, gw) for each group, two (copies x n)
    arrays: each node's hop distance from the copy's nearest start, of
    _distance_type(n), and the lowest id among those starts, -1 and n
    where the copy does not reach it.

    One level-synchronous search serves every copy of every group.  Node
    u of the c-th copy in all is the virtual node c * n + u, and row
    k * n + u of a CSR of id offsets lists u's neighbors that share its
    label in labels[k].  A level gathers the rows of the frontier, and a
    newly reached node takes the smallest gateway among its frontier
    neighbors (np.minimum.at): the lowest id among its nearest starts.
    """
    n = graph.n_nodes
    _, neighbors, degree = graph._csr
    owner = np.repeat(np.arange(n), degree)
    kept = [group[owner] == group[neighbors] for group in labels]
    row_deg = np.concatenate([np.bincount(owner[m], minlength=n) for m in kept])
    row_end = row_deg.cumsum()
    row_step = np.concatenate([(neighbors - owner)[m] for m in kept])
    width = starts.max(axis=1) + 1
    base = np.concatenate(([0], width.cumsum()))
    row = (np.repeat(np.arange(len(labels)), width)[:, None] * n + np.arange(n)).ravel()
    frontier = ((starts + base[:-1, None]) * n + np.arange(n)).ravel()
    dist = np.full(row.size, -1, dtype=_distance_type(n))
    dist[frontier] = 0
    gw = np.full(row.size, n, dtype=np.intp)
    gw[frontier] = frontier % n
    slot = np.empty(row.size, dtype=np.intp)
    d = 0
    while frontier.size:
        d += 1
        rows = row[frontier]
        count = row_deg[rows]
        last = count.cumsum()
        # the places of the frontier rows' entries, row after row
        at = np.repeat(row_end[rows] - last, count) + np.arange(last[-1])
        new = np.repeat(frontier, count) + row_step[at]
        gate = np.repeat(gw[frontier], count)
        free = dist[new] < 0
        new = new[free]
        np.minimum.at(gw, new, gate[free])
        # one entry per node: the one whose place its slot keeps
        place = np.arange(new.size)
        slot[new] = place
        frontier = new[slot[new] == place]
        dist[frontier] = d
    dist, gw = dist.reshape(-1, n), gw.reshape(-1, n)
    return [(dist[a:b], gw[a:b]) for a, b in zip(base, base[1:])]


def _bit_columns(words: np.ndarray, k: int) -> np.ndarray:
    """(rows x k) uint8 0/1 array of the first k bits of each row of
    little-endian 64-bit words."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :k]


def all_pairs_shortest_lengths(graph: Graph) -> list[list[int]]:
    """Full hop-distance matrix, one row per source, searched a block of
    sources at a time."""
    n = graph.n_nodes
    search = _search(graph)
    block = _block_size(n)
    rows: list[list[int]] = []
    for s0 in range(0, n, block):
        sources = np.arange(s0, min(s0 + block, n))
        rows += search(sources, sources - s0).T.tolist()
    return rows

"""Property checks of build_balanced(), build_tables() and measure()
against references.

build_balanced() decides whether taking a node disconnects the
unassigned remainder with a search near the node and a memo of known cut
vertices; the clustering oracle below searches the whole remainder for
every candidate, and its label paths and error messages must be
reproduced exactly.  graphs._search() finds the hop distances of a
block of sources with one bit-parallel search, over the entire graph or
over labelled node sets side by side, each keeping to its own label; the
reference is one breadth-first search per source (induced_distances
below), which every other oracle here uses too, and it is the reference
for graphs._gateways, the one breadth-first search of a node set
(nearest source, lowest id on ties), and for graphs._components.
build_tables() finds every next hop from gateway-carrying BFS runs, one
per sibling cluster and one per leaf member; the table oracle below
finds them from all-pairs distances inside each cluster, the definition
the tables must reproduce exactly, and a frozen digest pins their order.
measure() composes route lengths from gateway distances and leaf
distances without building tables; the walker reference routes every
pair with route() and must be reproduced exactly, with the mean
per-pair ratio as the correctly rounded exact mean.  A block holds at
least 64 targets, so blocks of 64 (_SEARCH_CELLS = 1) are checked on
the 20x20 torus against the walker and on graphs of 65-160 nodes against
one block; on 64x64 grids and tori, beyond the walker's reach, nested
blocks must give the lattice identities exactly.  graphs.load() parses
every edge line with one numpy call and checks the rows as arrays, the
Graph constructor checks and orders the edges by sorting, and
hierarchy.load() reads each line with one conversion; the line-by-line
readers and the per-edge constructor below are their references, down
to the message and line of every rejection.
"""

import hashlib
import heapq
import math
import random
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt


def induced_distances(nodes, adj):
    """All-pairs BFS hop counts inside the induced subgraph of `nodes`."""
    node_set = set(nodes)
    out = {}
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


def hop_toward(adj, d_ctx, u, t):
    """Lowest-id neighbor one step closer to t inside the context whose
    distances are d_ctx (adj rows are sorted)."""
    du = d_ctx[u][t]
    return next(w for w in adj[u] if w in d_ctx and d_ctx[w].get(t) == du - 1)


def clusters_at_level(hierarchy, level):
    """Members of every cluster at a level (1 = coarsest), by cluster id,
    each in ascending order."""
    groups = {}
    for u, p in enumerate(hierarchy.label_paths):
        groups.setdefault(p[level - 1], []).append(u)
    return groups


def oracle_tables(g, h):
    """Tables from all-pairs distances: node entries inside the leaf, and
    for each sibling cluster inside the parent (the entire graph at level
    1), its nearest member by (distance, id) and the hop toward it."""
    n = g.n_nodes
    entire = induced_distances(range(n), g.adj)
    paths = h.label_paths
    leaves = {}
    for u, p in enumerate(paths):
        leaves.setdefault(p, []).append(u)
    leaf_dist = {
        key: entire if len(mem) == n else induced_distances(mem, g.adj)
        for key, mem in leaves.items()
    }
    level_members, level_siblings, parent_dist = [], [], []
    for level in range(1, h.levels):
        members = clusters_at_level(h, level)
        sib = {}
        for cid, mem in members.items():
            sib.setdefault(paths[mem[0]][: level - 1], []).append(cid)
        if level == 1:
            ctx = {(): entire}
        else:
            ctx = {
                paths[pmem[0]][: level - 1]: induced_distances(pmem, g.adj)
                for pmem in level_members[-1].values()
            }
        level_members.append(members)
        level_siblings.append(sib)
        parent_dist.append(ctx)
    tables = []
    for u in range(n):
        pu = paths[u]
        node_entries = {
            v: hop_toward(g.adj, leaf_dist[pu], u, v) for v in leaves[pu] if v != u
        }
        cluster_entries = {}
        for level in range(1, h.levels):
            d_ctx = parent_dist[level - 1][pu[: level - 1]]
            for cid in level_siblings[level - 1][pu[: level - 1]]:
                if cid != pu[level - 1]:
                    members = level_members[level - 1][cid]
                    gateway = min(members, key=lambda m: (d_ctx[u][m], m))
                    cluster_entries[(level, cid)] = hop_toward(g.adj, d_ctx, u, gateway)
        tables.append(rt.RoutingTable(u, node_entries, cluster_entries))
    return tuple(tables)


def reference(g, h):
    """route() every ordered pair; the mean per-pair ratio is the exact
    mean, rounded once."""
    n = g.n_nodes
    dist = induced_distances(range(n), g.adj)
    tables = rt.build_tables(g, h)
    total_hier = 0
    total_short = 0
    ratios = Counter()
    hist = Counter()
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            hops = len(rt.route(tables, g, h, src, dst)) - 1
            total_hier += hops
            total_short += dist[src][dst]
            ratios[hops, dist[src][dst]] += 1
            hist[hops] += 1
    pairs = n * (n - 1)
    ratio_sum = sum(Fraction(c * hops, short) for (hops, short), c in ratios.items())
    mean_hier = total_hier / pairs
    mean_short = total_short / pairs
    mean_table = sum(t.length for t in tables) / n
    return rt.StretchReport(
        n_nodes=n,
        levels=h.levels,
        method=h.method,
        s_p=mean_hier / mean_short,
        s_t=mean_table / n,
        mean_table_length=mean_table,
        mean_hier_path=mean_hier,
        mean_shortest_path=mean_short,
        mean_path_ratio=float(ratio_sum / pairs),
        histogram=tuple(sorted(hist.items())),
    )


@st.composite
def clustered_graphs(draw):
    levels = draw(st.integers(1, 4))
    branching = draw(st.integers(2, 3))
    n = draw(st.integers(max(2, branching ** (levels - 1)), 30))
    try:
        g = gr.random_graph(n, draw(st.floats(0.15, 0.6)), seed=draw(st.integers(0, 2**16)))
        h = hi.build_balanced(g, levels, branching)
    except (gr.DisconnectedGraphError, hi.HierarchyBuildError):
        assume(False)
    return g, h


@settings(max_examples=150, deadline=None)
@given(clustered_graphs(), st.sampled_from([1, 40, 1 << 18]))
def test_measure_equals_route_walker(gh, search_cells):
    g, h = gh
    assert hi.validate(h, g) == []
    # every block size holds at least 64 targets, so these graphs of at
    # most 30 nodes take one block; the 20x20 torus and
    # test_measure_is_the_same_in_one_block_or_many take several
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_SEARCH_CELLS", search_cells)
        rep = rt.measure(g, h)
    assert rep == reference(g, h)
    assert rep.s_p >= 1.0
    flat = rt.measure(g, hi.flat_hierarchy(g))
    assert flat.s_p == flat.s_t == 1.0


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_torus_ladder_equals_route_walker(levels):
    g = gr.torus_graph(20, 20)
    h = hi.build_balanced(g, levels, 2)
    want = reference(g, h)
    assert rt.measure(g, h) == want
    # _SEARCH_CELLS = 1: seven blocks of 64 targets, blocks that straddle
    # two leaves, and the 200-member leaves of level 2 searched in four
    # chunks of 64 positions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_SEARCH_CELLS", 1)
        assert gr._block_size(g.n_nodes) == 64
        assert rt.measure(g, h) == want


@st.composite
def wider_clustered_graphs(draw):
    """Connected graphs of 65-160 nodes, more than one 64-target block,
    with balanced hierarchies of levels 1-4."""
    levels = draw(st.integers(1, 4))
    n = draw(st.integers(65, 160))
    try:
        g = gr.random_graph(n, draw(st.floats(0.03, 0.2)), seed=draw(st.integers(0, 2**16)))
        h = hi.build_balanced(g, levels, draw(st.integers(2, 3)))
    except (gr.DisconnectedGraphError, hi.HierarchyBuildError):
        assume(False)
    return g, h


@settings(max_examples=60, deadline=None)
@given(wider_clustered_graphs())
def test_measure_is_the_same_in_one_block_or_many(gh):
    # the default block holds every target of these graphs; blocks of 64
    # take two or three, and the leaves' search runs in chunks of 64
    # member positions
    g, h = gh
    want = rt.measure(g, h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_SEARCH_CELLS", 1)
        assert rt.measure(g, h) == want


def halving_blocks(side, levels):
    """Nested blocks of a side x side lattice for `levels` levels: each
    level halves the columns, then the rows, in turn."""
    dims, rows, cols = [], side, side
    for i in range(levels - 1):
        if i % 2:
            rows //= 2
        else:
            cols //= 2
        dims.append((rows, cols))
    return dims


def lattice_short_counts(side, wrap):
    """{hop distance: ordered pairs} of a side x side grid or torus, from
    the pairs of offsets along each axis."""
    axis = Counter()
    for a in range(side):
        for b in range(side):
            off = abs(a - b)
            axis[min(off, side - off) if wrap else off] += 1
    pairs = Counter()
    for dr, cr in axis.items():
        for dc, cc in axis.items():
            pairs[dr + dc] += cr * cc
    del pairs[0]
    return pairs


@pytest.mark.parametrize("wrap", [False, True])
def test_nested_blocks_on_64_by_64_lattices(wrap):
    # n = 4096, beyond the walker's reach.  On the grid every pair's route
    # is a shortest path at every depth; on the torus only the two splits
    # that cut a wrap-around add stretch, so from level 3 on the routes do
    # not change
    g = gr.torus_graph(64, 64) if wrap else gr.grid_graph(64, 64)
    pairs = 4096 * 4095
    short = lattice_short_counts(64, wrap)
    reports = {}
    for levels in (2, 3, 5, 8):
        h = hi.build_grid_blocks(g, 64, 64, halving_blocks(64, levels))
        rep = reports[levels] = rt.measure(g, h)
        assert rep.mean_shortest_path == sum(d * c for d, c in short.items()) / pairs
    if not wrap:
        for rep in reports.values():
            assert rep.s_p == 1.0
            assert rep.mean_path_ratio == 1.0
            assert rep.histogram == tuple(sorted(short.items()))
        return
    assert reports[2].s_p == 1.04150390625
    for levels in (3, 5, 8):
        rep = reports[levels]
        assert rep.s_p == 1.0830078125
        assert (rep.mean_hier_path, rep.mean_path_ratio, rep.histogram) == (
            reports[3].mean_hier_path,
            reports[3].mean_path_ratio,
            reports[3].histogram,
        )


def test_measure_reads_no_tables(monkeypatch):
    # measure composes route lengths without tables; route() alone reports
    # corrupted tables (test_routing.py)
    g = gr.torus_graph(6, 6)
    h = hi.build_balanced(g, 3, 2)
    want = reference(g, h)

    def no_tables(*args):
        raise AssertionError("measure built routing tables")

    monkeypatch.setattr(rt, "build_tables", no_tables)
    monkeypatch.setattr(rt, "RoutingTable", no_tables)
    assert rt.measure(g, h) == want


def test_measure_holds_no_n_by_n_array():
    # the 64x64 torus at level 2: 2048-member leaves searched in 32 chunks
    # of 64 positions.  Measured peaks were 6.3 MB (48x48, blocks of 128
    # targets) and 6.1 MB (64x64, blocks of 64): about six int32 arrays of
    # one block
    for side, levels in ((48, 3), (64, 2)):
        g = gr.torus_graph(side, side)
        h = hi.build_balanced(g, levels, 2)
        tracemalloc.start()
        try:
            rt.measure(g, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = g.n_nodes
        assert peak < n**2 * 4  # one n x n int32 array
        assert peak < 8 * n * gr._block_size(n) * 4


@st.composite
def labelled_graphs(draw):
    """A small connected graph with random label paths: clusters may be
    disconnected or split across parents, one path may be cut short, and
    the hierarchy may cover one node too many."""
    n = draw(st.integers(2, 12))
    try:
        g = gr.random_graph(n, draw(st.floats(0.15, 0.6)), seed=draw(st.integers(0, 2**16)))
    except gr.DisconnectedGraphError:
        assume(False)
    levels = draw(st.integers(1, 4))
    size = n + draw(st.sampled_from([0] * 9 + [1]))
    paths = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * (levels - 1)), min_size=size, max_size=size
    ))
    if levels > 1 and draw(st.integers(0, 9)) == 0:
        u = draw(st.integers(0, size - 1))
        paths[u] = paths[u][:-1]
    return g, hi.Hierarchy(levels, tuple(paths))


def oracle_failure(g, h):
    """(exception type, message) of the first check table construction
    fails, or None: the sizes, the path lengths, then every cluster by
    prefix length, whether each node of its parent reaches it inside the
    parent and, for a leaf, the first target in id order that some member
    cannot reach inside the leaf, with the lowest such member."""
    if h.n_nodes != g.n_nodes:
        return ValueError, f"hierarchy covers {h.n_nodes} nodes, graph has {g.n_nodes}"
    depth = h.levels - 1
    for u, p in enumerate(h.label_paths):
        if len(p) != depth:
            return ValueError, (
                f"node {u} has a label path of length {len(p)}, expected {depth}; "
                "run validate() for a full report"
            )
    groups = {}
    for u, p in enumerate(h.label_paths):
        for k in range(depth + 1):
            groups.setdefault(p[:k], []).append(u)
    for key in sorted(groups, key=len):
        members = groups[key]
        if key:
            parent = groups[key[:-1]]
            d = induced_distances(parent, g.adj)
            for u in parent:
                if not any(m in d[u] for m in members):
                    return rt.RoutingError, (
                        f"node {u} cannot reach level {len(key)} cluster {key[-1]} "
                        f"inside level {len(key) - 1} cluster {key[-2]}"
                    )
        if len(key) == depth:
            d = induced_distances(members, g.adj)
            for t in members:
                for u in members:
                    if t not in d[u]:
                        return rt.RoutingError, (
                            f"node {u} cannot reach node {t} inside its leaf cluster"
                        )
    return None


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(labelled_graphs(), st.sampled_from([1, 40, 1 << 18]))
def test_measure_fails_as_build_tables_does(gh, search_cells):
    g, h = gh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_SEARCH_CELLS", search_cells)
        tables = outcome(rt.build_tables, g, h)
        rep = outcome(rt.measure, g, h)
    want = oracle_failure(g, h)
    if want is None:
        assert rep == reference(g, h)
    else:
        assert tables == want
        assert rep == want


@settings(max_examples=150, deadline=None)
@given(clustered_graphs(), st.sampled_from([1, 40, 1 << 18]))
def test_build_tables_equals_oracle(gh, search_cells):
    g, h = gh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_SEARCH_CELLS", search_cells)
        tables = rt.build_tables(g, h)
    assert tables == oracle_tables(g, h)


@pytest.mark.parametrize("seed", [7, 8])
def test_flat_tables_equal_oracle(seed):
    # one leaf holding every node: its entries come from searches of the
    # entire graph
    g = gr.random_graph(60, 0.1, seed=seed)
    h = hi.flat_hierarchy(g)
    assert rt.build_tables(g, h) == oracle_tables(g, h)


@settings(max_examples=150, deadline=None)
@given(clustered_graphs())
def test_routes_never_beat_bfs(gh):
    g, h = gh
    tables = rt.build_tables(g, h)
    edges = set(g.edges)
    dist = induced_distances(range(g.n_nodes), g.adj)
    for src in range(g.n_nodes):
        short = dist[src]
        for dst in range(g.n_nodes):
            if src != dst:
                path = rt.route(tables, g, h, src, dst)
                assert all((min(a, b), max(a, b)) in edges for a, b in zip(path, path[1:]))
                assert len(path) - 1 >= short[dst]


@settings(max_examples=150, deadline=None)
@given(clustered_graphs())
def test_table_length_counts_visible_units(gh):
    # one self entry plus, per level, the units visible there minus the
    # owner's own: sibling clusters under the owner's parent, then the
    # other members of its leaf
    g, h = gh
    paths = h.label_paths
    for table in rt.build_tables(g, h):
        p = paths[table.owner]
        units = [len({q[k] for q in paths if q[:k] == p[:k]}) for k in range(len(p))]
        units.append(paths.count(p))
        assert table.length == 1 + sum(c - 1 for c in units)


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_torus_ladder_tables_equal_oracle(levels):
    g = gr.torus_graph(20, 20)
    h = hi.build_balanced(g, levels, 2)
    assert rt.build_tables(g, h) == oracle_tables(g, h)


def search_blocks(g, members, per_block):
    """The search's hop distances inside the subgraph the ascending
    `members` induce, for consecutive blocks of `per_block` sources
    (None: all sources in one block), one row per source over the
    members.  A proper subset is labelled apart from the other nodes, so
    the search keeps only the edges inside it (and inside the rest)."""
    members = np.array(members, dtype=np.intp)
    labels = None
    if len(members) < g.n_nodes:
        labels = np.zeros(g.n_nodes, dtype=np.intp)
        labels[members] = 1
    search = gr._search(g, labels)
    size = per_block or len(members)
    return [
        search(sources, np.arange(len(sources)))[members].T.tolist()
        for sources in (members[s0 : s0 + size] for s0 in range(0, len(members), size))
    ]


def check_search(g, members, per_block):
    blocks = search_blocks(g, members, per_block)
    d = induced_distances(members, g.adj)
    assert [row for b in blocks for row in b] == [
        [d[s].get(v, -1) for v in members] for s in members
    ]


def check_node_set_search(adj, members, sources):
    """graphs._gateways from the ascending `sources` (some of `members`)
    against one BFS per source, and graphs._components against the old
    component loop."""
    d = induced_distances(members, adj)
    # nearest source, lowest id among ties; unreached nodes are absent
    want = {}
    for v in members:
        reach = [(d[s][v], s) for s in sources if v in d[s]]
        if reach:
            want[v] = min(reach)
    assert gr._gateways(adj, sources, set(members)) == want
    assert gr._components(set(members), adj) == sorted(
        _old_components(members, adj), key=lambda c: (len(c), c[0])
    )


BLOCK_SOURCES = [1, 8, 13, None]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40),
    st.floats(0.1, 0.6),
    st.integers(0, 2**16),
    st.one_of(st.none(), st.sets(st.integers(0, 39), min_size=1)),
    st.sampled_from(BLOCK_SOURCES),
)
def test_search_equals_per_source_bfs(n, p, seed, subset, per_block):
    # the entire connected graph, or the subgraph a subset induces, which
    # may be disconnected and may hold members with no neighbor inside
    try:
        g = gr.random_graph(n, p, seed=seed)
    except gr.DisconnectedGraphError:
        assume(False)
    members = range(n) if subset is None else sorted(u for u in subset if u < n)
    assume(len(members) > 0)
    check_search(g, members, per_block)
    rng = random.Random(seed)
    sources = sorted(rng.sample(list(members), rng.randint(1, len(members))))
    check_node_set_search(g.adj, members, sources)


def oracle_gateways(adj, sources, inside):
    """graphs._gateways as a first-in first-out queue of single nodes,
    each carrying its own (distance, gateway) pair: the reference for
    the result's insertion order."""
    found = {s: (0, s) for s in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        d, g = found[u]
        step = (d + 1, g)
        for w in adj[u]:
            if w in inside and w not in found:
                found[w] = step
                queue.append(w)
    return found


def check_gateway_order(adj, members, sources):
    inside = set(members)
    got = gr._gateways(adj, sources, inside)
    assert list(got.items()) == list(oracle_gateways(adj, sources, inside).items())
    assert inside == set(members)  # the search leaves its argument alone


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40),
    st.floats(0.1, 0.6),
    st.integers(0, 2**16),
    st.one_of(st.none(), st.sets(st.integers(0, 39), min_size=1)),
)
def test_gateways_keep_the_queue_order(n, p, seed, subset):
    try:
        g = gr.random_graph(n, p, seed=seed)
    except gr.DisconnectedGraphError:
        assume(False)
    members = range(n) if subset is None else sorted(u for u in subset if u < n)
    assume(len(members) > 0)
    rng = random.Random(seed)
    for k in (1, 2, len(members)):
        check_gateway_order(g.adj, members, sorted(rng.sample(list(members), min(k, len(members)))))


def test_gateways_keep_the_queue_order_on_benchmark_graphs():
    for g in (gr.torus_graph(40, 40), gr.random_graph(700, 0.043, seed=1)):
        n = g.n_nodes
        for sources in ([0], [n - 1], list(range(0, n, 7)), list(range(n))):
            check_gateway_order(g.adj, range(n), sources)
        check_gateway_order(g.adj, range(0, n, 2), [0, 2])


@pytest.mark.parametrize("per_block", BLOCK_SOURCES)
@pytest.mark.parametrize("members", [[3], [0, 2, 4, 6], [0, 1, 2, 5, 6, 9], list(range(10))])
def test_search_singletons_and_components(members, per_block):
    # ring-10: an isolated member, members with no neighbor inside, two
    # components, and the whole ring
    g = gr.ring_graph(10)
    check_search(g, members, per_block)
    for sources in (members[:1], members[::2], members[1:] or members, members):
        check_node_set_search(g.adj, members, sources)


def test_search_of_long_paths_spans_many_levels():
    # more than 64 levels and more than 64 sources in a block: distances
    # reach the seventh bit plane, and sources span several words
    for g in (gr.grid_graph(2, 75), gr.torus_graph(3, 50)):
        for per_block in (8, 70, None):
            check_search(g, range(g.n_nodes), per_block)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40),
    st.floats(0.1, 0.6),
    st.integers(0, 2**16),
    st.integers(1, 5),
    st.sampled_from(BLOCK_SOURCES),
)
def test_packed_search_equals_per_label_bfs(n, p, seed, n_labels, per_block):
    # measure's search of the leaves side by side: random labels, whose
    # nodes may be disconnected, keep only the edges inside a label, and
    # member j0 + b of every label starts bit b, for positions j0 in steps
    # of per_block
    try:
        g = gr.random_graph(n, p, seed=seed)
    except gr.DisconnectedGraphError:
        assume(False)
    rng = random.Random(seed)
    labels = np.array([rng.randrange(n_labels) for _ in range(n)])
    groups = [np.flatnonzero(labels == c) for c in range(n_labels)]
    groups = [m for m in groups if len(m)]
    search = gr._search(g, labels)
    size = per_block or n
    for j0 in range(0, max(map(len, groups)), size):
        runs = [m[j0 : j0 + size] for m in groups if len(m) > j0]
        got = search(np.concatenate(runs), np.concatenate([np.arange(len(r)) for r in runs]))
        assert got.shape == (n, max(map(len, runs)))
        for m in groups:
            d = induced_distances(m.tolist(), g.adj)
            for b, t in enumerate(m[j0 : j0 + size].tolist()):
                assert got[m, b].tolist() == [d[t].get(v, -1) for v in m.tolist()]


def _old_components(nodes, adj):
    remaining = set(nodes)
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in remaining and w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(seen))
        remaining -= seen
    return comps


def oracle_regions(members, adj, parts, level, parent_id):
    """The region-growing rule with one whole-remainder connectivity
    search per candidate tried."""
    where = "the node set" if parent_id is None else f"cluster {parent_id}"
    total = len(members)
    if parts > total:
        raise hi.HierarchyBuildError(
            f"level {level}: cannot split {where} of {total} nodes into {parts} parts"
        )
    unassigned = set(members)
    base, rem = divmod(total, parts)
    regions = []
    for i in range(parts):
        target = base + (1 if i < rem else 0)
        seed = min(unassigned)
        unassigned.remove(seed)
        region = [seed]
        layer = {seed: 0}
        heap = []

        def push_frontier(w, lay):
            for x in adj[w]:
                if x in unassigned and x not in layer:
                    layer[x] = lay + 1
                    heapq.heappush(heap, (lay + 1, x))

        push_frontier(seed, 0)
        while len(region) < target:
            deferred = []
            pick = None
            while heap:
                lay, w = heapq.heappop(heap)
                if w not in unassigned:
                    continue
                unassigned.remove(w)
                if gr._connected_set(unassigned, adj):
                    pick = (lay, w)
                    break
                unassigned.add(w)
                deferred.append((lay, w))
            if pick is not None:
                for item in deferred:
                    heapq.heappush(heap, item)
                region.append(pick[1])
                push_frontier(pick[1], pick[0])
                continue
            if not deferred:
                raise hi.HierarchyBuildError(
                    f"level {level}, part {i} of {where}: stranded at "
                    f"{len(region)} of {target} nodes (remainder disconnected)"
                )
            chosen = None
            for lay, w in deferred:
                comps = _old_components(unassigned - {w}, adj)
                comps.sort(key=lambda c: (len(c), c[0]))
                eaten = sum(len(c) for c in comps[:-1])
                if len(region) + 1 + eaten <= target:
                    chosen = (lay, w, comps[:-1])
                    break
            if chosen is None:
                raise hi.HierarchyBuildError(
                    f"level {level}, part {i} of {where}: cannot keep the "
                    f"remainder connected at {len(region)} of {target} nodes"
                )
            lay, w, fragments = chosen
            unassigned.remove(w)
            region.append(w)
            push_frontier(w, lay)
            for comp in fragments:
                for x in comp:
                    unassigned.remove(x)
                    region.append(x)
                    push_frontier(x, lay)
            for item in deferred:
                if item[1] in unassigned:
                    heapq.heappush(heap, item)
        regions.append(sorted(region))
    return regions


def oracle_balanced(g, levels, branching):
    """Label paths of the balanced clustering, built with oracle_regions."""
    paths = [[] for _ in range(g.n_nodes)]
    current = [(None, list(range(g.n_nodes)))]
    for level in range(1, levels):
        nxt = []
        for parent_id, members in current:
            for region in oracle_regions(members, g.adj, branching, level, parent_id):
                for u in region:
                    paths[u].append(len(nxt))
                nxt.append((len(nxt), region))
        current = nxt
    return tuple(tuple(p) for p in paths)


def balanced_outcome(build, g, levels, branching):
    """Label paths, or the HierarchyBuildError message."""
    try:
        return build(g, levels, branching)
    except hi.HierarchyBuildError as exc:
        return f"HierarchyBuildError: {exc}"


def new_balanced(g, levels, branching):
    return hi.build_balanced(g, levels, branching).label_paths


@st.composite
def balanced_cases(draw):
    levels = draw(st.integers(2, 4))
    branching = draw(st.integers(2, 3))
    n = draw(st.integers(branching ** (levels - 1), 60))
    # from near-trees, which often cannot be split, to dense graphs
    p = draw(st.floats(min(0.5, math.log(n) / n), 0.6))
    try:
        g = gr.random_graph(n, p, seed=draw(st.integers(0, 2**16)))
    except gr.DisconnectedGraphError:
        assume(False)
    return g, levels, branching


@settings(max_examples=300, deadline=None)
@given(balanced_cases())
def test_build_balanced_equals_oracle(case):
    g, levels, branching = case
    assert balanced_outcome(new_balanced, g, levels, branching) == balanced_outcome(
        oracle_balanced, g, levels, branching
    )


def relabelled_torus(rows, cols, seed):
    """A torus whose ids are permuted by the seed (seed 0 keeps them)."""
    g = gr.torus_graph(rows, cols)
    perm = list(range(g.n_nodes))
    if seed:
        random.Random(seed).shuffle(perm)
    return gr.Graph(g.n_nodes, [(perm[u], perm[v]) for u, v in g.edges])


def test_relabelled_torus_equals_oracle():
    for seed in range(40):
        g = relabelled_torus(20, 20, seed)
        got = balanced_outcome(new_balanced, g, 4, 2)
        assert got == balanced_outcome(oracle_balanced, g, 4, 2), seed


@pytest.mark.parametrize("seed, at", [(19, 49), (29, 49), (33, 42)])
def test_relabelled_torus_error_messages(seed, at):
    # a known defect of the region-growing rule, kept message for message
    with pytest.raises(hi.HierarchyBuildError) as info:
        hi.build_balanced(relabelled_torus(20, 20, seed), 4, 2)
    assert str(info.value) == (
        f"level 3, part 0 of cluster 3: cannot keep the remainder connected "
        f"at {at} of 50 nodes"
    )


@pytest.mark.parametrize("levels, digest", [
    (2, "142ee2ed6829aaae38b072947849b41b9f202d9343ddf6cc9d8340036c024ac9"),
    (3, "2b4373910325d4d96fb4c706c3f268690de627913c9394ea333556807790e611"),
    (4, "1974316515d0810d69d88b42b8fe1133c8ee8815e2014bd7e6f7f69a42dd6459"),
    (5, "000b024ef8488cd7d2880dbe1bdd8846ef3c6e1e4359d6d3811a9f4c72ca87f8"),
])
def test_torus_40_hierarchy_files_frozen(tmp_path, levels, digest):
    # sha256 of the files written with one whole-remainder search per candidate
    path = tmp_path / "torus.clusters"
    hi.save(hi.build_balanced(gr.torus_graph(40, 40), levels, 2), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("graph, digest", [
    ("torus", "168decbb2e692412cad830eb5475314794b104c7082ab827af2878300974fe70"),
    ("random", "667574cdd6a952e7785b9c64feaae4f07e8f1a754a91305008e93078e1152f04"),
])
def test_branching_3_hierarchy_files_frozen(tmp_path, graph, digest):
    # sha256 of the files written while the last part of each split was
    # still grown node by node; at b = 3 that part is a third of the work
    if graph == "torus":
        g = gr.torus_graph(27, 27)
    else:
        g = gr.random_graph(700, 0.043, seed=1)
    path = tmp_path / "b3.clusters"
    hi.save(hi.build_balanced(g, 3, 3), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_branching_3_torus_error_message_frozen():
    with pytest.raises(hi.HierarchyBuildError) as info:
        hi.build_balanced(gr.torus_graph(27, 27), 4, 3)
    assert str(info.value) == (
        "level 3, part 1 of cluster 2: cannot keep the remainder connected "
        "at 21 of 27 nodes"
    )


@pytest.mark.parametrize("branching, levels, digest", [
    (2, 2, "4ca3c644c14dc3b35644499fc997e73cbf1bdbf7f565532e21b3837b2bbc0199"),
    (2, 4, "9b3d3bb4322ee8ce5c08ded713686e65ecf7d28a2b2706a3feb782bf3e8ecbb6"),
    (2, 5, "af742fa56e6b9b7b02a017b35c22e1a67cbdbb6091d46aada97f8d41bd4a93e3"),
    (3, 2, "61b78b7b0958e055637d10c667f2931e7d85cf695f5c8332de6dec9fc4b11f1f"),
])
def test_dense_hierarchy_files_frozen(tmp_path, branching, levels, digest):
    # sha256 of the files written while every cut test searched sets of
    # node ids; nearly all of them now take the mask search
    path = tmp_path / "dense.clusters"
    g = gr.random_graph(700, 0.043, seed=1)
    hi.save(hi.build_balanced(g, levels, branching), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_dense_error_message_frozen():
    with pytest.raises(hi.HierarchyBuildError) as info:
        hi.build_balanced(gr.random_graph(700, 0.043, seed=1), 4, 3)
    assert str(info.value) == (
        "level 3, part 1 of cluster 0: cannot keep the remainder connected "
        "at 25 of 26 nodes"
    )


def test_mask_search_only_past_four_starts(monkeypatch):
    # degree 4 keeps tori and grids on the set search, and they build no
    # bit set at all: neither a row nor the remainder's
    def refuse(*args):
        raise AssertionError("mask search entered")

    monkeypatch.setattr(hi, "_search_masks", refuse)
    monkeypatch.setattr(hi, "_bits", refuse)
    for levels in range(2, 6):
        hi.build_balanced(gr.torus_graph(40, 40), levels, 2)
    for levels in range(2, 7):
        hi.build_balanced(gr.grid_graph(16, 16), levels, 2)


def test_mask_search_entered_on_dense_graphs(monkeypatch):
    search = hi._search_masks
    starts = []

    def count(w, rest, adj, rows):
        found = search(w, rest, adj, rows)
        starts.append(bin(rows[w] & rest).count("1"))
        return found

    monkeypatch.setattr(hi, "_search_masks", count)
    hi.build_balanced(gr.random_graph(700, 0.043, seed=1), 3, 2)
    assert starts and min(starts) > 4


def small_shapes(n):
    return {
        "ring": gr.ring_graph(n),
        "path": gr.Graph(n, [(i, i + 1) for i in range(n - 1)]),
        "star": gr.Graph(n, [(0, i) for i in range(1, n)]),
        "complete": gr.Graph(n, list(combinations(range(n), 2))),
    }


@pytest.mark.parametrize("branching", [3, 4])
def test_unit_base_splits_equal_oracle(branching):
    # n in [b, 2b): every part after the first n - b has a single node
    for n in range(branching, 2 * branching):
        for name, g in small_shapes(n).items():
            got = balanced_outcome(new_balanced, g, 2, branching)
            assert got == balanced_outcome(oracle_balanced, g, 2, branching), (name, n)


@pytest.mark.parametrize("rows, cols, branching, levels", [
    (3, 30, 2, 2), (3, 30, 2, 3), (3, 30, 2, 4), (3, 30, 3, 2), (3, 30, 3, 3),
    (1, 12, 2, 2), (1, 12, 2, 3), (1, 12, 3, 2), (1, 12, 3, 3),
])
def test_cut_vertex_remainders_equal_oracle(rows, cols, branching, levels):
    # thin grids and paths: nearly every node of a remainder is a cut vertex
    g = gr.grid_graph(rows, cols) if rows > 1 else small_shapes(cols)["path"]
    got = balanced_outcome(new_balanced, g, levels, branching)
    assert got == balanced_outcome(oracle_balanced, g, levels, branching)


@pytest.mark.parametrize("levels, branching", [(2, 2), (3, 2), (2, 3)])
def test_cut_vertex_seed_equals_oracle(levels, branching):
    # node 0, the first seed, joins two K4s: the remainder it leaves is
    # disconnected, so the first part's candidates are tested with a
    # search of the whole remainder
    edges = [(0, 1), (0, 5), *combinations(range(1, 5), 2), *combinations(range(5, 9), 2)]
    g = gr.Graph(9, edges)
    assert hi._severed(0, set(range(1, 9)), g.adj, {}, hi._bits(range(9))) == {1, 2, 3, 4}
    got = balanced_outcome(new_balanced, g, levels, branching)
    assert got == balanced_outcome(oracle_balanced, g, levels, branching)
    if (levels, branching) == (2, 2):
        assert got == ((0,),) * 5 + ((1,),) * 4


def oracle_validate(hierarchy, graph):
    """hierarchy.validate as one search per cluster: the members of every
    cluster of a level, then its parent prefixes and one connectivity
    search of its members."""
    violations = []
    if hierarchy.n_nodes != graph.n_nodes:
        violations.append(
            f"node count mismatch: hierarchy has {hierarchy.n_nodes}, "
            f"graph has {graph.n_nodes}"
        )
        return violations
    want = hierarchy.levels - 1
    bad_len = False
    for u, p in enumerate(hierarchy.label_paths):
        if len(p) != want:
            violations.append(
                f"nesting: node {u} has a label path of length {len(p)}, expected {want}"
            )
            bad_len = True
    if bad_len:
        return violations
    for level in range(1, hierarchy.levels):
        groups = clusters_at_level(hierarchy, level)
        for cid in sorted(groups):
            members = groups[cid]
            if level > 1:
                prefixes = {hierarchy.label_paths[u][: level - 1] for u in members}
                if len(prefixes) > 1:
                    violations.append(
                        f"nesting: level {level} cluster {cid} spans "
                        f"{len(prefixes)} parent clusters"
                    )
            if not gr._connected_set(set(members), graph.adj):
                violations.append(
                    f"connectivity: level {level} cluster {cid} induces a "
                    "disconnected subgraph"
                )
    return violations


VALIDATE_FAULTS = ["split-parent", "disconnect", "shared-id", "ragged", "count", "relabel"]


@st.composite
def validate_cases(draw):
    """A random connected graph and label paths: balanced ones or drawn
    ones, with up to three faults of drawn kinds."""
    n = draw(st.integers(2, 30))
    try:
        g = gr.random_graph(n, draw(st.floats(0.05, 0.6)), seed=draw(st.integers(0, 2**16)))
    except gr.DisconnectedGraphError:
        assume(False)
    levels = draw(st.integers(1, 4))
    try:
        paths = [list(p) for p in hi.build_balanced(g, levels, 2).label_paths]
    except (ValueError, hi.HierarchyBuildError):
        ids = st.integers(-1, 5)
        paths = [draw(st.lists(ids, min_size=levels - 1, max_size=levels - 1)) for _ in range(n)]
    for fault in draw(st.lists(st.sampled_from(VALIDATE_FAULTS), max_size=3)):
        u = draw(st.integers(0, len(paths) - 1))
        depth = len(paths[u])
        if fault == "split-parent" and depth > 1:
            # u keeps its cluster id but moves under another parent
            paths[u][draw(st.integers(0, depth - 2))] += draw(st.integers(1, 3))
        elif fault == "disconnect" and depth:
            # u joins a sibling of its leaf, maybe far away
            siblings = [p for p in paths if len(p) == depth and p[:-1] == paths[u][:-1]]
            paths[u][-1] = draw(st.sampled_from(siblings))[-1]
        elif fault == "shared-id" and depth:
            # one cluster takes the id of another, under another parent
            level = draw(st.integers(0, depth - 1))
            old, new = paths[u][level], draw(st.integers(0, 7))
            for p in paths:
                if len(p) > level and p[level] == old:
                    p[level] = new
        elif fault == "ragged":
            paths[u] = paths[u][:-1] if depth and draw(st.booleans()) else paths[u] + [0]
        elif fault == "count":
            if draw(st.booleans()) and len(paths) > 1:
                del paths[u]
            else:
                paths.append(list(paths[u]))
        elif fault == "relabel":
            paths = [[draw(st.integers(0, 3)) for _ in p] for p in paths]
    return gr.Graph(g.n_nodes, g.edges), hi.Hierarchy(levels, tuple(map(tuple, paths)))


@settings(max_examples=400, deadline=None)
@given(validate_cases())
def test_validate_equals_per_cluster_oracle(case):
    g, h = case
    assert hi.validate(h, g) == oracle_validate(h, g)


def test_validate_examples_equal_per_cluster_oracle():
    # the benchmark's hierarchies, and each with one fault
    for g, levels in ((gr.torus_graph(40, 40), 5), (gr.random_graph(700, 0.043, seed=1), 3)):
        h = hi.build_balanced(g, levels, 2)
        assert hi.validate(h, g) == oracle_validate(h, g) == []
        paths = [list(p) for p in h.label_paths]
        # node 0 joins a leaf under another coarsest cluster
        v = next(v for v, p in enumerate(paths) if p[0] != paths[0][0])
        paths[0][-1] = paths[v][-1]
        bad = hi.Hierarchy(levels, tuple(map(tuple, paths)))
        got = hi.validate(bad, g)
        assert got == oracle_validate(bad, g)
        assert any(v.startswith("nesting: level") for v in got)
        assert any(v.startswith("connectivity:") for v in got)


def giant_component(n, d, seed):
    """The largest component of G(n, d / (n - 1)) drawn as random_graph
    draws it, its nodes renumbered in id order."""
    rng = random.Random(seed)
    p = d / (n - 1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    keep = max(_old_components(range(n), adj), key=len)
    new = {u: i for i, u in enumerate(keep)}
    return gr.Graph(len(keep), [(new[u], new[v]) for u, v in edges if u in new])


@pytest.mark.parametrize("d", [4, 6, 8])
def test_sparse_giant_components_equal_oracle(d):
    # trees hang off these graphs, so their remainders hold the most
    # deferred cut vertices of any graph here
    g = giant_component(700, d, 1)
    got = balanced_outcome(new_balanced, g, 3, 2)
    assert got == balanced_outcome(oracle_balanced, g, 3, 2)
    if d == 4:
        assert got == (
            "HierarchyBuildError: level 2, part 0 of cluster 1: cannot keep the "
            "remainder connected at 171 of 172 nodes"
        )
    else:
        assert isinstance(got, tuple)


def with_pendants(g):
    """g with a new leaf n + u hung on every node u."""
    n = g.n_nodes
    return gr.Graph(2 * n, [*g.edges, *((u, n + u) for u in range(n))])


@pytest.mark.parametrize("shape", ["ring", "grid"])
@pytest.mark.parametrize("levels, branching", [(3, 2), (4, 2), (3, 3)])
def test_pendant_shapes_equal_oracle(shape, levels, branching):
    # every node of the base shape cuts off its leaf, so a remainder holds
    # a memo for nearly every deferred candidate; on the grid at b = 3,
    # memos made in one part answer in the next.  Several cases raise.
    g = with_pendants(gr.ring_graph(60) if shape == "ring" else gr.grid_graph(8, 9))
    got = balanced_outcome(new_balanced, g, levels, branching)
    assert got == balanced_outcome(oracle_balanced, g, levels, branching)


def test_memo_lapses_when_the_other_side_empties():
    # in part 0, node 6 cuts {3, 8, 9} off; parts 1 and 2 take every node
    # on the other side, so in part 3 (seeded at 3) node 6 is safe again
    # and comes off the frontier before 8
    edges = [(0, 6), (0, 7), (1, 5), (2, 4), (2, 5), (3, 6), (3, 8), (4, 6),
             (4, 7), (5, 7), (6, 9), (8, 9)]
    g = gr.Graph(10, edges)
    got = balanced_outcome(new_balanced, g, 2, 5)
    assert got == balanced_outcome(oracle_balanced, g, 2, 5)
    assert got == ((0,), (1,), (2,), (3,), (2,), (1,), (3,), (0,), (4,), (4,))


@pytest.mark.parametrize("graph, levels, digest", [
    ("torus", 2, "dbf20a5b03556ed12a892ca873f89cd1dc8f2f664b598722eb4e569e2fc3201f"),
    ("torus", 3, "bee50c7072879fa81fef6a04b955500e9de1d9ffcc903bf6aa5e9feb64c08674"),
    ("torus", 4, "51595e1c95799fc7dd2df926c521a4d2b84b56f3d3c84c1c3f12bc2f42bd33af"),
    ("random", 3, "f6f6eb31a82b4bcc6a6e983ea28d18211358ae30a42a85f5e27f1b77dbf4048c"),
])
def test_build_tables_frozen(graph, levels, digest):
    # sha256 of repr(tables) from the bit-parallel leaf builder: it pins
    # each dict's order and every hop, where == against oracle_tables
    # ignores dict order
    if graph == "torus":
        g = gr.torus_graph(20, 20)
    else:
        g = gr.random_graph(700, 0.043, seed=1)
    tables = rt.build_tables(g, hi.build_balanced(g, levels, 2))
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


SMALL_GRAPHS = {
    "path-6": gr.Graph(6, [(i, i + 1) for i in range(5)]),
    "ring-7": gr.ring_graph(7),
    "star-5": gr.Graph(6, [(0, i) for i in range(1, 6)]),
    "bowtie": gr.Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    "grid-3x3": gr.grid_graph(3, 3),
    # two-start candidates whose starts share a neighbour other than w
    "torus-3x4": gr.torus_graph(3, 4),
    # K4 without (0, 3): the starts 1, 2 of w = 0 are joined through 3
    # only while 3 is unassigned, and directly in any case
    "diamond": gr.Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    # candidates with five or six starts, which take the mask search:
    # never a cut in K6 or in a hub with a 6-node rim, and the hub of two
    # K4s that share it cuts whenever both sides are left
    "K6": gr.Graph(6, list(combinations(range(6), 2))),
    "wheel-6": gr.Graph(7, [(0, i) for i in range(1, 7)]
                        + [(i, i % 6 + 1) for i in range(1, 7)]),
    "two-K4-hub": gr.Graph(7, [*combinations((0, 1, 2, 3), 2),
                               *combinations((0, 4, 5, 6), 2)]),
}


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_local_cut_test_exhaustive(name):
    # every connected remainder and every candidate in it
    g = SMALL_GRAPHS[name]
    adj = g.adj
    rows = {}  # bit rows, shared like those of one build_balanced call
    for size in range(1, g.n_nodes + 1):
        for chosen in combinations(range(g.n_nodes), size):
            remainder = set(chosen)
            if not gr._connected_set(remainder, adj):
                continue
            for w in chosen:
                rest = remainder - {w}
                comps = gr._components(rest, adj)
                assert comps == sorted(comps, key=lambda c: (len(c), c[0]))
                assert sorted(x for c in comps for x in c) == sorted(rest)
                # the remainder's bit set may still hold w
                got = hi._severed(w, rest, adj, rows, hi._bits(remainder))
                assert (got is None) == gr._connected_set(rest, adj), (chosen, w)
                starts = [x for x in adj[w] if x in rest]
                searches = [got]
                if len(starts) > 1:
                    # the set search and the mask search agree
                    searches.append(hi._search_sets(starts, rest, adj))
                    searches.append(hi._search_masks(w, hi._bits(rest), adj, rows))
                for found in searches:
                    assert (found is None) == (got is None), (chosen, w)
                    if found is not None:
                        # one whole component, reached from a neighbour of w
                        assert sorted(found) in comps
                        assert any(x in found for x in starts)


@st.composite
def hub_remainders(draw):
    """A connected graph on 130-300 nodes, a random tree with one to six
    hubs of 11 or more neighbours and extra edges, and a connected
    remainder of it: the largest component left once up to a quarter of
    the nodes are taken."""
    n = draw(st.integers(130, 300))
    rng = random.Random(draw(st.integers(0, 2**16)))
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for _ in range(draw(st.integers(1, 6))):
        hub = rng.randrange(n)
        edges.update(tuple(sorted((hub, x))) for x in rng.sample(range(n), 12) if x != hub)
    for _ in range(draw(st.integers(0, n // 2))):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    g = gr.Graph(n, sorted(edges))
    taken = set(rng.sample(range(n), draw(st.integers(0, n // 4))))
    return g, set(gr._components(set(range(n)) - taken, g.adj)[-1])


@settings(max_examples=80, deadline=None)
@given(hub_remainders())
def test_mask_search_past_one_word(case):
    # masks of several words: every candidate with more than four starts
    g, remainder = case
    assume(max(remainder) >= 128)
    adj = g.adj
    rows = {}
    bits = hi._bits(remainder)
    checked = 0
    for w in sorted(remainder):
        rest = remainder - {w}
        starts = [x for x in adj[w] if x in rest]
        if len(starts) <= hi._MASK_STARTS:
            continue
        checked += 1
        comps = gr._components(rest, adj)
        got = hi._severed(w, rest, adj, rows, bits)
        assert (got is None) == gr._connected_set(rest, adj), w
        sets = hi._search_sets(starts, rest, adj)
        masks = hi._search_masks(w, bits & ~(1 << w), adj, rows)
        for found in (got, sets, masks):
            assert (found is None) == (got is None), w
            if found is not None:
                # one whole component, reached from a neighbour of w
                assert sorted(found) in comps
                assert any(x in found for x in starts)
    assume(checked)


def oracle_graph(n_nodes, edges):
    """(n, edges, adj) as the per-edge Graph constructor built them: one
    pass in input order with a set of the edges seen, raising for the
    first self-loop, out-of-range edge or repeat, then sorted adjacency
    lists and a connectivity check."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1 (got {n_nodes})")
    seen = set()
    canon = []
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
    if len(canon) < n_nodes - 1:
        raise gr.DisconnectedGraphError(message)
    adj = [[] for _ in range(n_nodes)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    adj = tuple(tuple(sorted(ns)) for ns in adj)
    if not gr._connected_set(set(range(n_nodes)), adj):
        raise gr.DisconnectedGraphError(message)
    return n_nodes, tuple(canon), adj


def oracle_load_graph(path):
    """The line-by-line graph reader: every check in Python on each line
    as it is read, then oracle_graph."""
    n = None
    edges = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if n is None:
                if len(tokens) != 2 or tokens[0] != "n":
                    raise gr.GraphFormatError("expected header 'n <count>'", line_no)
                try:
                    n = int(tokens[1])
                except ValueError:
                    raise gr.GraphFormatError(
                        f"node count {tokens[1]!r} is not an integer", line_no
                    ) from None
                if n < 1:
                    raise gr.GraphFormatError(f"node count must be >= 1 (got {n})", line_no)
                continue
            if len(tokens) != 2:
                raise gr.GraphFormatError(
                    f"expected 'u v', got {len(tokens)} fields", line_no
                )
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise gr.GraphFormatError(f"non-integer endpoint in {line!r}", line_no) from None
            if u == v:
                raise gr.GraphFormatError(f"self-loop at node {u}", line_no)
            if not u < v:
                raise gr.GraphFormatError(
                    f"edge endpoints must satisfy u < v (got {u} {v})", line_no
                )
            if not (0 <= u and v < n):
                raise gr.GraphFormatError(
                    f"edge ({u}, {v}) out of range for {n} nodes", line_no
                )
            if (u, v) in seen:
                raise gr.GraphFormatError(f"duplicate edge ({u}, {v})", line_no)
            seen.add((u, v))
            edges.append((u, v))
    if n is None:
        raise gr.GraphFormatError("file has no 'n <count>' header")
    return oracle_graph(n, edges)


def oracle_load_hierarchy(path):
    """The line-by-line hierarchy reader."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                values = [int(t) for t in tokens]
            except ValueError:
                raise hi.HierarchyFormatError(
                    f"non-integer field in {line!r}", line_no
                ) from None
            u, path_ids = values[0], values[1:]
            if u < 0:
                raise hi.HierarchyFormatError(f"negative node id {u}", line_no)
            if any(c < 0 for c in path_ids):
                raise hi.HierarchyFormatError(f"negative cluster id for node {u}", line_no)
            if u in rows:
                raise hi.HierarchyFormatError(f"duplicate entry for node {u}", line_no)
            rows[u] = tuple(path_ids)
    if not rows:
        raise hi.HierarchyFormatError("file lists no nodes")
    n = max(rows) + 1
    missing = list(islice((u for u in range(n) if u not in rows), 5))
    if missing:
        raise hi.HierarchyFormatError(f"missing entries for nodes {missing}")
    paths = tuple(rows[u] for u in range(n))
    return hi.Hierarchy(1 + max(len(p) for p in paths), paths, method="file")


def graph_value(g):
    return g.n_nodes, g.edges, g.adj


def load_outcome(call, *args):
    """What call(*args) returns, or (exception type, line number, message)
    of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)


# separators str.split and the bulk parse both take, line breaks the
# reader and the oracle both make (universal newlines), and padding
BLANKS = [" ", "\t", "  ", " \t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2028", "\u3000"]
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def file_lines(draw, body, header=None, comments=True):
    """The text of a file holding `body` (after `header`) between blank
    lines and, with `comments`, comment lines, with drawn separators,
    padding and line breaks, and maybe no final line break."""
    pad = st.sampled_from(["", ""] + BLANKS)
    sep = st.sampled_from(BLANKS)

    def render(fields):
        return draw(pad) + draw(sep).join(fields) + draw(pad)

    lines = [] if header is None else [render(header)]
    lines += [render(fields) for fields in body]
    extras = ["", "  ", "\t", "\x0c"]
    if comments:
        extras += ["# a comment", "  #indented 1 2", "#"]
    extras = draw(st.lists(st.sampled_from(extras), max_size=4))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "".join(line + draw(st.sampled_from(NEWLINES)) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


GRAPH_FAULTS = [
    "header", "fields", "non-integer", "reversed", "self-loop", "range",
    "duplicate", "no-header",
]


@st.composite
def graph_files(draw):
    """A small graph file, connected or not, in drawn edge order, with
    up to two malformed lines of drawn kinds at drawn positions."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n) if draw(st.integers(0, 9))}
    edges |= {
        (u, v) for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                         max_size=8))
        if u < v
    }
    edges = sorted(edges)
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    body = [[str(u), str(v)] for u, v in edges]
    body = [[draw(st.sampled_from([t, t, "+" + t, "0" + t])) for t in fields] for fields in body]
    header = ["n", str(n)]
    for fault in draw(st.lists(st.sampled_from(GRAPH_FAULTS), max_size=2)):
        at = draw(st.integers(0, len(body)))
        if fault == "header":
            header = draw(st.sampled_from([["n"], ["n", "x"], ["m", str(n)], ["n", "0"],
                                           ["n", "-2"], ["n", str(n), "1"]]))
        elif fault == "no-header":
            header = None
        elif fault == "fields":
            body.insert(at, draw(st.sampled_from([["1"], ["0", "1", "2"], ["n", "3"]])))
        elif fault == "non-integer":
            body.insert(at, draw(st.sampled_from([["a", "1"], ["0", "1.0"], ["0x1", "2"],
                                                  ["1e0", "2"], ["-", "1"]])))
        elif fault == "reversed" and n > 1:
            body.insert(at, [str(n - 1), str(draw(st.integers(0, n - 2)))])
        elif fault == "self-loop":
            body.insert(at, [str(draw(st.integers(0, n - 1)))] * 2)
        elif fault == "range":
            body.insert(at, draw(st.sampled_from([["0", str(n)], ["-1", "0"], ["-3", "-1"]])))
        elif fault == "duplicate" and body:
            body.insert(at, body[draw(st.integers(0, len(body) - 1))])
    return draw(file_lines(body, header))


@settings(max_examples=400, deadline=None)
@given(graph_files())
def test_graph_load_equals_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("load") / "g.graph"
    path.write_bytes(text.encode("utf-8"))
    got = load_outcome(lambda p: graph_value(gr.load(p)), path)
    assert got == load_outcome(oracle_load_graph, path)


def test_graph_load_examples_equal_line_reader(tmp_path):
    # each kind of line the reader treats on its own, and the perfbench inputs
    cases = [
        "n 1\n", "n 1", "\n\n# only the header\nn 1\n\n", "n 3\n", "# nothing\n", "",
        "n 2\n0 1\n0 1\n", "n 3\n0 1\n1 0\n", "n 3\n1 2\n0 1 # 1 2\n",
        "n 3\n0 1\nzero one\n1 1\n", "n 3\n1 1\nzero one\n", "n 3\n0 1\n\x00\n",
        "n 3\n0 1\n0 1\nx y\n", "n 3\n2 1\n0 1 2\n", "n 4\n0 1\n2 3\n",
        "n 3\n0 1\n1 2\n0 9223372036854775807\n", "n 5\n0 1\n0 1\n0 5\n",
        "n 3\n0 1 2\n1 2 0\n", "n 2\n1\n0\n",  # every row of a width other than two
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"{i}.graph"
        path.write_text(text)
        got = load_outcome(lambda p: graph_value(gr.load(p)), path)
        assert got == load_outcome(oracle_load_graph, path), text
    for g in (gr.torus_graph(20, 20), gr.random_graph(700, 0.043, seed=1)):
        path = tmp_path / "big.graph"
        gr.save(g, str(path))
        assert graph_value(gr.load(path)) == oracle_load_graph(path)


@pytest.mark.parametrize("line", [
    "0 1_0",                  # int() takes digit-group underscores
    "0 \u0663",               # and non-ASCII digits (ARABIC-INDIC DIGIT THREE)
    "0 9223372036854775808",  # and ids beyond int64
    "-9223372036854775809 0",
])
def test_graph_load_rejects_what_only_int_accepts(tmp_path, line):
    # the bulk parse takes ASCII decimal int64 only; the line reader took
    # these, as an edge or as an out-of-range one
    path = tmp_path / "g.graph"
    path.write_text(f"n 12\n{line}\n" + "".join(f"{i} {i + 1}\n" for i in range(11)))
    with pytest.raises(gr.GraphFormatError) as info:
        gr.load(path)
    assert info.value.line_no == 2
    assert str(info.value) == f"line 2: non-integer endpoint in {line!r}"
    assert load_outcome(oracle_load_graph, path) != load_outcome(gr.load, path)


HIERARCHY_FAULTS = ["non-integer", "negative-node", "negative-cluster", "duplicate", "missing"]
# forms of an id that int() reads: the bulk parse reads the first three
# alike and refuses the others (13 for "1_3", non-ASCII digits, beyond
# int64), which leaves them to the line reader
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")
ID_FORMS = [
    str, str, lambda t: f"+{t}", lambda t: f"0{t}",
    lambda t: f"1_{t}", lambda t: str(t).translate(ARABIC_INDIC), lambda t: str(t + 2**63),
]


@st.composite
def hierarchy_files(draw):
    """A small hierarchy file.  Half are canonical in shape, as save()
    writes them but for separators, line ends, blank lines and id forms;
    the others may be ragged, in drawn node order and hold comments and
    up to two malformed lines of drawn kinds at drawn positions."""
    n = draw(st.integers(1, 9))
    depth = draw(st.integers(0, 3))  # 0: a flat file of bare ids
    paths = [draw(st.lists(st.integers(0, 3), min_size=depth, max_size=depth)) for _ in range(n)]
    canonical = draw(st.booleans())
    if not canonical and draw(st.booleans()):  # ragged: validate() reports it, load() must not
        u = draw(st.integers(0, n - 1))
        paths[u] = draw(st.lists(st.integers(0, 3), max_size=4))
    forms = st.sampled_from(ID_FORMS)
    body = [
        [draw(st.sampled_from(ID_FORMS[:4] + ID_FORMS[5:6]))(u), *(draw(forms)(t) for t in p)]
        for u, p in enumerate(paths)
    ]
    if canonical:
        return draw(file_lines(body, comments=False))
    if draw(st.booleans()):
        body = draw(st.permutations(body))
    for fault in draw(st.lists(st.sampled_from(HIERARCHY_FAULTS), max_size=2)):
        at = draw(st.integers(0, len(body)))
        if fault == "non-integer":
            body.insert(at, draw(st.sampled_from([["1", "a"], ["x"], ["2", "1.5"]])))
        elif fault == "negative-node":
            body.insert(at, ["-1", "0"][: draw(st.integers(1, 2))])
        elif fault == "negative-cluster":
            body.insert(at, [str(draw(st.integers(0, n))), "0", "-2"])
        elif fault == "duplicate" and body:
            body.insert(at, body[draw(st.integers(0, len(body) - 1))])
        elif fault == "missing" and body:
            del body[min(at, len(body) - 1)]
    return draw(file_lines(body))


@settings(max_examples=400, deadline=None)
@given(hierarchy_files())
def test_hierarchy_load_equals_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("load") / "h.clusters"
    path.write_bytes(text.encode("utf-8"))
    got = load_outcome(hi.load, path)
    want = load_outcome(oracle_load_hierarchy, path)
    assert got == want
    if isinstance(got, hi.Hierarchy):
        assert got.method == want.method


def test_canonical_hierarchy_files_take_the_array_path(tmp_path, monkeypatch):
    # with the line reader refusing, the 40x40 torus files save() writes
    # at levels 2-5 still load, and so do canonical files in other forms
    reader = hi._load_lines

    def refuse(lines):
        raise AssertionError("line reader called")

    monkeypatch.setattr(hi, "_load_lines", refuse)
    g = gr.torus_graph(40, 40)
    for levels in range(2, 6):
        h = hi.build_balanced(g, levels, 2)
        path = tmp_path / f"L{levels}.clusters"
        hi.save(h, str(path))
        got = hi.load(path)
        assert got == h and got.levels == levels and got.method == "file"
        assert type(got.label_paths[0][0]) is int
    canonical = [
        "0\n1\n2\n",                      # a flat file of bare ids
        "0\t3 1\r\n1\t+3 01\r\n\r\n2 3 2",  # tabs, CRLF, +3, 01, a blank line
        " 0 0\x0b\n\x0c1  0\n",             # other whitespace
    ]
    for i, text in enumerate(canonical):
        path = tmp_path / f"{i}.clusters"
        path.write_bytes(text.encode("utf-8"))
        assert hi.load(path) == oracle_load_hierarchy(path)
    # what the bulk parse refuses reaches the line reader
    monkeypatch.setattr(hi, "_load_lines", reader)
    for i, text in enumerate(["0 1_0\n", "0 \u0663\n", f"0 {2**63}\n", "1 0\n0 0\n",
                              "0 1\n1\n", "# c\n0 1\n", "0 -1\n", "0 0\n0 0\n"]):
        path = tmp_path / f"line{i}.clusters"
        path.write_text(text, encoding="utf-8")
        calls = []
        monkeypatch.setattr(hi, "_load_lines", lambda lines: calls.append(1) or reader(lines))
        assert load_outcome(hi.load, path) == load_outcome(oracle_load_hierarchy, path)
        assert calls == [1], text


@st.composite
def edge_lists(draw):
    """Edge lists in any orientation and order, with drawn faults."""
    n = draw(st.integers(1, 8))
    ids = st.integers(-2, n + 1) if draw(st.integers(0, 3)) == 0 else st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(ids, ids), max_size=16))


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_graph_equals_per_edge_constructor(case):
    n, edges = case
    try:
        want = oracle_graph(n, edges)
    except ValueError as exc:
        # Graph raises EdgeError, a ValueError, where the oracle raises ValueError
        with pytest.raises(type(exc)) as info:
            gr.Graph(n, edges)
        assert str(info.value) == str(exc)
    else:
        assert graph_value(gr.Graph(n, edges)) == want


def test_graph_names_the_first_bad_edge_in_input_order():
    # a repeat (in the other orientation) before a self-loop before an
    # out-of-range edge, then each fault moved to the front
    faults = [(1, 0), (3, 3), (0, 9)]
    for k in range(len(faults)):
        edges = [(0, 1), (1, 2), *faults[k:], *faults[:k], (2, 3)]
        with pytest.raises(ValueError) as info:
            gr.Graph(5, edges)
        assert str(info.value) == load_outcome(oracle_graph, 5, edges)[2]
        assert str(info.value) == [
            "duplicate edge (0, 1)", "self-loop at node 3", "edge (0, 9) out of range for 5 nodes",
        ][k]
    # the generator's edge lists, given in input order, in reverse and flipped
    g = gr.random_graph(700, 0.043, seed=1)
    for edges in (list(g.edges), g.edges[::-1], [(v, u) for u, v in g.edges]):
        assert graph_value(gr.Graph(700, edges)) == oracle_graph(700, edges)
    assert graph_value(gr.Graph(700, np.array(g.edges))) == graph_value(g)
    assert graph_value(gr.Graph(700, [list(e) for e in g.edges])) == graph_value(g)
    # an endpoint beyond int64 cannot enter the array; the per-edge loop
    # called it out of range
    with pytest.raises(ValueError, match="outside the int64 range"):
        gr.Graph(3, [(0, 1), (1, 2**64)])

"""Property checks of build_tables() and measure() against references.

build_tables() finds next hops by gateway-carrying BFS runs; the table
oracle below finds them from all-pairs distances inside each cluster,
the definition the tables must reproduce exactly.  measure() resolves
all route lengths at once from a next-hop array; the walker reference
routes every pair with route() and must be reproduced exactly, down to
the bits of the per-pair ratio sum.
"""

from collections import Counter, deque

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


def oracle_tables(g, h):
    """Tables from all-pairs distances: node entries inside the leaf, and
    for each sibling cluster inside the parent (the entire graph at level
    1), its nearest member by (distance, id) and the hop toward it."""
    n = g.n_nodes
    dist = gr.all_pairs_shortest_lengths(g)
    entire = {u: dict(enumerate(dist[u])) for u in range(n)}
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
        members = h.clusters_at_level(level)
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
    """route() every ordered pair, summing in source-major order."""
    n = g.n_nodes
    dist = gr.all_pairs_shortest_lengths(g)
    tables = rt.build_tables(g, h)
    total_hier = 0
    total_short = 0
    ratio_sum = 0.0
    hist = Counter()
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            hops = len(rt.route(tables, g, h, src, dst)) - 1
            total_hier += hops
            total_short += dist[src][dst]
            ratio_sum += hops / dist[src][dst]
            hist[hops] += 1
    pairs = n * (n - 1)
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
        mean_path_ratio=ratio_sum / pairs,
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
@given(clustered_graphs(), st.sampled_from([1, 40, 1 << 16]))
def test_measure_equals_route_walker(gh, block_cells):
    g, h = gh
    assert hi.validate(h, g) == []
    # block sizes from one destination per block to all in one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt, "_BLOCK_CELLS", block_cells)
        rep = rt.measure(g, h)
    assert rep == reference(g, h)
    assert rep.s_p >= 1.0
    flat = rt.measure(g, hi.flat_hierarchy(g))
    assert flat.s_p == flat.s_t == 1.0


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_torus_ladder_equals_route_walker(levels):
    g = gr.torus_graph(20, 20)
    h = hi.build_balanced(g, levels, 2)
    assert rt.measure(g, h) == reference(g, h)


@settings(max_examples=150, deadline=None)
@given(clustered_graphs())
def test_build_tables_equals_oracle(gh):
    g, h = gh
    assert rt.build_tables(g, h) == oracle_tables(g, h)


@settings(max_examples=150, deadline=None)
@given(clustered_graphs())
def test_routes_never_beat_bfs(gh):
    g, h = gh
    tables = rt.build_tables(g, h)
    edges = set(g.edges)
    for src in range(g.n_nodes):
        short = gr.bfs_lengths(g, src)
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

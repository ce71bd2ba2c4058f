"""Reference implementations that the test modules compare the program
against, each defined once: the test modules import them from here, and
test_oracles.py fails when one of these names is defined again.  Pytest
does not collect this module, as its name does not start with test_.
"""

import math
import random
from collections import Counter, deque
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from routestretch import fitting as ft
from routestretch import graphs as gr
from routestretch import routing as rt


def floyd_warshall(n, edges):
    """All-pairs hop counts of an edge list (inf when unreachable)."""
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def adjacency(graph):
    """Each node's neighbors in ascending order, one list per node, from
    graph.edges."""
    rows = [[] for _ in range(graph.n_nodes)]
    for u, v in graph.edges:
        rows[u].append(v)
        rows[v].append(u)
    return [sorted(row) for row in rows]


def bfs(adj, source, inside=None):
    """Hop distances from `source` by one breadth-first search that keeps
    to the node set `inside` (every node when None), in the order nodes
    are reached; unreached nodes are absent."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist and (inside is None or w in inside):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def induced_distances(nodes, adj):
    """All-pairs BFS hop counts inside the induced subgraph of `nodes`."""
    node_set = set(nodes)
    return {s: bfs(adj, s, node_set) for s in nodes}


def components(nodes, adj):
    """The components of the subgraph `nodes` induce, each in ascending
    order, by lowest member."""
    remaining = set(nodes)
    comps = []
    while remaining:
        comp = sorted(bfs(adj, min(remaining), remaining))
        comps.append(comp)
        remaining.difference_update(comp)
    return comps


def largest_component(n, pairs):
    """The largest component (the one with the lowest member among ties)
    of n nodes joined by `pairs`, its nodes renumbered in id order."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    keep = max(components(range(n), adj), key=len)
    new = {u: i for i, u in enumerate(keep)}
    return gr.Graph(len(keep), [(new[u], new[v]) for u, v in pairs if u in new])


def per_pair_random_graph(n, edge_prob, seed):
    """Connected G(n, p) sample from one random() call per node pair, in
    row-major order over i < j, retried on a disconnected draw: the
    reference for graphs.random_graph's bulk draw, down to its retries
    and the messages of its errors."""
    if n < 2:
        raise ValueError(f"a random graph needs n >= 2 (got {n})")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob must lie in (0, 1] (got {edge_prob})")
    rng = random.Random(seed)
    for _ in range(gr._MAX_TRIES):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_prob
        ]
        try:
            return gr.Graph(n, edges)
        except gr.DisconnectedGraphError:
            continue
    raise gr.DisconnectedGraphError(
        f"no connected G({n}, {edge_prob}) sample in {gr._MAX_TRIES} attempts (seed {seed})"
    )


def per_line_save_graph(graph, path):
    """graphs.save with one formatted line per edge."""
    text = "".join([f"n {graph.n_nodes}\n", *(f"{u} {v}\n" for u, v in graph.edges)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def per_line_save_hierarchy(hierarchy, path):
    """hierarchy.save with one joined line per node."""
    text = "".join(
        " ".join(map(str, (u, *p))) + "\n" for u, p in enumerate(hierarchy.label_paths)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def draw_random_graph(draw, n, p):
    """random_graph(n) with its edge probability drawn from the strategy
    `p`, then its seed; a draw that is not connected is discarded."""
    try:
        return gr.random_graph(n, draw(p), seed=draw(st.integers(0, 2**16)))
    except gr.DisconnectedGraphError:
        assume(False)


def clusters_at_level(hierarchy, level):
    """Members of every cluster at a level (1 = coarsest), by cluster id,
    each in ascending order."""
    groups = {}
    for u, p in enumerate(hierarchy.label_paths):
        groups.setdefault(p[level - 1], []).append(u)
    return groups


def prefix_groups(paths):
    """Members under every label-path prefix, in ascending id order: the
    empty prefix is the entire graph, a full path is a leaf cluster."""
    groups = {}
    for u, p in enumerate(paths):
        for k in range(len(p) + 1):
            groups.setdefault(p[:k], []).append(u)
    return groups


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
    groups = prefix_groups(h.label_paths)
    adj = adjacency(g)
    for key in sorted(groups, key=len):
        members = groups[key]
        if key:
            parent = groups[key[:-1]]
            d = induced_distances(parent, adj)
            for u in parent:
                if not any(m in d[u] for m in members):
                    return rt.RoutingError, (
                        f"node {u} cannot reach level {len(key)} cluster {key[-1]} "
                        f"inside level {len(key) - 1} cluster {key[-2]}"
                    )
        if len(key) == depth:
            d = induced_distances(members, adj)
            for t in members:
                for u in members:
                    if t not in d[u]:
                        return rt.RoutingError, (
                            f"node {u} cannot reach node {t} inside its leaf cluster"
                        )
    return None


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
    adj = adjacency(g)
    entire = induced_distances(range(n), adj)
    paths = h.label_paths
    leaves = {}
    for u, p in enumerate(paths):
        leaves.setdefault(p, []).append(u)
    leaf_dist = {
        key: entire if len(mem) == n else induced_distances(mem, adj)
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
                paths[pmem[0]][: level - 1]: induced_distances(pmem, adj)
                for pmem in level_members[-1].values()
            }
        level_members.append(members)
        level_siblings.append(sib)
        parent_dist.append(ctx)
    tables = []
    for u in range(n):
        pu = paths[u]
        node_entries = {
            v: hop_toward(adj, leaf_dist[pu], u, v) for v in leaves[pu] if v != u
        }
        cluster_entries = {}
        for level in range(1, h.levels):
            d_ctx = parent_dist[level - 1][pu[: level - 1]]
            for cid in level_siblings[level - 1][pu[: level - 1]]:
                if cid != pu[level - 1]:
                    members = level_members[level - 1][cid]
                    gateway = min(members, key=lambda m: (d_ctx[u][m], m))
                    cluster_entries[(level, cid)] = hop_toward(adj, d_ctx, u, gateway)
        tables.append(rt.RoutingTable(u, node_entries, cluster_entries))
    return tuple(tables)


def every_route(tables, g, h):
    """(src, dst, route()) for every ordered pair, source-major."""
    for src in range(g.n_nodes):
        for dst in range(g.n_nodes):
            if src != dst:
                yield src, dst, rt.route(tables, g, h, src, dst)


def reference(g, h):
    """The report measure() must reproduce, from route() of every ordered
    pair: the mean per-pair ratio is the exact mean, rounded once."""
    n = g.n_nodes
    dist = induced_distances(range(n), adjacency(g))
    tables = rt.build_tables(g, h)
    total_hier = 0
    total_short = 0
    ratios = Counter()
    hist = Counter()
    for src, dst, path in every_route(tables, g, h):
        hops = len(path) - 1
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


def check_route(path, src, dst, edges, shortest):
    """Assert that a route() path goes from src to dst over `edges`, a set
    of (low, high) pairs, in no fewer hops than `shortest`."""
    assert path[0] == src and path[-1] == dst
    assert all((min(a, b), max(a, b)) in edges for a, b in zip(path, path[1:]))
    assert len(path) - 1 >= shortest


def eq3_grid_min(d, st_, ln_n, lo, hi):
    """The least eq3 SSE on the alpha grid lo + 1e-4 * i over [lo, hi] and
    the first grid alpha that reaches it, by scoring every grid point,
    4,096 at a time."""
    count = int(round((hi - lo) / ft._GRID_STEP)) + 1
    best_sse = math.inf
    best_alpha = lo
    for start in range(0, count, 4096):
        stop = min(start + 4096, count)
        alphas = lo + ft._GRID_STEP * np.arange(start, stop)
        sse = ft._eq3_sse_vector(alphas, d, st_, ln_n)
        j = int(np.argmin(sse))
        if sse[j] < best_sse:
            best_sse = float(sse[j])
            best_alpha = float(alphas[j])
    return best_sse, best_alpha

"""Property checks of measure() against routing every pair with route().

measure() resolves all route lengths at once from a next-hop array; the
reference below is the definition it must reproduce exactly, down to the
bits of the per-pair ratio sum.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt


def reference(g, h):
    """route() every ordered pair, summing in source-major order."""
    n = g.n_nodes
    dist = gr.all_pairs_shortest_lengths(g)
    tables = rt.build_tables(g, h, dist)
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

"""Hierarchical forwarding: table construction, delivery, measured stretch.

The ring and grid expectations below were worked out by hand; the torus
numbers are frozen regressions for the induced-subgraph next-hop rule
(global-graph next hops ping-pong between sibling clusters on a torus).
"""

import pytest

from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt

from oracles import (adjacency, bfs, check_route, components, every_route, oracle_failure,
                     prefix_groups)


def ring8_setup():
    g = gr.ring_graph(8)
    h = hi.build_balanced(g, levels=2, branching=2)
    return g, h, rt.build_tables(g, h)


def test_ring8_table_shape():
    g, h, tables = ring8_setup()
    assert all(t.length == 5 for t in tables)
    # member 0 of arc {0,1,2,7}: three leaf neighbors plus one sibling entry
    t0 = tables[0]
    assert t0.owner == 0
    assert sorted(t0.node_entries) == [1, 2, 7]
    assert list(t0.cluster_entries) == [(1, 1)]
    # hops are real neighbors on the ring
    assert t0.node_entries[2] == 1
    assert t0.node_entries[7] == 7


def test_ring8_measured_report():
    g, h, _ = ring8_setup()
    rep = rt.measure(g, h)
    assert rep.n_nodes == 8
    assert rep.levels == 2
    assert rep.method == "balanced-b2"
    assert rep.s_p == 1.0625
    assert rep.s_t == 0.625
    assert rep.mean_table_length == 5.0
    assert rep.mean_hier_path == 17.0 / 7.0
    assert rep.mean_shortest_path == 16.0 / 7.0
    assert rep.mean_path_ratio == 22.0 / 21.0
    assert rep.histogram == ((1, 16), (2, 16), (3, 12), (4, 8), (5, 4))
    # both stretch figures are ratios of the reported means
    assert rep.s_p == rep.mean_hier_path / rep.mean_shortest_path
    assert rep.s_t == rep.mean_table_length / rep.n_nodes


def test_ring8_csv_and_text():
    g, h, _ = ring8_setup()
    rep = rt.measure(g, h)
    assert rt.StretchReport.CSV_HEADER == (
        "n,levels,method,s_p,s_t,mean_table,mean_hier,mean_short"
    )
    assert rep.csv_record() == (
        "8,2,balanced-b2,1.0625,0.625,5,2.428571429,2.285714286"
    )
    text = rep.to_text()
    assert "s_p: 1.0625" in text
    assert "mean_path_ratio: 1.047619048" in text
    assert "histogram:" in text
    assert "  5: 4" in text
    assert text.endswith("\n")


def test_grid44_blocks_report():
    g = gr.grid_graph(4, 4)
    h = hi.build_grid_blocks(g, 4, 4, [(2, 2)])
    rep = rt.measure(g, h)
    assert rep.s_p == 1.0
    assert rep.s_t == 0.4375
    assert rep.mean_table_length == 7.0
    assert rep.mean_hier_path == rep.mean_shortest_path == 8.0 / 3.0
    assert rep.mean_path_ratio == 1.0
    assert rep.histogram == ((1, 48), (2, 68), (3, 64), (4, 40), (5, 16), (6, 4))


def test_flat_hierarchy_routes_shortest():
    g = gr.ring_graph(8)
    rep = rt.measure(g, hi.flat_hierarchy(g))
    assert rep.s_p == 1.0
    assert rep.s_t == 1.0
    assert rep.mean_table_length == 8.0
    assert rep.method == "flat"


def test_method_override():
    g = gr.ring_graph(8)
    rep = rt.measure(g, hi.flat_hierarchy(g), method="baseline")
    assert rep.method == "baseline"


def test_torus_regression_two_level():
    # the configuration that exposed the sibling ping-pong bug
    g = gr.torus_graph(16, 16)
    h = hi.build_balanced(g, levels=2, branching=4)
    tables = rt.build_tables(g, h)
    path = rt.route(tables, g, h, 0, 22)
    check_route(path, 0, 22, set(g.edges), bfs(adjacency(g), 0)[22])
    assert all(t.length == 67 for t in tables)


def test_torus_balanced_b2_frozen_numbers():
    g = gr.torus_graph(16, 16)
    h = hi.build_balanced(g, levels=2, branching=2)
    rep = rt.measure(g, h)
    assert rep.mean_table_length == 129.0
    assert rep.s_t == 129.0 / 256.0
    assert rep.mean_shortest_path == 8.031372549019608
    assert rep.mean_hier_path == 9.42873774509804
    assert rep.s_p == rep.mean_hier_path / rep.mean_shortest_path


def test_tables_and_measure_build_no_adjacency_rows(monkeypatch):
    # next hops come from the CSR arrays: only the balanced builder builds
    # neighbour rows
    torus = gr.torus_graph(20, 20)
    dense = gr.random_graph(60, 0.1, seed=7)
    cases = [(torus, hi.build_balanced(torus, 3, 2)), (dense, hi.flat_hierarchy(dense))]
    split = hi.Hierarchy(2, tuple((u % 2,) for u in range(400)))  # a leaf per colour

    def refuse(graph):
        raise AssertionError("adjacency rows built")

    monkeypatch.setattr(hi, "_adjacency", refuse)
    monkeypatch.setattr(hi, "_rows", refuse)
    for g, h in cases:
        entries = sum(t.length for t in rt.build_tables(g, h))
        assert entries == g.n_nodes * rt.measure(g, h).mean_table_length
    for call in (rt.build_tables, rt.measure):
        with pytest.raises(rt.RoutingError, match="cannot reach"):
            call(torus, split)


def test_delivery_on_random_graphs():
    for seed in range(5):
        g = gr.random_graph(24, 0.25, seed=seed)
        adj = adjacency(g)
        short = [bfs(adj, s) for s in range(24)]
        edges = set(g.edges)
        for levels in (1, 2, 3):
            h = hi.build_balanced(g, levels=levels, branching=2)
            for src, dst, path in every_route(rt.build_tables(g, h), g, h):
                check_route(path, src, dst, edges, short[src][dst])
                if levels == 1:
                    assert len(path) - 1 == short[src][dst]


def test_loop_guard_trips_on_corrupted_tables():
    g, h, tables = ring8_setup()
    # nodes 0 and 1 point their sibling-cluster entries at each other
    tables[0].cluster_entries[(1, 1)] = 1
    tables[1].cluster_entries[(1, 1)] = 0
    with pytest.raises(rt.RoutingLoopError) as exc:
        rt.route(tables, g, h, 0, 4)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {0, 1}


def test_missing_entry_raises():
    g, h, tables = ring8_setup()
    del tables[3].node_entries[4]
    with pytest.raises(rt.RoutingError, match="no entry covering destination 4"):
        rt.route(tables, g, h, 3, 4)


def walker_error(g, h, tables=None):
    """What building the tables, then routing every pair with route() in
    source-major order, raises first."""
    try:
        if tables is None:
            tables = rt.build_tables(g, h)
        for _ in every_route(tables, g, h):
            pass
    except ValueError as exc:
        return exc
    return None


def measure_given(monkeypatch, tables, g, h):
    monkeypatch.setattr(rt, "build_tables", lambda *args: tables)
    return rt.measure(g, h)


def test_measure_ignores_looping_tables(monkeypatch):
    # measure composes route lengths without tables, so next hops that
    # loop, which route() reports, leave its report as it is
    g, h, tables = ring8_setup()
    want = rt.measure(g, h)
    tables[0].cluster_entries[(1, 1)] = 1
    tables[1].cluster_entries[(1, 1)] = 0
    fault = walker_error(g, h, tables)
    assert isinstance(fault, rt.RoutingLoopError)
    assert set(fault.cycle) == {0, 1}
    assert measure_given(monkeypatch, tables, g, h) == want


def test_measure_ignores_tables_missing_an_entry(monkeypatch):
    g, h, tables = ring8_setup()
    want = rt.measure(g, h)
    del tables[3].node_entries[4]
    fault = walker_error(g, h, tables)
    assert "no entry covering destination 4" in str(fault)
    assert not isinstance(fault, rt.RoutingLoopError)
    assert measure_given(monkeypatch, tables, g, h) == want


@pytest.mark.parametrize("search_cells", [1, 20, 1 << 16])
def test_measure_names_the_walkers_first_fault(monkeypatch, search_cells):
    # faults in several clusters of a hierarchy: both level 1 clusters
    # are disconnected (6 and 7 are cut off from their siblings), and so
    # are leaves {0, 2} and {4, 7}; the one raised is the walker's first,
    # whatever the search block size
    monkeypatch.setattr(gr, "_SEARCH_CELLS", search_cells)
    g = gr.ring_graph(8)
    paths = ((0, 0), (0, 1), (0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 0))
    h = hi.Hierarchy(3, paths)
    want = walker_error(g, h)
    assert isinstance(want, rt.RoutingError)
    # build_tables and measure name faults alike: the oracle is the
    # independent reference for the wording
    assert (type(want), str(want)) == oracle_failure(g, h)
    with pytest.raises(type(want)) as exc:
        rt.measure(g, h)
    assert str(exc.value) == str(want)


def test_route_argument_guards():
    g, h, tables = ring8_setup()
    with pytest.raises(ValueError):
        rt.route(tables, g, h, 0, 0)
    with pytest.raises(ValueError):
        rt.route(tables, g, h, -1, 4)
    with pytest.raises(ValueError):
        rt.route(tables, g, h, 0, 8)


def test_disconnected_parent_cluster_raises_routing_error():
    # level-1 cluster 0 = {0, 1, 4, 5} falls apart on the ring; its level-2
    # clusters {0, 1} and {4, 5} are connected but cannot reach each other
    g = gr.ring_graph(8)
    h = hi.Hierarchy(3, ((0, 0), (0, 0), (1, 2), (1, 2), (0, 1), (0, 1), (1, 3), (1, 3)))
    want = "node 4 cannot reach level 2 cluster 0 inside level 1 cluster 0"
    assert oracle_failure(g, h) == (rt.RoutingError, want)
    for call in (rt.build_tables, rt.measure):
        with pytest.raises(rt.RoutingError, match=want):
            call(g, h)


def test_disconnected_leaf_raises_routing_error():
    # leaf 0 = {0, 4} has no edge inside it; leaves {1, 2, 3} and {5, 6, 7} do
    g = gr.ring_graph(8)
    h = hi.Hierarchy(2, ((0,), (1,), (1,), (1,), (0,), (2,), (2,), (2,)))
    assert oracle_failure(g, h) == (
        rt.RoutingError, "node 4 cannot reach node 0 inside its leaf cluster"
    )
    for call in (rt.build_tables, rt.measure):
        with pytest.raises(rt.RoutingError, match="node 4 cannot reach node 0"):
            call(g, h)


@pytest.mark.parametrize("search_cells", [1, 12, 1 << 18])
def test_disconnected_leaf_names_lowest_pair(monkeypatch, search_cells):
    # ring-10 leaf 0 = {0, 1, 2, 5, 6, 9} has components {0, 1, 2, 9} and
    # {5, 6}; every _SEARCH_CELLS names the same pair
    monkeypatch.setattr(gr, "_SEARCH_CELLS", search_cells)
    g = gr.ring_graph(10)
    h = hi.Hierarchy(2, tuple((0,) if u in (0, 1, 2, 5, 6, 9) else (1,) for u in range(10)))
    want = "node 5 cannot reach node 0 inside its leaf cluster"
    assert oracle_failure(g, h) == (rt.RoutingError, want)
    for call in (rt.build_tables, rt.measure):
        with pytest.raises(rt.RoutingError, match=f"^{want}$"):
            call(g, h)


def moved_node(g, paths, source, into, apart):
    """paths with the lowest node under `source` that touches no node under
    `apart` moved to path `into`, where every cluster it quits stays
    connected without it."""
    groups = prefix_groups(paths)
    adj = adjacency(g)
    for u in groups[source]:
        quits = [paths[u][:k] for k in range(1, len(into) + 1) if paths[u][:k] != into[:k]]
        if not set(adj[u]) & set(groups[apart]) and all(
            len(components([v for v in groups[q] if v != u], adj)) == 1 for q in quits
        ):
            return hi.Hierarchy(len(into) + 1, paths[:u] + (into,) + paths[u + 1 :])
    raise AssertionError("no node to move")


@pytest.mark.parametrize("search_cells", [1, 1 << 18])
def test_faults_on_the_balanced_torus_match_the_oracle(monkeypatch, search_cells):
    # the 20x20 torus balanced at L4 (leaves (0, 0, 0) and (0, 0, 1) share
    # a parent), altered twice: (a) a node of leaf (0, 0, 1) moves into
    # leaf (0, 0, 0), which it does not touch, so that leaf is split; (b)
    # a node of level 1 cluster 1 that touches no node of level 1 cluster
    # 0 moves into leaf (0, 0, 1), so it cannot reach its new level 2
    # sibling (0, 1) inside level 1 cluster 0, a fault one level above
    # its split leaf
    monkeypatch.setattr(gr, "_SEARCH_CELLS", search_cells)
    g = gr.torus_graph(20, 20)
    paths = hi.build_balanced(g, 4, 2).label_paths
    split = moved_node(g, paths, (0, 0, 1), (0, 0, 0), (0, 0, 0))
    cut_off = moved_node(g, paths, (1,), (0, 0, 1), (0,))
    for h, fault in ((split, "inside its leaf cluster"), (cut_off, "inside level 1 cluster 0")):
        want = oracle_failure(g, h)
        assert want[0] is rt.RoutingError and want[1].endswith(fault)
        for call in (rt.measure, rt.build_tables):
            with pytest.raises(rt.RoutingError) as exc:
                call(g, h)
            assert (type(exc.value), str(exc.value)) == want


def test_non_uniform_label_paths_raise_value_error():
    g = gr.ring_graph(8)
    h = hi.Hierarchy(2, ((0,),) * 7 + ((),))
    for call in (rt.build_tables, rt.measure):
        with pytest.raises(ValueError, match="node 7 has a label path of length 0") as exc:
            call(g, h)
        assert not isinstance(exc.value, rt.RoutingError)


def test_build_tables_rejects_mismatched_sizes():
    g = gr.ring_graph(8)
    with pytest.raises(ValueError, match="hierarchy covers 9"):
        rt.build_tables(g, hi.flat_hierarchy(gr.ring_graph(9)))


def test_measure_needs_two_nodes():
    g = gr.Graph(1, [])
    with pytest.raises(ValueError):
        rt.measure(g, hi.flat_hierarchy(g))
    # a graph with no edges has tables all the same: the self entry
    assert rt.build_tables(g, hi.flat_hierarchy(g)) == (rt.RoutingTable(0, {}, {}),)

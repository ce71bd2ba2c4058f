"""Cluster hierarchies: builders, invariant checks, file round-trips.

save formats its text with one template; the per-line writer it
replaced is the reference for its bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routestretch import graphs as gr
from routestretch import hierarchy as hi

from oracles import clusters_at_level, per_line_save_hierarchy


def path6():
    return gr.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


def test_flat_hierarchy():
    h = hi.flat_hierarchy(gr.ring_graph(8))
    assert h.levels == 1
    assert h.n_nodes == 8
    assert h.method == "flat"
    assert hi.stats(h) == ()


def test_balanced_ring8_splits_into_contiguous_arcs():
    h = hi.build_balanced(gr.ring_graph(8), levels=2, branching=2)
    assert h.method == "balanced-b2"
    # arc 7-0-1-2 wraps around the seam; 3-4-5-6 is the rest
    assert clusters_at_level(h, 1) == {0: [0, 1, 2, 7], 1: [3, 4, 5, 6]}


def test_balanced_grid44_four_connected_quarters():
    g = gr.grid_graph(4, 4)
    h = hi.build_balanced(g, levels=2, branching=4)
    assert clusters_at_level(h, 1) == {
        0: [0, 1, 2, 4],
        1: [3, 6, 7, 11],
        2: [5, 8, 9, 10],
        3: [12, 13, 14, 15],
    }
    assert hi.validate(h, g) == []


def test_balanced_is_deterministic():
    g = gr.random_graph(24, 0.25, seed=2)
    assert hi.build_balanced(g, 3, 2) == hi.build_balanced(g, 3, 2)


def test_balanced_three_levels_on_a_complete_graph():
    n = 64
    g = gr.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    h = hi.build_balanced(g, levels=3, branching=4)
    assert hi.stats(h) == (4, 16)
    assert hi.validate(h, g) == []


def test_balanced_argument_guards():
    g = gr.ring_graph(8)
    with pytest.raises(ValueError):
        hi.build_balanced(g, levels=0)
    with pytest.raises(ValueError):
        hi.build_balanced(g, levels=2, branching=1)
    with pytest.raises(ValueError, match="needs at least 16 nodes"):
        hi.build_balanced(g, levels=5, branching=2)
    assert hi.build_balanced(g, levels=1).method == "flat"


def test_balanced_rejects_huge_levels_at_once():
    # 2 ** 99999 is never computed: the message names levels, branching
    # and node count instead of a 30000-digit node count
    with pytest.raises(ValueError) as exc:
        hi.build_balanced(gr.ring_graph(8), levels=100_000, branching=3)
    assert str(exc.value) == (
        "branching 3 with 100000 levels needs more nodes than the graph's 8"
    )


def test_balanced_fails_honestly_on_a_star():
    # any 3-node part of a 5-star must strand the remaining leaves
    star = gr.Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(hi.HierarchyBuildError) as exc:
        hi.build_balanced(star, levels=2, branching=2)
    msg = str(exc.value)
    assert "level 1, part 0" in msg
    assert "cannot keep the remainder connected" in msg


def test_grid_blocks_two_level():
    g = gr.grid_graph(4, 4)
    h = hi.build_grid_blocks(g, 4, 4, [(2, 2)])
    assert h.levels == 2
    assert h.method == "grid-blocks-2x2"
    assert clusters_at_level(h, 1) == {
        0: [0, 1, 4, 5],
        1: [2, 3, 6, 7],
        2: [8, 9, 12, 13],
        3: [10, 11, 14, 15],
    }
    assert hi.validate(h, g) == []


def test_grid_blocks_nested_on_torus():
    g = gr.torus_graph(16, 16)
    h = hi.build_grid_blocks(g, 16, 16, [(8, 8), (4, 4), (2, 2)])
    assert h.levels == 4
    assert h.method == "grid-blocks-8x8+4x4+2x2"
    assert hi.stats(h) == (4, 16, 64)
    assert hi.validate(h, g) == []


def test_grid_blocks_guards():
    g = gr.grid_graph(4, 4)
    with pytest.raises(ValueError, match="does not match"):
        hi.build_grid_blocks(g, 4, 5, [(2, 2)])
    with pytest.raises(ValueError, match="does not divide"):
        hi.build_grid_blocks(g, 4, 4, [(3, 2)])
    with pytest.raises(ValueError, match="does not divide"):
        hi.build_grid_blocks(g, 4, 4, [(2, 2), (2, 1), (2, 2)])
    with pytest.raises(ValueError, match="at least one block"):
        hi.build_grid_blocks(g, 4, 4, [])
    with pytest.raises(ValueError, match=r"block dims must be >= 1 \(got 0x2\)"):
        hi.build_grid_blocks(g, 4, 4, [(0, 2)])


def test_grid_blocks_reject_a_graph_that_is_not_the_lattice():
    # ring-16 has 4x4 nodes, but its 2x2 blocks are pairs of arcs
    with pytest.raises(hi.HierarchyBuildError) as exc:
        hi.build_grid_blocks(gr.ring_graph(16), 4, 4, [(2, 2)])
    assert str(exc.value) == (
        "2x2 blocks of a 4x4 lattice do not fit the graph: connectivity: "
        "level 1 cluster 0 induces a disconnected subgraph"
    )
    # a 4x4 torus read as 2x8: 2x4 block 0 holds nodes 0-3 and 8-11, rows
    # 0 and 2 of the torus, which never touch
    with pytest.raises(hi.HierarchyBuildError, match="level 1 cluster 0 induces"):
        hi.build_grid_blocks(gr.torus_graph(4, 4), 2, 8, [(2, 4)])


def test_validate_node_count_mismatch():
    h = hi.flat_hierarchy(gr.ring_graph(8))
    out = hi.validate(h, gr.ring_graph(9))
    assert out == ["node count mismatch: hierarchy has 8, graph has 9"]


def test_validate_ragged_paths_short_circuit():
    h = hi.Hierarchy(2, ((), (0,), (0,)))
    out = hi.validate(h, gr.Graph(3, [(0, 1), (1, 2)]))
    assert out == ["nesting: node 0 has a label path of length 0, expected 1"]


def test_validate_reports_split_parents():
    # level-2 cluster 1 straddles both level-1 clusters
    paths = ((0, 0), (0, 0), (0, 1), (1, 1), (1, 2), (1, 2))
    h = hi.Hierarchy(3, paths)
    out = hi.validate(h, path6())
    assert "nesting: level 2 cluster 1 spans 2 parent clusters" in out


def test_validate_reports_disconnected_cluster():
    paths = ((0,), (1,), (1,), (1,), (1,), (0,))
    h = hi.Hierarchy(2, paths)
    out = hi.validate(h, path6())
    assert out == ["connectivity: level 1 cluster 0 induces a disconnected subgraph"]


def test_validate_keeps_cluster_ids_beyond_int64_apart(tmp_path):
    # as floats 2**63 and 2**63 + 1 are one value, which would join
    # nodes 1 and 3 through node 2 into one connected cluster
    paths = ((1,), (2**63,), (2**63 + 1,), (2**63,))
    want = ["connectivity: level 1 cluster 9223372036854775808 induces a disconnected subgraph"]
    g = gr.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert hi.validate(hi.Hierarchy(2, paths), g) == want
    # the line reader takes such ids from a file
    path = tmp_path / "big.clusters"
    hi.save(hi.Hierarchy(2, paths), path)
    assert hi.validate(hi.load(path), g) == want


def test_save_load_roundtrip(tmp_path):
    h = hi.build_balanced(gr.ring_graph(8), levels=3, branching=2)
    p = tmp_path / "h.clusters"
    hi.save(h, p)
    loaded = hi.load(p)
    assert loaded == h          # method is excluded from equality
    assert loaded.method == "file"
    assert loaded.levels == 3
    # file is stable across a rewrite
    text = p.read_bytes()
    hi.save(loaded, p)
    assert p.read_bytes() == text


def saved_bytes(tmp_path, h):
    """The bytes save writes for `h`, after checking them against the
    per-line writer's."""
    got, want = tmp_path / "got.clusters", tmp_path / "want.clusters"
    hi.save(h, got)
    per_line_save_hierarchy(h, want)
    assert got.read_bytes() == want.read_bytes()
    return got.read_bytes()


def test_save_equals_per_line_writer(tmp_path):
    # flat: one bare id per line; the 40x40 torus at level 5: four labels
    flat = hi.flat_hierarchy(gr.ring_graph(8))
    assert saved_bytes(tmp_path, flat) == b"0\n1\n2\n3\n4\n5\n6\n7\n"
    assert saved_bytes(tmp_path, hi.Hierarchy(1, ((),))) == b"0\n"
    h = hi.build_balanced(gr.torus_graph(40, 40), 5, 2)
    lines = saved_bytes(tmp_path, h).decode().splitlines()
    assert len(lines) == 1600 and lines[0].split()[0] == "0"
    assert {len(line.split()) for line in lines} == {5}


@st.composite
def hierarchies(draw):
    """A hierarchy of up to 40 nodes with label ids of any size and sign,
    its paths of one width or, as load() takes from a malformed file,
    ragged."""
    n = draw(st.integers(1, 40))
    depth = draw(st.integers(0, 4))
    width = st.integers(0, 5) if draw(st.booleans()) else st.just(depth)
    labels = st.one_of(st.integers(0, 20), st.integers())
    paths = tuple(tuple(draw(st.lists(labels, min_size=w, max_size=w)))
                  for w in (draw(width) for _ in range(n)))
    return hi.Hierarchy(depth + 1, paths)


@settings(max_examples=100, deadline=None)
@given(hierarchies())
def test_save_equals_per_line_writer_on_drawn_hierarchies(tmp_path_factory, h):
    saved_bytes(tmp_path_factory.mktemp("save"), h)


def test_load_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "h.clusters"
    p.write_text("# header\n\n0 0\n1 0\n2 1\n3 1\n")
    h = hi.load(p)
    assert clusters_at_level(h, 1) == {0: [0, 1], 1: [2, 3]}


def test_load_rejects_malformed_files(tmp_path):
    def attempt(body):
        p = tmp_path / "bad.clusters"
        p.write_text(body)
        with pytest.raises(hi.HierarchyFormatError) as exc:
            hi.load(p)
        return exc.value

    e = attempt("0 0\n1 zero\n")
    assert e.line_no == 2
    assert str(e) == "line 2: non-integer field in '1 zero'"
    assert isinstance(e, gr.FileFormatError) and isinstance(e, ValueError)
    assert attempt("-1 0\n").line_no == 1
    assert attempt("0 -1\n").line_no == 1
    assert attempt("0 0\n0 1\n").line_no == 2
    assert "missing entries" in str(attempt("0 0\n3 1\n"))
    # a huge node id: the scan stops at the first five missing ids
    e = attempt("0 0\n1000000000000 1\n")
    assert str(e) == "missing entries for nodes [1, 2, 3, 4, 5]"
    assert "no nodes" in str(attempt("# only a comment\n"))


def test_hierarchy_constructor_guards():
    with pytest.raises(ValueError):
        hi.Hierarchy(0, ((),))
    with pytest.raises(ValueError):
        hi.Hierarchy(1, ())

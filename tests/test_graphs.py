"""Graph construction, generators, file round-trips, and distances.

random_graph draws its pairs in bulk from getrandbits and decides each
with an integer threshold; per_pair_random_graph, one random() call per
pair, is its reference, down to retries and error messages, also with
draws that cross chunk boundaries and probabilities on either side of a
drawn value.  save formats its text with one template; the per-line
writer it replaced is the reference for its bytes.
"""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt

from oracles import adjacency, floyd_warshall, per_line_save_graph, per_pair_random_graph


def test_graph_normalizes_edges():
    g = gr.Graph(3, [(2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert adjacency(g) == [[1], [0, 2], [1]]
    assert g.num_edges == 2


def test_graph_rejections():
    with pytest.raises(ValueError):
        gr.Graph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        gr.Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError):
        gr.Graph(3, [(0, 3), (0, 1)])
    with pytest.raises(ValueError):
        gr.Graph(0, [])
    # two disjoint triangles
    with pytest.raises(gr.DisconnectedGraphError):
        gr.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # too few edges to connect the nodes: rejected before adjacency is built
    with pytest.raises(gr.DisconnectedGraphError, match="10 nodes and 1 edges is not connected"):
        gr.Graph(10, [(0, 1)])
    with pytest.raises(gr.DisconnectedGraphError, match="1000000000000 nodes and 1 edges"):
        gr.Graph(10**12, [(0, 1)])
    # endpoints that are not integers are neither truncated nor parsed
    with pytest.raises(TypeError, match=r"edge 0 is not a pair of integers: \(0.5, 1\)"):
        gr.Graph(3, [(0.5, 1), (1, 2)])
    with pytest.raises(TypeError, match=r"edge 0 is not a pair of integers: \[0.5, 1.0\]"):
        gr.Graph(3, np.array([[0.5, 1], [1, 2]]))
    with pytest.raises(TypeError, match=r"edge 0 is not a pair of integers: \('0', 1\)"):
        gr.Graph(3, [("0", 1), (1, 2)])
    # int lists, numpy ints and integer arrays still load
    for edges in (
        [[0, 1], [1, 2]],
        [(np.int32(0), np.int64(1)), (1, 2)],
        np.array([[0, 1], [1, 2]], dtype=np.int64),
        np.array([[0, 1], [1, 2]], dtype=np.uint8),
    ):
        assert gr.Graph(3, edges).edges == ((0, 1), (1, 2))


def test_graph_reads_only_signed_pair_arrays_whole():
    # an array that is not (m, 2) signed is read edge by edge, so a third
    # column or a missing one is named, never dropped or mis-indexed
    with pytest.raises(TypeError, match=r"edge 0 is not a pair of integers: \[0, 1, 5\]"):
        gr.Graph(3, np.array([[0, 1, 5], [1, 2, 7]]))
    with pytest.raises(TypeError, match=r"edge 0 is not a pair of integers: 0"):
        gr.Graph(3, np.array([0, 1, 1, 2]))
    # an unsigned endpoint past int64 is not wrapped to a negative id
    with pytest.raises(ValueError, match="outside the int64 range"):
        gr.Graph(3, np.array([[0, 2**64 - 1], [1, 2]], dtype=np.uint64))
    for dtype in (np.uint8, np.uint64, np.int16):
        g = gr.Graph(3, np.array([[1, 0], [1, 2]], dtype=dtype))
        assert g.edges == ((0, 1), (1, 2))


def test_graph_equality_and_hash():
    a = gr.Graph(3, [(0, 1), (1, 2)])
    b = gr.Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != gr.Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_ring_shape():
    g = gr.ring_graph(8)
    assert g.n_nodes == 8
    assert g.num_edges == 8
    assert all(len(adjacency(g)[u]) == 2 for u in range(8))
    assert (0, 7) in g.edges
    with pytest.raises(ValueError):
        gr.ring_graph(2)


def test_grid_shape():
    g = gr.grid_graph(3, 4)
    # 3*(4-1) horizontal + 4*(3-1) vertical
    assert g.num_edges == 17
    assert len(adjacency(g)[0]) == 2
    assert len(adjacency(g)[5]) == 4
    with pytest.raises(ValueError):
        gr.grid_graph(1, 4)


def test_torus_shape():
    g = gr.torus_graph(4, 4)
    assert g.num_edges == 32
    assert all(len(adjacency(g)[u]) == 4 for u in range(16))
    # 3x3 torus still has 2 distinct ring edges per line
    assert gr.torus_graph(3, 3).num_edges == 18
    # 2x2 wraps collapse onto the grid edges
    g22 = gr.torus_graph(2, 2)
    assert g22.num_edges == 4
    assert all(len(adjacency(g22)[u]) == 2 for u in range(4))
    with pytest.raises(ValueError):
        gr.torus_graph(1, 5)


def test_random_graph_is_deterministic():
    a = gr.random_graph(20, 0.2, seed=7)
    b = gr.random_graph(20, 0.2, seed=7)
    assert a == b
    assert a.num_edges == 47
    assert a != gr.random_graph(20, 0.2, seed=8)


def test_random_graph_gives_up_when_too_sparse():
    with pytest.raises(gr.DisconnectedGraphError) as exc:
        gr.random_graph(10, 1e-9, seed=0)
    assert "100 attempts" in str(exc.value)
    with pytest.raises(ValueError):
        gr.random_graph(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gr.random_graph(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        gr.random_graph(10, 1.5, seed=0)


def generated(call, n, p, seed):
    """What call(n, p, seed) returns, or the type and message of the
    ValueError it raises."""
    try:
        return call(n, p, seed)
    except ValueError as exc:
        return type(exc), str(exc)


# edge probabilities: any in (0, 1], and more of those at which a graph
# of up to 60 nodes is sometimes connected and sometimes redrawn
EDGE_PROBS = st.one_of(
    st.floats(0, 1, exclude_min=True), st.floats(0.03, 0.3), st.sampled_from([1, 2.0**-53])
)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), EDGE_PROBS, st.integers())
def test_random_graph_equals_per_pair_draws(n, p, seed):
    assert generated(gr.random_graph, n, p, seed) == generated(per_pair_random_graph, n, p, seed)


@pytest.mark.parametrize("chunk", [1, 3, 64])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 60), p=EDGE_PROBS, seed=st.integers())
def test_random_graph_draws_across_chunks(chunk, n, p, seed):
    want = generated(per_pair_random_graph, n, p, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_DRAW_CHUNK", chunk)
        assert generated(gr.random_graph, n, p, seed) == want


def test_random_graph_retries_and_gives_up_as_per_pair_draws():
    # seed 0 of G(30, 0.08) is connected at its third attempt; G(20,
    # 0.01) gives up after 100 attempts, each of the 190 pairs drawn
    for n, p, seed in ((30, 0.08, 0), (20, 0.01, 3)):
        want = generated(per_pair_random_graph, n, p, seed)
        assert generated(gr.random_graph, n, p, seed) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_MAX_TRIES", 1)
        with pytest.raises(gr.DisconnectedGraphError):
            gr.random_graph(30, 0.08, 0)


def test_random_graph_at_exact_thresholds():
    # random() returns K / 2**53; a pair is kept exactly when K < p * 2**53.
    # k is a value the first attempt of G(30, p, seed 5) draws: at p = k /
    # 2**53 its pair is dropped, one step of p above it kept
    n, seed = 30, 5
    rng = random.Random(seed)
    draws = [int(rng.random() * 2**53) for _ in range(n * (n - 1) // 2)]
    k = sorted(draws)[len(draws) * 3 // 10]
    pair = [(i, j) for i in range(n) for j in range(i + 1, n)][draws.index(k)]
    at = k / 2**53
    below, above = math.nextafter(at, 0), math.nextafter(at, 1)
    for p in (at, below, above, 1, 2.0**-53, math.nextafter(2.0**-53, 1), 5e-324):
        got = generated(gr.random_graph, n, p, seed)
        assert got == generated(per_pair_random_graph, n, p, seed), p
    assert pair not in gr.random_graph(n, at, seed).edges
    assert pair not in gr.random_graph(n, below, seed).edges
    assert pair in gr.random_graph(n, above, seed).edges
    assert gr.random_graph(n, 1, seed).num_edges == n * (n - 1) // 2


def test_generate_dispatch():
    assert gr.generate("ring", n=8) == gr.ring_graph(8)
    assert gr.generate("grid", rows=3, cols=4) == gr.grid_graph(3, 4)
    assert gr.generate("torus", rows=4, cols=4) == gr.torus_graph(4, 4)
    assert gr.generate("random", n=20, edge_prob=0.2, seed=7) == gr.random_graph(20, 0.2, seed=7)
    with pytest.raises(ValueError, match="ring topology needs n"):
        gr.generate("ring")
    with pytest.raises(ValueError, match="grid topology needs rows and cols"):
        gr.generate("grid", rows=3)
    with pytest.raises(ValueError, match="torus topology needs rows and cols"):
        gr.generate("torus", cols=4)
    with pytest.raises(ValueError, match="random topology needs n and edge_prob"):
        gr.generate("random", n=20)
    with pytest.raises(ValueError, match="unknown topology"):
        gr.generate("hypercube", n=8)


def test_save_load_roundtrip(tmp_path):
    g = gr.torus_graph(4, 4)
    path = tmp_path / "t.graph"
    gr.save(g, path)
    assert gr.load(path) == g
    # a second save is byte-identical
    text = path.read_bytes()
    gr.save(g, path)
    assert path.read_bytes() == text
    lines = text.decode().splitlines()
    assert lines[0] == "n 16"
    assert len(lines) == 33


@pytest.mark.parametrize("graph", [
    gr.torus_graph(20, 20), gr.torus_graph(40, 40), gr.random_graph(700, 0.043, seed=1),
], ids=["torus20", "torus40", "random700"])
def test_save_of_load_is_byte_identical(tmp_path, graph):
    # save writes from the edge arrays; the text is the header and one
    # "u v" line per edge of `edges`
    first, second = tmp_path / "first.graph", tmp_path / "second.graph"
    per_line_save_graph(graph, first)
    gr.save(gr.load(first), second)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def drawn_graphs(draw):
    """A connected graph: a random tree on up to 1,500 nodes plus up to
    as many edges again, from a drawn seed."""
    n = draw(st.integers(1, 1500))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = draw(st.integers(0, n)) if n > 1 else 0
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra)}
    return gr.Graph(n, sorted(edges))


@settings(max_examples=100, deadline=None)
@given(drawn_graphs())
def test_save_equals_per_line_writer(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("save")
    gr.save(graph, path / "got.graph")
    per_line_save_graph(graph, path / "want.graph")
    assert (path / "got.graph").read_bytes() == (path / "want.graph").read_bytes()


def test_save_of_a_graph_without_edges(tmp_path):
    g = gr.Graph(1, [])
    gr.save(g, tmp_path / "one.graph")
    per_line_save_graph(g, tmp_path / "want.graph")
    assert (tmp_path / "one.graph").read_bytes() == b"n 1\n"
    assert (tmp_path / "want.graph").read_bytes() == b"n 1\n"
    assert gr.load(tmp_path / "one.graph") == g


def test_a_loaded_graph_holds_its_edges_once(tmp_path):
    # the edges stay two int64 arrays next to the CSR arrays, the tuple
    # of edge pairs is built only when read, and a graph keeps no
    # neighbour rows: the 100x100 torus (20,000 edges) held 0.76 MB,
    # against 2.7 MB while adjacency rows were built on every load
    path = tmp_path / "torus100.graph"
    gr.save(gr.torus_graph(100, 100), path)
    gr.load(path)  # the first load's one-time allocations do not count
    gc.collect()
    tracemalloc.start()
    try:
        g = gr.load(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.num_edges == 20000
    assert gr.Graph.__slots__ == ("n_nodes", "_csr", "_lo", "_hi", "_edges")  # no rows
    assert held < 2**20


def test_load_rejects_malformed_files(tmp_path):
    def attempt(body):
        p = tmp_path / "bad.graph"
        p.write_text(body)
        with pytest.raises(gr.GraphFormatError) as exc:
            gr.load(p)
        return str(exc.value)

    assert attempt("0 1\n1 2\n") == "line 1: expected header 'n <count>'"
    assert "line 2" in attempt("n 3\n1 0\n1 2\n")          # u >= v
    assert "line 3" in attempt("n 3\n0 1\n0 3\n")          # out of range
    assert "line 3" in attempt("n 3\n0 1\n0 1\n")          # duplicate
    assert "line 2" in attempt("n 3\nzero one\n")
    attempt("n zero\n0 1\n")
    assert issubclass(gr.GraphFormatError, gr.FileFormatError)
    assert issubclass(gr.FileFormatError, ValueError)
    assert gr.GraphFormatError("no header").line_no is None
    # structurally fine but disconnected
    p = tmp_path / "disc.graph"
    p.write_text("n 4\n0 1\n2 3\n")
    with pytest.raises(gr.DisconnectedGraphError):
        gr.load(p)


def test_bfs_matches_floyd_warshall():
    for g in (gr.ring_graph(9), gr.grid_graph(3, 5), gr.random_graph(24, 0.25, seed=3)):
        want = floyd_warshall(g.n_nodes, g.edges)
        got = gr.all_pairs_shortest_lengths(g)
        for u in range(g.n_nodes):
            assert list(got[u]) == want[u]


def test_mean_pairwise_distance_hand_values():
    # the mean over ordered pairs is reported as measure(...).mean_shortest_path
    def mean_pairwise(g):
        return rt.measure(g, hi.flat_hierarchy(g)).mean_shortest_path

    # ring8: per node distances 1,1,2,2,3,3,4 -> mean 16/7
    assert math.isclose(mean_pairwise(gr.ring_graph(8)), 16.0 / 7.0, rel_tol=1e-15)
    # path on 2 nodes
    assert mean_pairwise(gr.Graph(2, [(0, 1)])) == 1.0
    with pytest.raises(ValueError):
        mean_pairwise(gr.Graph(1, []))

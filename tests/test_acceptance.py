"""Acceptance suite: eight release criteria, one printed verdict line each.

Every expected number here is produced by an independent oracle inside
this file (hand arithmetic, a test-local golden-section search, or a
test-local Floyd-Warshall), never by the code under test.
"""

import csv
import math
import random
import time
from collections import defaultdict

from routestretch import analytic as an
from routestretch import fitting as ft
from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt
from routestretch.cli import main

from oracles import check_route, every_route, floyd_warshall


def _run(capsys, num, desc, body):
    """Run one criterion and print its verdict even when it fails."""
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    tag = "PASS" if failure is None else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] criterion {num}: {desc}")
    if failure is not None:
        raise failure


def golden_min(fn, lo, hi, tol=1e-9):
    """Test-local golden-section minimizer (the oracle for criteria 4 and 7)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def test_criterion_1_composed_point(capsys):
    def body():
        params = an.AnalyticParams(n_nodes=10, alpha=0.987)
        got = an.table_stretch_from_path_stretch(2.2, params)
        assert abs(got - 0.6264) <= 5e-4, got

    _run(capsys, 1, "composed curve at N=10, alpha=0.987, s_p=2.2 is 0.6264 +/- 5e-4", body)


def test_criterion_2_minimum_matches_closed_form(capsys):
    def body():
        for n in (10, 100, 1000, 10**4, 10**5):
            params = an.AnalyticParams(n_nodes=n, alpha=0.987)
            got = an.find_min_table_stretch(params)
            want_s_t = math.e * math.log(n) / n
            want_s_p = 1.0 + 0.987 * (math.log(n) - 1.0)
            assert abs(got.s_t_min - want_s_t) <= 1e-6, (n, got.s_t_min, want_s_t)
            assert abs(got.s_p_at_min - want_s_p) <= 1e-6, (n, got.s_p_at_min, want_s_p)
        grid = an.sweep_curve(an.AnalyticParams(n_nodes=10, alpha=0.987)).grid_min()
        assert 2.2 <= grid[0] <= 2.4, grid
        assert 0.6259 <= grid[2] <= 0.6265, grid

    _run(capsys, 2, "continuous minimum matches e*ln(N)/N at m*=ln N (1e-6); "
                    "N=10 sweep minimum lands in the stated window", body)


def test_criterion_3_boundary_identities(capsys):
    def body():
        rng = random.Random(20260203)
        for _ in range(100):
            n = rng.randrange(2, 10**6)
            alpha = rng.uniform(1e-3, 5.0)
            params = an.AnalyticParams(n_nodes=n, alpha=alpha)
            assert an.path_stretch_from_height(1.0, alpha) == 1.0
            assert an.table_stretch_kk(n, 1.0) == 1.0
            assert an.table_stretch_from_path_stretch(1.0, params) == 1.0
            assert an.path_stretch_from_table_stretch_ipea(1.0, alpha) == 1.0

    _run(capsys, 3, "all four boundary identities hold exactly for 100 random (N, alpha)", body)


def test_criterion_4_optimal_length_formula(capsys):
    def body():
        prev = 1
        for k in range(50):
            n = round(2.0 * (5.0 * 10**5) ** (k / 49.0))
            if n <= prev:
                n = prev + 1
            prev = n
            # oracle: minimize m*N^(1/m) over real m with a local search
            _, oracle = golden_min(lambda m: m * n ** (1.0 / m), 0.05,
                                   max(2.0, 4.0 * math.log(n)))
            got = an.optimal_table_length_variable(n)
            assert abs(got - oracle) <= 1e-9 * oracle, (n, got, oracle)
        assert prev == 10**6

    _run(capsys, 4, "optimal table length equals e*ln N within 1e-9 relative "
                    "for 50 log-spaced N in [2, 1e6]", body)


def test_criterion_5_default_curve_sweep(capsys, tmp_path):
    def body():
        out = tmp_path / "curve.csv"
        assert main(["curve", "--out", str(out)]) == 0
        by_n = defaultdict(list)
        with open(out, newline="") as fh:
            for row in csv.DictReader(fh):
                by_n[int(row["N"])].append(
                    (float(row["s_p"]), float(row["m"]), float(row["s_t"]))
                )
        assert sorted(by_n) == [10, 100, 1000, 10000, 100000]
        for n, pts in by_n.items():
            assert len(pts) == 401
            assert pts[0][0] == 1.0 and pts[0][2] == 1.0
            assert math.isclose(pts[-1][0], 5.0, abs_tol=1e-9)
            m_star = math.log(n)
            for (_, m0, t0), (_, m1, t1) in zip(pts, pts[1:]):
                if m1 <= m_star:
                    assert t1 < t0, (n, m1)
                elif m0 >= m_star:
                    assert t1 > t0, (n, m0)
                # the single pair straddling m* may go either way

    _run(capsys, 5, "default curve sweep: 5 sizes x 401 points over s_p in [1, 5], "
                    "each series starts at (1, 1) and is unimodal around m=ln N", body)


def test_criterion_6_small_network_simulation(capsys):
    def body():
        cases = [
            (gr.ring_graph(8), hi.build_balanced(gr.ring_graph(8), 2, 2), 5, 0.625),
            (
                gr.grid_graph(4, 4),
                hi.build_grid_blocks(gr.grid_graph(4, 4), 4, 4, [(2, 2)]),
                7,
                0.4375,
            ),
        ]
        for g, h, want_len, want_s_t in cases:
            oracle = floyd_warshall(g.n_nodes, g.edges)
            tables = rt.build_tables(g, h)
            assert all(t.length == want_len for t in tables)
            edges = set(g.edges)
            for src, dst, path in every_route(tables, g, h):
                check_route(path, src, dst, edges, oracle[src][dst])
            rep = rt.measure(g, h)
            assert rep.s_t == want_s_t, rep.s_t
            assert rep.s_p >= 1.0

    _run(capsys, 6, "ring-8 and grid-4x4: every pair delivered on real edges, "
                    "no path beats the oracle, table lengths 5 and 7, "
                    "s_t exactly 0.625 and 0.4375", body)


def test_criterion_7_torus_slope_fit(capsys):
    def body():
        start = time.perf_counter()
        g = gr.torus_graph(16, 16)
        pts = []
        for levels in (1, 2, 3, 4):
            h = hi.build_balanced(g, levels=levels, branching=2)
            rep = rt.measure(g, h)
            pts.append((levels, rep.s_p))
        fit = ft.fit_alpha_linear(pts)
        elapsed = time.perf_counter() - start
        assert fit.alpha_hat > 0, fit
        assert fit.r_squared >= 0.9, fit
        assert elapsed < 60.0, elapsed

    _run(capsys, 7, "256-node torus, 1..4 levels: measured path stretch fits the "
                    "linear law with r^2 >= 0.9 and positive slope in under 60 s", body)


def test_criterion_8_eq3_recovery(capsys):
    def body():
        for alpha in (0.987, 2.0):
            for n in (10, 1000):
                params = an.AnalyticParams(n_nodes=n, alpha=alpha)
                pts = [
                    (sp, an.table_stretch_from_path_stretch(sp, params))
                    for sp in (1.2, 1.6, 2.0, 2.6, 3.0)
                ]
                got = ft.fit_alpha_eq3(pts, n)
                assert abs(got.alpha_hat - alpha) <= 1e-4, (alpha, n, got.alpha_hat)

    _run(capsys, 8, "eq3 fit recovers alpha within 1e-4 on noiseless curves "
                    "for alpha in {0.987, 2.0} x N in {10, 1000}", body)

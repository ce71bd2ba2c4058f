"""Slope estimation: exact recovery, noisy recovery, and the error paths."""

import math
import random
import warnings

import pytest

from routestretch import analytic as an
from routestretch import fitting as ft
from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt


def test_linear_recovers_exact_slope():
    alpha = 0.6
    pts = [(h, 1.0 + alpha * (h - 1)) for h in (1, 2, 3, 4)]
    got = ft.fit_alpha_linear(pts)
    assert math.isclose(got.alpha_hat, alpha, rel_tol=1e-12)
    assert got.residual_sse < 1e-25
    assert got.r_squared > 1.0 - 1e-12
    assert got.n_points == 4
    assert got.model == "linear-theorem1"


def test_linear_recovers_noisy_slope():
    rng = random.Random(5)
    alpha = 0.8
    pts = [(h, 1.0 + alpha * (h - 1) + rng.gauss(0, 0.01)) for h in range(1, 7)]
    got = ft.fit_alpha_linear(pts)
    assert abs(got.alpha_hat - alpha) < 0.05
    assert got.r_squared > 0.99


def test_linear_constant_observations_score_zero():
    # slope 0.5 fits (2, 1.5) exactly but misses (1, 1.5); SST is zero
    got = ft.fit_alpha_linear([(1, 1.5), (2, 1.5)])
    assert got.alpha_hat == 0.5
    assert got.residual_sse == 0.25
    assert got.r_squared == 0.0


def test_linear_error_paths():
    with pytest.raises(ValueError, match="at least two"):
        ft.fit_alpha_linear([(2, 1.5)])
    with pytest.raises(ValueError, match="every point has height 1"):
        ft.fit_alpha_linear([(1, 1.0), (1, 1.2)])
    with pytest.raises(ValueError, match="not positive"):
        ft.fit_alpha_linear([(1, 1.0), (3, 0.5)])


def test_ipea_recovers_exact_slope():
    alpha = 0.8
    pts = [(st, 1.0 - alpha * math.log(st)) for st in (1.0, 0.5, 0.2, 0.1)]
    got = ft.fit_alpha_ipea(pts)
    assert math.isclose(got.alpha_hat, alpha, rel_tol=1e-12)
    assert got.r_squared > 1.0 - 1e-12
    assert got.model == "ipea-log"


def test_ipea_error_paths():
    with pytest.raises(ValueError, match="at least two"):
        ft.fit_alpha_ipea([(0.5, 1.5)])
    with pytest.raises(ValueError, match="lie in"):
        ft.fit_alpha_ipea([(0.0, 1.0), (0.5, 1.5)])
    with pytest.raises(ValueError, match="lie in"):
        ft.fit_alpha_ipea([(1.2, 1.0), (0.5, 1.5)])
    with pytest.raises(ValueError, match="every point has s_t = 1"):
        ft.fit_alpha_ipea([(1.0, 1.0), (1.0, 1.3)])


@pytest.mark.parametrize("alpha", [0.987, 2.0])
@pytest.mark.parametrize("n", [10, 1000])
def test_eq3_recovers_noiseless_alpha(alpha, n):
    params = an.AnalyticParams(n_nodes=n, alpha=alpha)
    pts = [
        (sp, an.table_stretch_from_path_stretch(sp, params))
        for sp in (1.2, 1.6, 2.0, 2.6, 3.0)
    ]
    got = ft.fit_alpha_eq3(pts, n)
    assert abs(got.alpha_hat - alpha) <= 1e-4
    assert got.model == "eq3"
    assert got.n_points == 5
    assert got.r_squared > 0.999


def test_eq3_widens_and_warns_for_large_alpha():
    alpha = 8.0
    params = an.AnalyticParams(n_nodes=100, alpha=alpha)
    pts = [
        (sp, an.table_stretch_from_path_stretch(sp, params))
        for sp in (1.5, 2.5, 3.5, 4.5)
    ]
    with pytest.warns(UserWarning, match="widening"):
        got = ft.fit_alpha_eq3(pts, 100)
    assert abs(got.alpha_hat - alpha) <= 1e-3


def test_eq3_error_paths():
    with pytest.raises(ValueError, match="at least one"):
        ft.fit_alpha_eq3([], 10)
    with pytest.raises(ValueError, match="n_nodes"):
        ft.fit_alpha_eq3([(2.0, 0.5)], 1)
    with pytest.raises(ValueError, match="unidentifiable"):
        ft.fit_alpha_eq3([(1.0, 1.0), (1.0, 0.9)], 10)
    with pytest.raises(ValueError, match="s_p must be >= 1"):
        ft.fit_alpha_eq3([(0.9, 0.5), (2.0, 0.4)], 10)


FITS = {
    "linear": ft.fit_alpha_linear,
    "ipea": ft.fit_alpha_ipea,
    "eq3": lambda pts: ft.fit_alpha_eq3(pts, 10),
}


def bad_point_cases():
    # a NaN once slipped through eq3 as alpha_hat 0.0002 with a nan SSE
    good = [(2.0, 0.5), (3.0, 0.25)]
    for bad in (math.nan, math.inf, -math.inf):
        for name in FITS:
            sets = [[good[0], (bad, 0.5)], [good[0], (2.0, bad)]]
            yield pytest.param(name, sets, "point 1 is not finite", id=f"{name}-{bad}")
    # finite points whose sums of squares leave the float range once
    # printed residual_sse: inf and r_squared: -inf (eq3) or raised a bare
    # OverflowError (linear, ipea)
    overflow = "fit overflows: its sums of squares exceed the float range"
    for name, sets in [
        ("linear", [[(2.0, 1.2), (3.0, 1e300)], [(2.0, 1.2), (1e200, 1.5)]]),
        ("ipea", [[(0.5, 1.2), (0.25, 1e300)]]),
        ("eq3", [[(1.2, 0.5), (1e300, 0.25)], [(1.2, 0.5), (1.5, 1e308)]]),
    ]:
        yield pytest.param(name, sets, overflow, id=f"{name}-overflow")
    # eq3 has no upper bound on s_t (its curve exceeds 1 at small N)
    yield pytest.param("eq3", [[(1.2, 0.5), (1.5, -0.5)], [(1.2, 0.5), (1.5, 0.0)]],
                       "s_t must be > 0", id="eq3-s_t-not-positive")


@pytest.mark.parametrize("name, point_sets, match", bad_point_cases())
def test_non_finite_points_rejected(name, point_sets, match):
    for pts in point_sets:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match=match):
                FITS[name](pts)


def test_fit_result_guards_and_text():
    with pytest.raises(ValueError):
        ft.FitResult(0.0, 0.0, 1.0, 2, "eq3")
    with pytest.raises(ValueError):
        ft.FitResult(1.0, -0.1, 1.0, 2, "eq3")
    with pytest.raises(ValueError):
        ft.FitResult(1.0, 0.0, 1.5, 2, "eq3")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            ft.FitResult(1.0, abs(bad), 0.5, 2, "eq3")
        with pytest.raises(ValueError, match="must be finite"):
            ft.FitResult(1.0, 0.0, bad, 2, "eq3")
    with pytest.raises(ValueError, match="must be finite"):
        ft.FitResult(math.inf, 0.0, 0.5, 2, "eq3")
    text = ft.FitResult(0.5, 0.0, 1.0, 4, "linear-theorem1").to_text()
    assert text == (
        "model: linear-theorem1\n"
        "alpha_hat: 0.5\n"
        "residual_sse: 0\n"
        "r_squared: 1\n"
        "n_points: 4\n"
    )


def test_fit_texts_are_frozen():
    # the three fits of the torus-ladder points (the 20x20 torus at b = 2,
    # levels 2-4) and the widening eq3 case above, as first recorded
    g = gr.torus_graph(20, 20)
    reps = [rt.measure(g, hi.build_balanced(g, levels, 2)) for levels in (2, 3, 4)]
    assert ft.fit_alpha_linear([(r.levels, r.s_p) for r in reps]).to_text() == (
        "model: linear-theorem1\nalpha_hat: 0.1712734821\nresidual_sse: 8.131653337e-05\n"
        "r_squared: 0.9985493514\nn_points: 3\n"
    )
    assert ft.fit_alpha_ipea([(r.s_t, r.s_p) for r in reps]).to_text() == (
        "model: ipea-log\nalpha_hat: 0.2528222672\nresidual_sse: 2.15292338e-05\n"
        "r_squared: 0.9996159286\nn_points: 3\n"
    )
    assert ft.fit_alpha_eq3([(r.s_p, r.s_t) for r in reps], 400).to_text() == (
        "model: eq3\nalpha_hat: 0.9232712323\nresidual_sse: 0.004654943434\n"
        "r_squared: 0.9344873967\nn_points: 3\n"
    )
    params = an.AnalyticParams(n_nodes=100, alpha=8.0)
    pts = [(sp, an.table_stretch_from_path_stretch(sp, params)) for sp in (1.5, 2.5, 3.5, 4.5)]
    with pytest.warns(UserWarning, match="boundary 5.0; widening to 10.0"):
        got = ft.fit_alpha_eq3(pts, 100)
    assert got.to_text() == (
        "model: eq3\nalpha_hat: 7.999999972\nresidual_sse: 2.673635943e-18\n"
        "r_squared: 1\nn_points: 4\n"
    )

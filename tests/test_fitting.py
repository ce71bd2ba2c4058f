"""Slope estimation: exact recovery, noisy recovery, and the error paths."""

import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eq3_grid_min
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


def test_eq3_warns_when_the_cap_stops_the_search():
    # alpha = 60 lies past the cap of 40: the result is the cap, not an optimum
    params = an.AnalyticParams(n_nodes=1000, alpha=60.0)
    pts = [(sp, an.table_stretch_from_path_stretch(sp, params)) for sp in (5, 10, 20, 40)]
    with pytest.warns(UserWarning) as record:
        got = ft.fit_alpha_eq3(pts, 1000)
    assert [str(w.message) for w in record] == [
        "alpha optimum hit the search boundary 5.0; widening to 10.0",
        "alpha optimum hit the search boundary 10.0; widening to 20.0",
        "alpha optimum hit the search boundary 20.0; widening to 40.0",
        "alpha optimum hit the search cap 40.0; alpha_hat is the cap, not an optimum",
    ]
    assert got.to_text() == (
        "model: eq3\nalpha_hat: 39.99999996\nresidual_sse: 0.03627257647\n"
        "r_squared: 0.814865194\nn_points: 4\n"
    )


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


# the search ranges of fit_alpha_eq3: (0, 5], then each widening to the cap
EQ3_RANGES = [(ft._GRID_STEP, ft._ALPHA_START), (5.0, 10.0), (10.0, 20.0), (20.0, 40.0)]


@st.composite
def eq3_points(draw):
    """1-20 (s_p, s_t) points, some with s_p = 1 or a few float steps
    above it, their s_t either spread over decades or near the curve of a
    drawn alpha, and a network size."""
    n = draw(st.integers(2, 10**5))
    near_one = st.floats(-16.0, -12.0).map(lambda x: 1.0 + 10.0 ** x)
    s_p = draw(st.lists(st.just(1.0) | near_one | st.floats(1.0, 100.0),
                        min_size=1, max_size=20))
    alpha = draw(st.floats(1e-3, 100.0))
    noise = draw(st.sampled_from([None, 0.0, 1e-9, 1e-3, 0.3]))
    if noise is None:
        s_t = [10.0 ** draw(st.floats(-5.0, 3.0)) for _ in s_p]
    else:
        params = an.AnalyticParams(n_nodes=n, alpha=alpha)
        s_t = [an.table_stretch_from_path_stretch(sp, params)
               * math.exp(noise * draw(st.floats(-1.0, 1.0))) for sp in s_p]
    return list(zip(s_p, s_t)), n


def eq3_arrays(points, n):
    return (np.array([sp - 1.0 for sp, _ in points]), np.array([s for _, s in points]),
            math.log(n))


def scored_alphas(call):
    """The value of call() and how many alphas it scored with _eq3_sse_vector."""
    with mock.patch.object(ft, "_eq3_sse_vector", wraps=ft._eq3_sse_vector) as sse:
        value = call()
    return value, sum(len(c.args[0]) for c in sse.call_args_list)


@settings(max_examples=200, deadline=None)
@given(eq3_points(), st.sampled_from(EQ3_RANGES))
def test_eq3_grid_min_equals_scoring_every_grid_point(case, search_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bounds raise no RuntimeWarning
        args = eq3_arrays(*case) + search_range
        assert ft._eq3_grid_min(*args) == eq3_grid_min(*args)


@settings(max_examples=40, deadline=None)
@given(eq3_points())
def test_eq3_fit_equals_the_fit_on_every_grid_point(case):
    points, n = case
    points[0] = (points[0][0] + 0.5, points[0][1])  # an s_p > 1 to fit
    runs = []
    for grid_min in (ft._eq3_grid_min, eq3_grid_min):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            with mock.patch.object(ft, "_eq3_grid_min", grid_min):
                text = ft.fit_alpha_eq3(points, n).to_text()
        runs.append((text, [str(w.message) for w in record]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("search_range", EQ3_RANGES)
def test_flat_eq3_grid_scores_every_point(search_range):
    # with every s_p = 1 the SSE is the same at every alpha, so no block
    # can be skipped and the first grid alpha wins the tie
    lo, hi = search_range
    args = (np.zeros(2), np.array([0.5, 2.0]), math.log(100), lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, scored = scored_alphas(lambda: ft._eq3_grid_min(*args))
    assert got == eq3_grid_min(*args) == (1.25, lo)
    assert scored == int(round((hi - lo) / ft._GRID_STEP)) + 1


def test_eq3_grid_tie_goes_to_the_first_alpha():
    # with s_p - 1 = 1e-14, m = 1 + (s_p - 1)/alpha takes only a few float
    # values over (20, 40], so the SSE is flat in runs; the least run
    # starts at 20, away from the block with the least bound
    args = (np.array([1e-14]), np.array([2.0]), math.log(10), 20.0, 40.0)
    assert ft._eq3_grid_min(*args) == eq3_grid_min(*args) == (1.0000000000000009, 20.0)


def test_eq3_fit_scores_few_grid_points():
    # a count of the work, not a timing: scoring the whole grid again fails
    # it.  The torus-ladder points (the 20x20 torus at b = 2, levels 2-4)
    # search (0, 5]; the widening case also searches (5, 10].
    g = gr.torus_graph(20, 20)
    reps = [rt.measure(g, hi.build_balanced(g, levels, 2)) for levels in (2, 3, 4)]
    _, scored = scored_alphas(lambda: ft.fit_alpha_eq3([(r.s_p, r.s_t) for r in reps], 400))
    assert scored < 0.02 * 50_000
    params = an.AnalyticParams(n_nodes=100, alpha=8.0)
    pts = [(sp, an.table_stretch_from_path_stretch(sp, params)) for sp in (1.5, 2.5, 3.5, 4.5)]
    with pytest.warns(UserWarning, match="widening"):
        _, scored = scored_alphas(lambda: ft.fit_alpha_eq3(pts, 100))
    assert scored < 0.02 * (50_000 + 50_001)

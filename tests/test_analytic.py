"""Closed-form stretch math, checked against hand arithmetic.

Every expected literal below was computed independently (by hand or
with a test-local search); none was copied from the implementation.
"""

import math
import random

import pytest

from routestretch import analytic as an


def test_path_stretch_hand_values():
    # 1 + 0.987 * (3.5 - 1) = 1 + 2.4675
    assert an.path_stretch_from_height(3.5, 0.987) == 3.4675
    assert an.path_stretch_from_height(1.0, 0.5) == 1.0
    assert an.path_stretch_from_height(2.0, 1.0) == 2.0


def test_height_inverts_path_stretch():
    rng = random.Random(20260817)
    for _ in range(200):
        alpha = rng.uniform(1e-3, 5.0)
        h = rng.uniform(1.0, 50.0)
        s_p = an.path_stretch_from_height(h, alpha)
        assert math.isclose(an.height_from_path_stretch(s_p, alpha), h, abs_tol=1e-9)


def test_height_hand_value():
    # 1 + 1.2 / 0.987
    assert math.isclose(
        an.height_from_path_stretch(2.2, 0.987), 1.0 + 1.2 / 0.987, rel_tol=1e-15
    )


def test_table_stretch_hand_values():
    # 2 * 100**(-1/2) = 2 / 10
    assert an.table_stretch_kk(100, 2.0) == 0.2
    assert an.table_stretch_kk(7, 1.0) == 1.0
    assert math.isclose(an.table_stretch_kk(64, 3.0), 3.0 * 64 ** (-2.0 / 3.0), rel_tol=1e-15)


def test_optimal_table_length_fixed_hand_values():
    # 2 * sqrt(64) and 3 * 64**(1/3)
    assert an.optimal_table_length_fixed(64, 2.0) == 16.0
    assert math.isclose(an.optimal_table_length_fixed(64, 3.0), 12.0, rel_tol=1e-12)


def test_optimal_table_length_variable():
    got = an.optimal_table_length_variable(10)
    assert got == math.e * math.log(10)
    assert math.isclose(got, 6.2591, abs_tol=5e-5)


def test_variable_optimum_is_the_true_minimum():
    # sample around m = ln N; no sampled point may beat the closed form
    for n in (10, 100, 5000):
        best = an.optimal_table_length_variable(n)
        m_star = math.log(n)
        for k in range(-20, 21):
            m = m_star + k * 0.05 * m_star
            if m <= 0:
                continue
            assert an.optimal_table_length_fixed(n, m) >= best - 1e-9 * best


def test_composed_tradeoff_point():
    params = an.AnalyticParams(n_nodes=10, alpha=0.987)
    got = an.table_stretch_from_path_stretch(2.2, params)
    assert math.isclose(got, 0.6264, abs_tol=5e-4)
    params100 = an.AnalyticParams(n_nodes=100, alpha=0.987)
    assert math.isclose(an.table_stretch_from_path_stretch(2.2, params100), 0.1771, abs_tol=1e-3)


def test_composition_agrees_with_its_parts():
    params = an.AnalyticParams(n_nodes=500, alpha=1.3)
    for i in range(40):
        s_p = 1.0 + 0.1 * i
        m = an.height_from_path_stretch(s_p, params.alpha)
        assert an.table_stretch_from_path_stretch(s_p, params) == an.table_stretch_kk(500, m)


def test_ipea_hand_value():
    # 1 - 1.0 * ln(0.1)
    assert an.path_stretch_from_table_stretch_ipea(0.1, 1.0) == 1.0 - math.log(0.1)
    assert an.path_stretch_from_table_stretch_ipea(1.0, 3.7) == 1.0


def test_boundary_identities_random_samples():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(2, 10**6)
        alpha = rng.uniform(1e-3, 5.0)
        params = an.AnalyticParams(n_nodes=n, alpha=alpha)
        assert an.path_stretch_from_height(1.0, alpha) == 1.0
        assert an.table_stretch_kk(n, 1.0) == 1.0
        assert an.table_stretch_from_path_stretch(1.0, params) == 1.0
        assert an.path_stretch_from_table_stretch_ipea(1.0, alpha) == 1.0


def test_sweep_curve_default_grid():
    series = an.sweep_curve(an.AnalyticParams(n_nodes=10))
    assert len(series.points) == 401
    assert series.points[0] == (1.0, 1.0, 1.0)
    s_ps = [p[0] for p in series.points]
    assert all(b > a for a, b in zip(s_ps, s_ps[1:]))
    assert math.isclose(s_ps[-1], 5.0, abs_tol=1e-9)
    # every stored triple is consistent with the two closed forms
    for s_p, m, s_t in series.points[::40]:
        assert m == an.height_from_path_stretch(s_p, series.alpha)
        assert s_t == an.table_stretch_kk(series.n_nodes, m)


def test_sweep_curve_custom_grid():
    series = an.sweep_curve(an.AnalyticParams(n_nodes=50), 2.0, 3.0, 0.5)
    assert [p[0] for p in series.points] == [2.0, 2.5, 3.0]


def test_grid_min_lands_near_the_reported_minimum():
    series = an.sweep_curve(an.AnalyticParams(n_nodes=10, alpha=0.987))
    s_p, _, s_t = series.grid_min()
    assert 2.2 <= s_p <= 2.4
    assert 0.6259 <= s_t <= 0.6265


def test_golden_section_min_on_a_parabola():
    x, fx = an.golden_section_min(lambda x: (x - 2.0) ** 2 + 1.0, 0.0, 5.0)
    assert math.isclose(x, 2.0, abs_tol=1e-6)
    assert math.isclose(fx, 1.0, abs_tol=1e-12)


def test_golden_section_min_ends_below_the_float_spacing():
    # tol = 1e-9 is below the float spacing at 1e10 (about 1.9e-6): the
    # search once never returned; a regression now raises instead of hanging
    calls = 0

    def fn(x):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("golden_section_min did not stop")
        return (x - 1e10) ** 2

    x, fx = an.golden_section_min(fn, 1e10 - 1, 1e10 + 1, tol=1e-9)
    assert abs(x - 1e10) <= 4e-6
    assert fx == (x - 1e10) ** 2


def test_find_min_matches_closed_form():
    for n in (10, 100, 1000, 10**4, 10**5):
        params = an.AnalyticParams(n_nodes=n, alpha=0.987)
        got = an.find_min_table_stretch(params)
        want_s_t = math.e * math.log(n) / n
        want_s_p = 1.0 + 0.987 * (math.log(n) - 1.0)
        assert abs(got.s_t_min - want_s_t) <= 1e-6
        assert abs(got.s_p_at_min - want_s_p) <= 1e-6


def test_find_min_clamps_tiny_networks():
    # ln 2 < 1, so the constrained search stops at the flat boundary
    got = an.find_min_table_stretch(an.AnalyticParams(n_nodes=2))
    assert math.isclose(got.s_p_at_min, 1.0, abs_tol=1e-6)
    assert math.isclose(got.s_t_min, 1.0, abs_tol=1e-6)


def test_find_min_is_the_closed_form_from_2_to_1e18():
    # a golden-section search on m landed more than 1e-6 from ln N at
    # some sizes (772254611 and 10**11 among them)
    sizes = {max(2, int(10 ** (k / 20))) for k in range(361)}
    sizes |= {772254611, 10**11, 15_800_000_000, 10**12, 10**18}
    for n in sorted(sizes):
        m = max(1.0, math.log(n))
        got = an.find_min_table_stretch(an.AnalyticParams(n_nodes=n, alpha=0.987))
        assert got == (an.path_stretch_from_height(m, 0.987), an.table_stretch_kk(n, m)), n


def test_sweep_rejects_a_step_that_cannot_move_the_grid():
    params = an.AnalyticParams(n_nodes=10)
    with pytest.raises(ValueError, match="too small to move s_p"):
        an.sweep_curve(params, step=1e-17)
    with pytest.raises(ValueError, match="too small to move s_p"):
        an.sweep_curve(params, 1e6, 2e6, 1e-11)


def test_sweep_rejects_infinite_bounds_and_huge_grids():
    params = an.AnalyticParams(n_nodes=10)
    for lo, hi in ((1.0, math.inf), (1.0, math.nan), (math.nan, 5.0)):
        with pytest.raises(ValueError, match="s_p bounds must be finite"):
            an.sweep_curve(params, lo, hi)
    with pytest.raises(ValueError, match="needs 4000000000000000 points, more than 1000000"):
        an.sweep_curve(params, step=1e-15)
    with pytest.raises(ValueError, match="needs 1000001 points"):
        an.sweep_curve(params, step=4e-6)


def test_domain_rejections():
    with pytest.raises(ValueError):
        an.path_stretch_from_height(0.5, 1.0)
    with pytest.raises(ValueError):
        an.path_stretch_from_height(2.0, 0.0)
    with pytest.raises(ValueError):
        an.height_from_path_stretch(0.9, 1.0)
    with pytest.raises(ValueError):
        an.table_stretch_kk(0, 2.0)
    with pytest.raises(ValueError):
        an.table_stretch_kk(10, 0.5)
    with pytest.raises(ValueError):
        an.optimal_table_length_fixed(10, 0.0)
    with pytest.raises(ValueError):
        an.optimal_table_length_variable(1)
    with pytest.raises(ValueError):
        an.path_stretch_from_table_stretch_ipea(0.0, 1.0)
    with pytest.raises(ValueError):
        an.path_stretch_from_table_stretch_ipea(1.5, 1.0)
    with pytest.raises(ValueError):
        an.AnalyticParams(n_nodes=0)
    with pytest.raises(ValueError):
        an.AnalyticParams(n_nodes=10, alpha=-1.0)
    with pytest.raises(ValueError):
        an.AnalyticParams(n_nodes=10, alpha=math.inf)
    with pytest.raises(ValueError):
        an.path_stretch_from_height(2.0, math.inf)
    with pytest.raises(ValueError):
        an.height_from_path_stretch(2.0, math.inf)
    with pytest.raises(ValueError):
        an.path_stretch_from_table_stretch_ipea(0.5, math.inf)
    with pytest.raises(ValueError):
        an.sweep_curve(an.AnalyticParams(n_nodes=10), 2.0, 1.0)
    with pytest.raises(ValueError):
        an.sweep_curve(an.AnalyticParams(n_nodes=10), step=0.0)
    with pytest.raises(ValueError, match=r"s_p_min must be >= 1 \(got 0.5\)"):
        an.sweep_curve(an.AnalyticParams(n_nodes=10), 0.5)
    with pytest.raises(ValueError, match="need hi > lo"):
        an.golden_section_min(abs, 1.0, 1.0)
    with pytest.raises(ValueError, match="tol must be > 0"):
        an.golden_section_min(abs, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        an.find_min_table_stretch(an.AnalyticParams(n_nodes=1))



def test_overflowing_results_raise_naming_their_inputs():
    # (5 - 1) / 1e-308 overflows: the height, and every s_t built on it
    with pytest.raises(ValueError, match=r"^m is not finite at s_p = 5.0, alpha = 1e-308$"):
        an.height_from_path_stretch(5.0, 1e-308)
    params = an.AnalyticParams(n_nodes=100000, alpha=1e-308)
    with pytest.raises(ValueError, match=r"^m is not finite at s_p = 5.0, alpha = 1e-308$"):
        an.table_stretch_from_path_stretch(5.0, params)
    # the first grid point past s_p = 1 + 1.8 overflows: 1.79e308 is the largest double
    with pytest.raises(ValueError, match=r"^m is not finite at s_p = 2.8, alpha = 1e-308$"):
        an.sweep_curve(params)
    assert math.isclose(an.height_from_path_stretch(2.7, 1e-308), 1.7e308, rel_tol=1e-15)
    with pytest.raises(ValueError, match=r"^m is not finite at s_p = nan, alpha = 1.0$"):
        an.height_from_path_stretch(math.nan, 1.0)
    with pytest.raises(ValueError, match=r"^s_p is not finite at h = 1e\+308, alpha = 5.0$"):
        an.path_stretch_from_height(1e308, 5.0)
    with pytest.raises(ValueError, match=r"^s_p is not finite at s_t = 5e-324, alpha = 1e\+307$"):
        an.path_stretch_from_table_stretch_ipea(5e-324, 1e307)
    with pytest.raises(ValueError, match=r"^s_t is not finite at n_nodes = 10, m = inf$"):
        an.table_stretch_kk(10, math.inf)
    with pytest.raises(ValueError, match=r"^m must be >= 1 \(got nan\)$"):
        an.table_stretch_kk(10, math.nan)


def test_curve_series_requires_increasing_points():
    with pytest.raises(ValueError):
        an.CurveSeries(10, 1.0, ((1.0, 1.0, 1.0), (1.0, 1.0, 0.9)))
    with pytest.raises(ValueError):
        an.CurveSeries(10, 1.0, ())

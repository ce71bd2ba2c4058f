"""Closed-form stretch relations for hierarchical routing.

Three quantities describe an m-level hierarchical routing scheme on an
N-node network: the hierarchy height m (level count; height and level
count are the same thing here and the two words are used
interchangeably), the path-length stretch s_p (mean hierarchical route
length over mean shortest-path length), and the table-length stretch
s_t (mean routing-table length over N, the flat-table baseline).

The relations implemented:

    s_p = 1 + alpha * (m - 1)                (path stretch vs height)
    s_t = m * N ** (1/m - 1)                 (Kleinrock-Kamoun table stretch)
    s_p = 1 - alpha * ln(s_t)                (information-per-entry form)

plus the composition of the first two and the optimal table lengths
m * N**(1/m) (fixed level count) and e * ln(N) (free level count).

All logarithms are natural; a different base only rescales alpha.
Every function is pure and raises ValueError on out-of-domain input,
and on a result that overflows to infinity (a tiny alpha makes the
height m = 1 + (s_p - 1)/alpha overflow): the message names the result
and the inputs it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

# Default slope of the path-stretch line, used by the command-line tools
# when no --alpha is given.  Empirical fits on real topologies are not
# expected to reproduce it.
DEFAULT_ALPHA = 0.987


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0 (got {alpha})")


def _check_n_nodes(n_nodes: int) -> None:
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be a positive integer (got {n_nodes})")


def _finite(value: float, name: str, **inputs: float) -> float:
    """`value`, or ValueError naming it and the inputs it came from when
    it overflowed to infinity or is NaN."""
    if not math.isfinite(value):
        given = ", ".join(f"{k} = {v}" for k, v in inputs.items())
        raise ValueError(f"{name} is not finite at {given}")
    return value


@dataclass(frozen=True)
class AnalyticParams:
    """Shared parameter bundle: network size and stretch slope."""

    n_nodes: int
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        _check_n_nodes(self.n_nodes)
        _check_alpha(self.alpha)


def path_stretch_from_height(h: float, alpha: float) -> float:
    """s_p = 1 + alpha*(h - 1); the height-1 boundary gives exactly 1."""
    if h < 1:
        raise ValueError(f"h must be >= 1 (got {h})")
    _check_alpha(alpha)
    return _finite(1.0 + alpha * (h - 1.0), "s_p", h=h, alpha=alpha)


def height_from_path_stretch(s_p: float, alpha: float) -> float:
    """Inverse of path_stretch_from_height: m = 1 + (s_p - 1)/alpha."""
    if s_p < 1:
        raise ValueError(f"s_p must be >= 1 (got {s_p})")
    _check_alpha(alpha)
    return _finite(1.0 + (s_p - 1.0) / alpha, "m", s_p=s_p, alpha=alpha)


def table_stretch_kk(n_nodes: int, m: float) -> float:
    """Kleinrock-Kamoun table stretch s_t = m * N**(1/m - 1) for an m-level scheme."""
    _check_n_nodes(n_nodes)
    if not m >= 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    return _finite(m * n_nodes ** (1.0 / m - 1.0), "s_t", n_nodes=n_nodes, m=m)


def optimal_table_length_fixed(n_nodes: int, m: float) -> float:
    """Optimal table length m * N**(1/m) for an m-level scheme.

    The hierarchical reading needs m >= 1, but the formula is evaluated
    for any m > 0: the unconstrained optimum over real m (see
    optimal_table_length_variable) sits below 1 for N < e.
    """
    _check_n_nodes(n_nodes)
    if not m > 0:
        raise ValueError(f"m must be > 0 (got {m})")
    return m * n_nodes ** (1.0 / m)


def optimal_table_length_variable(n_nodes: int) -> float:
    """Minimum of m * N**(1/m) over real m: e * ln(N), reached at m = ln(N)."""
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2 (got {n_nodes})")
    return math.e * math.log(n_nodes)


def table_stretch_from_path_stretch(s_p: float, params: AnalyticParams) -> float:
    """Table stretch at a given path stretch: Eq-2 height fed into the KK formula.

    Raises ValueError naming s_p and alpha when the height overflows.
    """
    return table_stretch_kk(params.n_nodes, height_from_path_stretch(s_p, params.alpha))


def path_stretch_from_table_stretch_ipea(s_t: float, alpha: float) -> float:
    """Information-per-entry form s_p = 1 - alpha * ln(s_t).

    Natural logarithm; a different base only rescales alpha.  s_t = 1
    (flat tables) gives exactly 1.
    """
    if not 0 < s_t <= 1:
        raise ValueError(f"s_t must lie in (0, 1] (got {s_t})")
    _check_alpha(alpha)
    return _finite(1.0 - alpha * math.log(s_t), "s_p", s_t=s_t, alpha=alpha)


@dataclass(frozen=True)
class CurveSeries:
    """One tradeoff curve: (s_p, m, s_t) triples at fixed (n_nodes, alpha).

    Points are strictly increasing in s_p.  Every stored triple satisfies
    m = height_from_path_stretch(s_p, alpha) and
    s_t = table_stretch_kk(n_nodes, m) exactly as computed.
    """

    n_nodes: int
    alpha: float
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a curve needs at least one point")
        for a, b in zip(self.points, self.points[1:]):
            if not b[0] > a[0]:
                raise ValueError("curve points must be strictly increasing in s_p")

    def grid_min(self) -> tuple[float, float, float]:
        """The sweep point with the smallest table stretch (first on ties)."""
        return min(self.points, key=lambda p: p[2])


# Most points one sweep may ask for; the default grid has 401.
_MAX_POINTS = 10**6


def sweep_curve(
    params: AnalyticParams,
    s_p_min: float = 1.0,
    s_p_max: float = 5.0,
    step: float = 0.01,
) -> CurveSeries:
    """Sample the tradeoff curve on a regular s_p grid, inclusive of the start.

    The end point is included when it lands on the grid (the defaults
    produce 401 points over [1, 5]).  Raises ValueError for a grid of
    more than a million points.
    """
    if not (math.isfinite(s_p_min) and math.isfinite(s_p_max)):
        raise ValueError(f"s_p bounds must be finite (got {s_p_min}, {s_p_max})")
    if s_p_min < 1:
        raise ValueError(f"s_p_min must be >= 1 (got {s_p_min})")
    if not s_p_max > s_p_min:
        raise ValueError("s_p_max must exceed s_p_min")
    if not step > 0:
        raise ValueError(f"step must be > 0 (got {step})")
    if s_p_min + step == s_p_min:
        raise ValueError(f"step {step} is too small to move s_p from {s_p_min}")
    span = (s_p_max - s_p_min) / step + 1e-9
    if span >= _MAX_POINTS:  # floor(span) + 1 points
        raise ValueError(
            f"s_p from {s_p_min} to {s_p_max} in steps of {step} needs "
            f"{span + 1:.0f} points, more than {_MAX_POINTS}"
        )
    count = int(math.floor(span)) + 1
    pts = []
    for i in range(count):
        s_p = s_p_min + i * step
        m = height_from_path_stretch(s_p, params.alpha)
        pts.append((s_p, m, table_stretch_kk(params.n_nodes, m)))
    return CurveSeries(params.n_nodes, params.alpha, tuple(pts))


def golden_section_min(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9
) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi]; returns (argmin, min value).

    The search ends once [a, b] is no wider than tol, or once a step no
    longer narrows it: a tol below the float spacing of the bracket
    cannot be reached.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = fn(c), fn(d)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


class MinTableStretch(NamedTuple):
    s_p_at_min: float
    s_t_min: float


def find_min_table_stretch(params: AnalyticParams) -> MinTableStretch:
    """Continuous minimum of the tradeoff curve over s_p >= 1.

    m * N**(1/m) is least at m* = ln N (see optimal_table_length_variable),
    clamped to the m >= 1 boundary, which only binds for N = 2.
    """
    n = params.n_nodes
    if n < 2:
        raise ValueError(f"n_nodes must be >= 2 (got {n})")
    m = max(1.0, math.log(n))
    return MinTableStretch(
        s_p_at_min=path_stretch_from_height(m, params.alpha),
        s_t_min=table_stretch_kk(n, m),
    )

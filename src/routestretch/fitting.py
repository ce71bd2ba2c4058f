"""Least-squares estimation of the stretch slope alpha from measured data.

Three one-parameter models, all constrained through the exact boundary
point (no intercept is fitted):

  linear-theorem1   s_p = 1 + alpha * (h - 1), through (h=1, s_p=1)
  ipea-log          s_p = 1 - alpha * ln(s_t), through (s_t=1, s_p=1)
  eq3               s_t = m * N**(1/m - 1) with m = 1 + (s_p - 1)/alpha

The first two are closed-form ratios; the third is a 1-D search (grid
over (0, 5] with step 1e-4, widened with a warning when the optimum
hits the boundary, up to a cap of 40 that also warns, then
golden-section refinement to 1e-7).  The range widens only while the
grid optimum sits on its upper edge, so a local minimum inside (0, 5]
ends the search even when a deeper one lies beyond 5: points drawn from
the curve with alpha = 100 at N = 100 fit alpha_hat 0.0222 with
r_squared -274.  Empirical alpha values from real topologies are their
own quantity and are not expected to match the 0.987 default used by
the curve tools.

The grid search picks the same point as scoring every grid alpha (the
least SSE, the first alpha on a tie) but scores only blocks of 64
consecutive alphas that could hold it.  Over a block [a_lo, a_hi] each
point's m lies in [1 + d/a_hi, 1 + d/a_lo] (d = s_p - 1), and
f(m) = m * N**(1/m - 1) falls until m = ln N and rises after, so f
is at most its larger end value and at least its value at ln N clipped
to the interval.  Each residual s_t - f thus lies in an interval, and
the sum of those intervals' squared distances from 0 is a lower bound
on the SSE of every alpha in the block.  The block with the least bound
is scored first; a block whose bound exceeds the least SSE found there
cannot hold the minimum and is skipped, and the rest are scored in grid
order.  The f interval is widened, and the bound shrunk, by a relative
1e-12, a thousand times the rounding error of f and of the SSE's sum
for any N below e**1000, so the bound holds for the SSE as computed and
not just as exact.  A margin as wide as 1e-6 would also be exact but
would keep every block within 1e-6 of the best SSE, as on the flat tail
of a range whose optimum is on its edge.

r_squared is computed against the constrained model: 1 - SSE/SST with
SST taken about the observed mean.  For constant observations it is 1.0
when the fit is exact and 0.0 otherwise.  Finite points can still be too
large for float sums of squares; such a fit raises a ValueError that
says it overflows, so no report carries an inf or a NaN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import golden_section_min

_GRID_STEP = 1e-4
_ALPHA_START = 5.0
_ALPHA_CAP = 40.0
_BLOCK = 64  # grid points bounded together
_CHUNK = 4096  # most grid points scored in one array
_SLACK = 1e-12  # relative margin of each block bound (see the module docstring)


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    residual_sse: float
    r_squared: float
    n_points: int
    model: str

    def __post_init__(self) -> None:
        if not 0 < self.alpha_hat < math.inf:
            raise ValueError(f"alpha_hat must be finite and > 0 (got {self.alpha_hat})")
        if not 0 <= self.residual_sse < math.inf:
            raise ValueError(
                f"residual_sse must be finite and >= 0 (got {self.residual_sse})"
            )
        if not -math.inf < self.r_squared <= 1:
            raise ValueError(
                f"r_squared must be finite and at most 1 (got {self.r_squared})"
            )

    def to_text(self) -> str:
        return (
            f"model: {self.model}\n"
            f"alpha_hat: {self.alpha_hat:.10g}\n"
            f"residual_sse: {self.residual_sse:.10g}\n"
            f"r_squared: {self.r_squared:.10g}\n"
            f"n_points: {self.n_points}\n"
        )


def _sum_squares(values) -> float:
    """The sum of squares, inf once a square leaves the float range."""
    try:
        return sum(v ** 2 for v in values)
    except OverflowError:
        return math.inf


def _r_squared(observed: Sequence[float], sse: float) -> float:
    mean = sum(observed) / len(observed)
    sst = _sum_squares(y - mean for y in observed)
    if sst == 0:
        return 1.0 if sse < 1e-30 else 0.0
    return 1.0 - sse / sst


def _scored(model: str, alpha: float, sse: float, observed: list[float]) -> FitResult:
    """The FitResult of a fitted alpha and its residual sum of squares;
    one past the float range raises a ValueError that names the overflow."""
    r_squared = _r_squared(observed, sse)
    if not all(map(math.isfinite, (alpha, sse, r_squared))):
        raise _overflow(model)
    return FitResult(alpha, sse, r_squared, len(observed), model)


def _overflow(model: str) -> ValueError:
    return ValueError(
        f"the {model} fit overflows: its sums of squares exceed the float range"
    )


def _finite_points(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = [(float(a), float(b)) for a, b in points]
    for i, pt in enumerate(pts):
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise ValueError(f"point {i} is not finite: {pt}")
    return pts


def _slope_fit(xs: list[float], ys: list[float], model: str, degenerate: str) -> FitResult:
    """The least-squares fit of ys = alpha * xs, a line through the
    boundary point at the origin.  R² is scored against ys: shifting
    every observation by one constant leaves it unchanged."""
    sxx = sum(x * x for x in xs)
    if sxx == 0:
        raise ValueError(f"degenerate data: {degenerate}")
    if sxx == math.inf:
        raise _overflow(model)
    alpha = sum(x * y for x, y in zip(xs, ys)) / sxx
    if not alpha > 0:
        raise ValueError(f"fitted slope is not positive ({alpha}); check the data")
    return _scored(model, alpha, _sum_squares(y - alpha * x for x, y in zip(xs, ys)), ys)


def fit_alpha_linear(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit s_p = 1 + alpha*(h - 1) to (height, path stretch) points."""
    pts = _finite_points(points)
    if len(pts) < 2:
        raise ValueError(f"need at least two points (got {len(pts)})")
    return _slope_fit([h - 1.0 for h, _ in pts], [sp - 1.0 for _, sp in pts],
                      "linear-theorem1", "every point has height 1")


def fit_alpha_ipea(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit s_p = 1 - alpha*ln(s_t) to (table stretch, path stretch) points."""
    pts = _finite_points(points)
    if len(pts) < 2:
        raise ValueError(f"need at least two points (got {len(pts)})")
    for st, _ in pts:
        if not 0 < st <= 1:
            raise ValueError(f"s_t must lie in (0, 1] (got {st})")
    return _slope_fit([-math.log(st) for st, _ in pts], [sp - 1.0 for _, sp in pts],
                      "ipea-log", "every point has s_t = 1")


def _eq3_curve(m: np.ndarray, ln_n: float) -> np.ndarray:
    return m * np.exp((1.0 / m - 1.0) * ln_n)


def _eq3_sse_vector(alphas: np.ndarray, d: np.ndarray, st: np.ndarray, ln_n: float) -> np.ndarray:
    # rows: candidate alphas; cols: data points
    with np.errstate(over="ignore"):  # an inf sum is reported by _scored
        m = 1.0 + d[None, :] / alphas[:, None]
        pred = _eq3_curve(m, ln_n)
        resid = st[None, :] - pred
        return (resid * resid).sum(axis=1)


def _eq3_block_bounds(a_lo: np.ndarray, a_hi: np.ndarray, d: np.ndarray,
                      st: np.ndarray, ln_n: float) -> np.ndarray:
    """For each block of alphas [a_lo, a_hi], a lower bound on the SSE of
    every alpha in it (see the module docstring)."""
    with np.errstate(over="ignore"):
        m_lo = 1.0 + d[None, :] / a_hi[:, None]
        m_hi = 1.0 + d[None, :] / a_lo[:, None]
        f_max = np.maximum(_eq3_curve(m_lo, ln_n), _eq3_curve(m_hi, ln_n)) * (1.0 + _SLACK)
        f_min = _eq3_curve(np.clip(ln_n, m_lo, m_hi), ln_n) * (1.0 - _SLACK)
        gap = np.maximum(np.maximum(st[None, :] - f_max, f_min - st[None, :]), 0.0)
        return (gap * gap).sum(axis=1) * (1.0 - _SLACK)


def _eq3_grid_min(d: np.ndarray, st: np.ndarray, ln_n: float, lo: float,
                  hi: float) -> tuple[float, float]:
    """The least SSE on the grid lo + _GRID_STEP * i over [lo, hi], and the
    first grid alpha that reaches it; only blocks whose bound does not
    exceed the SSE of the most promising block are scored."""
    count = int(round((hi - lo) / _GRID_STEP)) + 1
    first = np.arange(0, count, _BLOCK)
    bounds = _eq3_block_bounds(lo + _GRID_STEP * first,
                               lo + _GRID_STEP * np.minimum(first + _BLOCK - 1, count - 1),
                               d, st, ln_n)
    b = int(np.argmin(bounds))
    best = (math.inf, 0, lo)  # SSE, grid index, alpha

    def scan(rows: np.ndarray, best: tuple[float, int, float]) -> tuple[float, int, float]:
        # chunked so a long input series cannot blow up the grid matrix
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start:start + _CHUNK]
            alphas = lo + _GRID_STEP * chunk
            sse = _eq3_sse_vector(alphas, d, st, ln_n)
            j = int(np.argmin(sse))
            # the first index wins a tie, as on a scan of the whole grid
            if sse[j] < best[0] or (sse[j] == best[0] and chunk[j] < best[1]):
                best = (float(sse[j]), int(chunk[j]), float(alphas[j]))
        return best

    best = scan(np.arange(first[b], min(first[b] + _BLOCK, count)), best)
    keep = ~(bounds > best[0])  # a NaN bound is kept
    keep[b] = False
    best = scan(np.flatnonzero(np.repeat(keep, _BLOCK)[:count]), best)
    return best[0], best[2]


def fit_alpha_eq3(points: Sequence[tuple[float, float]], n_nodes: int) -> FitResult:
    """Fit the composed tradeoff curve to (path stretch, table stretch) points.

    n_nodes is the network size the observations came from.  The search
    range (0, 5] doubles with a warning whenever the optimum
    lands on its upper edge, up to a hard cap; an optimum on the cap
    warns that alpha_hat is the cap.  Only an optimum on the edge widens
    it: a local minimum inside (0, 5] is returned, with no warning, even
    when a deeper one lies beyond 5 (alpha = 100 at N = 100 fits 0.0222
    with r_squared -274).
    """
    pts = _finite_points(points)
    if not pts:
        raise ValueError("need at least one point")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2 (got {n_nodes})")
    if not any(sp > 1 for sp, _ in pts):
        raise ValueError("alpha is unidentifiable: every point has s_p = 1")
    for sp, s in pts:
        if sp < 1:
            raise ValueError(f"s_p must be >= 1 (got {sp})")
        # no upper bound: the curve itself exceeds 1 at small N
        if not s > 0:
            raise ValueError(f"s_t must be > 0 (got {s})")
    d = np.array([sp - 1.0 for sp, _ in pts])
    st = np.array([s for _, s in pts])
    ln_n = math.log(n_nodes)

    lo, hi = _GRID_STEP, _ALPHA_START
    while True:
        best_alpha = _eq3_grid_min(d, st, ln_n, lo, hi)[1]
        if hi - best_alpha >= _GRID_STEP / 2:
            break  # an optimum inside the range
        if hi >= _ALPHA_CAP:
            warnings.warn(
                f"alpha optimum hit the search cap {_ALPHA_CAP}; alpha_hat is "
                "the cap, not an optimum",
                stacklevel=2,
            )
            break
        new_hi = min(hi * 2, _ALPHA_CAP)
        warnings.warn(
            f"alpha optimum hit the search boundary {hi}; widening to {new_hi}",
            stacklevel=2,
        )
        lo, hi = hi, new_hi

    ref_lo = max(_GRID_STEP / 2, best_alpha - _GRID_STEP)
    ref_hi = min(_ALPHA_CAP, best_alpha + _GRID_STEP)
    alpha, sse = golden_section_min(
        lambda a: float(_eq3_sse_vector(np.array([a]), d, st, ln_n)[0]),
        ref_lo, ref_hi, tol=1e-7,
    )
    return _scored("eq3", alpha, sse, [s for _, s in pts])

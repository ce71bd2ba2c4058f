"""Minimal deterministic SVG line charts.

Emits a fixed 800x600 viewport with linear axes, one polyline per
series, and a legend.  Output depends only on the input data, so equal
inputs give byte-identical files.  A NaN or infinite coordinate is
rejected, not drawn.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
TICKS = 5

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)

Series = Sequence[tuple[str, Sequence[tuple[float, float]]]]


def _escape(text: str) -> str:
    """Text as XML character data: xml.sax.saxutils.escape's three
    replacements in its order, without importing xml.sax, whose import
    loads urllib.request, http.client, ssl and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def render_line_chart(
    series: Series, x_label: str, y_label: str, title: str = ""
) -> str:
    if not series or not any(pts for _, pts in series):
        raise ValueError("nothing to plot")
    for label, pts in series:
        for i, (x, y) in enumerate(pts):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"series {label!r} point {i} is not finite: ({x}, {y})")
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = _bounds(xs)
    y_lo, y_hi = _bounds(ys)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )
    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    x1, y1 = MARGIN_LEFT + plot_w, MARGIN_TOP
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )
    for i in range(TICKS):
        f = i / (TICKS - 1)
        tx = x_lo + f * (x_hi - x_lo)
        ty = y_lo + f * (y_hi - y_lo)
        gx = px(tx)
        gy = py(ty)
        out.append(
            f'<line x1="{gx:.2f}" y1="{y0}" x2="{gx:.2f}" y2="{y0 + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{gx:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tx:.4g}</text>'
        )
        out.append(
            f'<line x1="{x0 - 5}" y1="{gy:.2f}" x2="{x0}" y2="{gy:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{ty:.4g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.2f})">{_escape(y_label)}</text>'
    )
    # series
    for idx, (label, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 16 + idx * 18
        lx = MARGIN_LEFT + plot_w + 16
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_chart(
    path: str, series: Series, x_label: str, y_label: str, title: str = ""
) -> None:
    content = render_line_chart(series, x_label, y_label, title)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)

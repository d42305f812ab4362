"""Minimal deterministic SVG line plots.

Just axes, ticks, polylines and a text legend; the CSV next to each plot
is the source of truth.  All coordinates are formatted with fixed
precision so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    """lo < hi: an empty span widens by 1 each way, or by one float step
    each way where |value| >= 2^53 makes 1 vanish, within the finite range."""
    if hi != lo:
        return lo, hi
    lo, hi = lo - 1.0, hi + 1.0
    if hi == lo:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return max(lo, -sys.float_info.max), min(hi, sys.float_info.max)


def _ticks(lo: float, hi: float) -> list[float]:
    """Five ticks from lo to hi, a span that _span has made non-empty."""
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def render_curves(
    path: str | Path,
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = _span(min(xs_all), max(xs_all))
    y_lo, y_hi = _span(min(ys_all), max(ys_all))
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>',
    ]
    axis = f'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" y2="{_H - _MB + 4}" {axis}/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_H - _MB + 16}" font-size="10" text-anchor="middle" '
            f'font-family="sans-serif">{tv:.4g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" {axis}/>'
        )
        parts.append(
            f'<text x="{_ML - 7}" y="{_fmt(py + 3)}" font-size="10" text-anchor="end" '
            f'font-family="sans-serif">{tv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" font-size="11" '
        f'text-anchor="middle" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(_MT + _H - _MB) // 2}" font-size="11" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 14 {(_MT + _H - _MB) // 2})">'
        f"{y_label}</text>"
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(y))}"
            for x, y in zip(xs, ys)
            if math.isfinite(y)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 14 + 14 * idx
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 90}" y="{ly}" font-size="10" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", newline="\n")

"""Minimal static SVG line plots (no plotting dependency).

Renders a column of panels, one polyline each, with axis frames and
min/max tick labels. Good enough for eyeballing trajectories.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .fileio import atomic_write

PANEL_W = 640
PANEL_H = 180
MARGIN_L = 70
MARGIN_R = 15
MARGIN_T = 28
MARGIN_B = 34


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo
    if span == 0.0:
        span = 1.0
    # elementwise as on floats, which overflow to inf and give nan for inf - inf silently
    with np.errstate(over="ignore", invalid="ignore"):
        return out_lo + (values - lo) / span * (out_hi - out_lo)


def _range(values: np.ndarray) -> tuple[float, float]:
    """(min, max) as Python's min and max give them on the floats, (0, 1) when empty.

    They skip a NaN after the first value, where np.min and np.max would return it.
    """
    if not len(values):
        return 0.0, 1.0
    floats = values.tolist()
    return min(floats), max(floats)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def render_panels(
    path: str,
    panels: list[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str = "",
) -> None:
    """Write an SVG with one (label, x, y) polyline panel per row."""
    height = MARGIN_T + len(panels) * PANEL_H + MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{PANEL_W}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{PANEL_W / 2}" y="16" text-anchor="middle" font-size="13">'
                     f"{title}</text>")
    for i, (label, xs, ys) in enumerate(panels):
        top = MARGIN_T + i * PANEL_H
        bottom = top + PANEL_H - MARGIN_B
        left, right = MARGIN_L, PANEL_W - MARGIN_R
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        x_lo, x_hi = _range(xs)
        y_lo, y_hi = _range(ys)
        px = _scale(xs, x_lo, x_hi, left, right)
        py = _scale(ys, y_lo, y_hi, bottom, top + 8)
        pts = ("%.2f,%.2f " * len(xs))[:-1] % tuple(np.stack((px, py), axis=1).ravel().tolist())
        parts.append(
            f'<rect x="{left}" y="{top + 8}" width="{right - left}" '
            f'height="{bottom - top - 8}" fill="none" stroke="#888"/>'
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>')
        parts.append(f'<text x="{left}" y="{top + 4 + 8}" fill="#333">{label}</text>')
        parts.append(f'<text x="{left - 4}" y="{bottom}" text-anchor="end">{_fmt(y_lo)}</text>')
        parts.append(f'<text x="{left - 4}" y="{top + 16}" text-anchor="end">{_fmt(y_hi)}</text>')
        parts.append(f'<text x="{left}" y="{bottom + 14}" text-anchor="middle">{_fmt(x_lo)}</text>')
        parts.append(f'<text x="{right}" y="{bottom + 14}" text-anchor="middle">{_fmt(x_hi)}</text>')
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts))

"""Minimal self-contained SVG scatter plots of objective fronts: one panel
for two objectives, else the pairwise panels (f1, f2), (f1, f3), (f2, f3).

Hand-rolled on purpose: byte-identical output for identical input, one
``<circle>`` element per plotted point, no plotting-toolkit dependency.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from .metrics import Front

__all__ = ["emit_svg_scatter"]

_PANEL_W = 360
_PANEL_H = 300
_MARGIN = 48
_RADIUS = 2.5


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _panel(points: np.ndarray, labels: tuple[str, str], x_off: int) -> list[str]:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0.0, 0.05 * span, 0.5)
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    x0, x1 = x_off + _MARGIN, x_off + _PANEL_W - _MARGIN // 3
    y0, y1 = _PANEL_H - _MARGIN, _MARGIN // 3

    def frac(v: float, axis: int) -> float:
        # Beyond about 1e16 the 0.5 pad of a one-value axis is lost to
        # rounding, so the span stays 0: put that value in the middle.
        return (v - lo[axis]) / span[axis] if span[axis] > 0.0 else 0.5

    def sx(v: float) -> float:
        return x0 + frac(v, 0) * (x1 - x0)

    def sy(v: float) -> float:
        return y0 + frac(v, 1) * (y1 - y0)

    parts = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_PANEL_H - 10}" text-anchor="middle" '
        f'font-size="12">{labels[0]}</text>',
        f'<text x="{x_off + 14}" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 {x_off + 14} {(y0 + y1) / 2:.1f})">'
        f'{labels[1]}</text>',
        f'<text x="{x0}" y="{y0 + 14}" text-anchor="middle" font-size="9">{_fmt(lo[0])}</text>',
        f'<text x="{x1}" y="{y0 + 14}" text-anchor="middle" font-size="9">{_fmt(hi[0])}</text>',
        f'<text x="{x0 - 4}" y="{y0}" text-anchor="end" font-size="9">{_fmt(lo[1])}</text>',
        f'<text x="{x0 - 4}" y="{y1 + 8}" text-anchor="end" font-size="9">{_fmt(hi[1])}</text>',
    ]
    for px, py in points:
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="{_RADIUS}" '
                     'fill="#1f6fb2" fill-opacity="0.75"/>')
    return parts


def emit_svg_scatter(front: Front, path: Union[str, Path]) -> Path:
    """Write a scatter of the front's objective vectors and return the path.

    Two objectives give one panel, f1 against f2; three or more give the
    pairwise panels of f1, f2 and f3.  Axis ranges are the data bounding box
    padded by 5%.  An empty front produces an annotated empty plot.
    """
    m = front.objectives.shape[1]
    if m < 2:
        raise ValueError("a front needs at least two objectives")
    pairs = [(0, 1)] if m == 2 else [(0, 1), (0, 2), (1, 2)]
    width = _PANEL_W * len(pairs)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
        f'<rect x="0" y="0" width="{width}" height="{_PANEL_H}" fill="white"/>',
    ]
    if len(front) == 0:
        parts.append(f'<text x="{width / 2:.1f}" y="{_PANEL_H / 2:.1f}" '
                     'text-anchor="middle" font-size="14">empty front</text>')
    else:
        for panel_idx, (i, j) in enumerate(pairs):
            parts.extend(_panel(front.objectives[:, [i, j]], (f"f{i + 1}", f"f{j + 1}"),
                                panel_idx * _PANEL_W))
    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out

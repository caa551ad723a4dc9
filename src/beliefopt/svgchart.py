"""Minimal deterministic SVG line charts for loss curves.

No plotting dependency: the byte output must be identical across runs and
machines for the same inputs, so the file is assembled from formatted
strings only.  The loss axis is log10 when every value is positive and
falls back to linear otherwise; series longer than 1600 points are
subsampled on an even index grid.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 960
HEIGHT = 600
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 48

#: fixed series palette; cycles if a chart has more series than entries.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf",
)

MAX_POINTS = 1600
#: ticks per axis, both ends included
_TICKS = 5


def _subsample(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    if n <= MAX_POINTS:
        return np.arange(n)
    # The grid points lie more than 1 apart, so rounding keeps them strictly increasing.
    return np.round(np.linspace(0, n - 1, MAX_POINTS)).astype(np.int64)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _tick_label(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:g}"


def _text(x, y, size: int, body: str, anchor: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"{anchor}>{body}</text>'


def _line(x1, y1, x2, y2, stroke: str, width: int = 1) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"/>')


def write_compare_svg(path: str, series: dict[str, np.ndarray],
                      title: str = "loss vs step") -> None:
    if not series:
        raise ValueError("no series to plot")
    log_y = all(np.all(vals > 0) for vals in series.values() if vals.size)
    xs_all = []
    ys_all = []
    for vals in series.values():
        if vals.size == 0:
            raise ValueError("empty series")
        idx = _subsample(vals)
        x = idx + 1.0
        y = np.log10(vals[idx]) if log_y else vals[idx].astype(np.float64)
        xs_all.append(x)
        ys_all.append(y)
    x_lo = min(float(x[0]) for x in xs_all)
    x_hi = max(float(x[-1]) for x in xs_all)
    y_lo = min(float(y.min()) for y in ys_all)
    y_hi = max(float(y.max()) for y in ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo -= 1.0
        y_hi += 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(WIDTH // 2, 24, 16, title, "middle"),
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if log_y:
        lo_exp = math.floor(y_lo)
        hi_exp = math.ceil(y_hi)
        span = max(1, hi_exp - lo_exp)
        stride = max(1, span // 6)
        y_ticks = [float(e) for e in range(lo_exp, hi_exp + 1, stride)]
        y_labels = [f"1e{int(e)}" for e in y_ticks]
    else:
        y_ticks = _nice_ticks(y_lo, y_hi)
        y_labels = [_tick_label(v) for v in y_ticks]
    for value, label in zip(y_ticks, y_labels):
        if not y_lo <= value <= y_hi:
            continue
        ypix = py(value)
        parts.append(_line(MARGIN_L, _fmt(ypix), WIDTH - MARGIN_R, _fmt(ypix), "#dddddd"))
        parts.append(_text(MARGIN_L - 6, _fmt(ypix + 4), 11, label, "end"))
    for value in _nice_ticks(x_lo, x_hi):
        xpix = _fmt(px(value))
        parts.append(_line(xpix, HEIGHT - MARGIN_B, xpix, HEIGHT - MARGIN_B + 5, "#333333"))
        parts.append(_text(xpix, HEIGHT - MARGIN_B + 18, 11, _tick_label(round(value)), "middle"))
    parts.append(_text(16, MARGIN_T - 10, 12, "log10 loss" if log_y else "loss"))
    parts.append(_text(WIDTH - MARGIN_R, HEIGHT - 8, 12, "t", "end"))
    for j, (name, x, y) in enumerate(zip(series, xs_all, ys_all)):
        color = PALETTE[j % len(PALETTE)]
        points = " ".join(f"{_fmt(px(float(a)))},{_fmt(py(float(b)))}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_T + 16 + 16 * j
        lx = WIDTH - MARGIN_R - 190
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, color, 2))
        parts.append(_text(lx + 28, ly, 12, name))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

"""Small self-contained SVG writers for experiment output.

Two figure kinds cover everything the experiment driver emits: a
scatter of two-class labeled points, and a line chart of one labelled
curve on linear or logarithmic axes.  Both go through one writer of the
frame, ticks and file.  Output is plain SVG text with no external
dependencies and no volatile content, so a rerun produces identical bytes.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

PALETTE = ["#1f77b4", "#d62728"]
WIDTH = 640
HEIGHT = 480
MARGIN = 56


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_label(x: float) -> str:
    return f"{x:.4g}"


def _text(x, y, anchor: str, size: int, label: str, attrs: str = "") -> str:
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}"{attrs}>{escape(label)}</text>')


def _axis(values, log: bool, start: float, length: float):
    """The map from data to pixels that puts the range of values, padded by
    5% (a single value by 0.5 or 5% of itself), onto start to start + length."""
    lim = np.array([values.min(), values.max()])
    lo, hi = (float(v) for v in (np.log10(lim) if log else lim))
    pad = (0.5 if lo == 0 else 0.05 * abs(lo)) if hi <= lo else 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def pixel(value: float) -> float:
        v = math.log10(value) if log else value
        return start + length * (v - lo) / (hi - lo)

    return pixel


def _write(path, title: str, xs, ys, log: bool, marks, labels=()) -> None:
    """Write one figure of the data xs, ys: a titled frame, the elements that
    marks(x, y) draws with the pixel maps x and y, a tick at both ends of
    each axis, then the labels."""
    x = _axis(xs, log, MARGIN, WIDTH - 2 * MARGIN)
    y = _axis(ys, log, HEIGHT - MARGIN, -(HEIGHT - 2 * MARGIN))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH // 2, 24, "middle", 15, title),
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#444444"/>',
        *marks(x, y),
    ]
    for value, anchor in ((xs.min(), "start"), (xs.max(), "end")):
        parts.append(_text(_fmt(x(value)), _fmt(HEIGHT - MARGIN + 18), anchor, 11,
                           _axis_label(value)))
    for value in (ys.min(), ys.max()):
        parts.append(_text(_fmt(MARGIN - 6), _fmt(y(value) + 4), "end", 11, _axis_label(value)))
    parts += [*labels, "</svg>"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


def scatter_figure(path, points, labels, title: str) -> None:
    """Write a scatter plot of 2-d points, colored by binary labels."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("scatter figures need an (n, 2) point array")
    labels = np.asarray(labels, dtype=bool)

    def marks(x, y):
        return [f'<circle cx="{_fmt(x(p[0]))}" cy="{_fmt(y(p[1]))}" r="2.5" fill="{color}"/>'
                for cls, color in ((True, PALETTE[0]), (False, PALETTE[1]))
                for p in points[labels == cls]]

    _write(path, title, points[:, 0], points[:, 1], False, marks)


def line_figure(path, xs, ys, label: str, title: str, xlabel: str, ylabel: str,
                log: bool = True) -> None:
    """Write a line chart of one curve, on log axes unless log is False.

    The points (xs[k], ys[k]) are drawn as a polyline with point markers,
    and the label in a small legend.  No file is written for fewer than
    two points, nor on log axes when a value is not positive.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or (log and min(xs.min(), ys.min()) <= 0):
        return
    color = PALETTE[0]

    def marks(x, y):
        coords = " ".join(f"{_fmt(x(a))},{_fmt(y(b))}" for a, b in zip(xs, ys))
        return [
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>',
            *(f'<circle cx="{_fmt(x(a))}" cy="{_fmt(y(b))}" r="3" fill="{color}"/>'
              for a, b in zip(xs, ys)),
            f'<rect x="{WIDTH - MARGIN - 150}" y="{MARGIN + 8}" width="12" height="3" '
            f'fill="{color}"/>',
            _text(_fmt(WIDTH - MARGIN - 132), _fmt(MARGIN + 14), "start", 11, label),
        ]

    _write(path, title, xs, ys, log, marks, [
        _text(WIDTH // 2, HEIGHT - 12, "middle", 12, xlabel),
        _text(16, HEIGHT // 2, "middle", 12, ylabel,
              f' transform="rotate(-90 16 {HEIGHT // 2})"'),
    ])

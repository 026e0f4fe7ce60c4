"""Small self-contained SVG writers for experiment output.

Two figure kinds cover everything the experiment driver emits: a
scatter of two-class labeled points, and a line chart of
one curve with linear or logarithmic axes.  Output is plain
SVG text with no external dependencies and no volatile content, so a
rerun produces identical bytes.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH = 640
HEIGHT = 480
MARGIN = 56


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_label(x: float) -> str:
    return f"{x:.4g}"


class _Frame:
    """Maps data coordinates into the pixel viewport of one figure."""

    def __init__(self, xlim, ylim, xscale="linear", yscale="linear"):
        self.xscale = xscale
        self.yscale = yscale
        self.xlim = self._expand(self._raw(np.asarray(xlim, dtype=float), xscale))
        self.ylim = self._expand(self._raw(np.asarray(ylim, dtype=float), yscale))

    @staticmethod
    def _raw(lim, scale):
        if scale == "log":
            if np.any(lim <= 0):
                raise ValueError("log axes need positive data")
            return np.log10(lim)
        return lim

    @staticmethod
    def _expand(lim):
        lo, hi = float(lim[0]), float(lim[1])
        if hi <= lo:
            pad = 0.5 if lo == 0 else 0.05 * abs(lo)
            return lo - pad, hi + pad
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    def x(self, value: float) -> float:
        v = math.log10(value) if self.xscale == "log" else value
        lo, hi = self.xlim
        return MARGIN + (WIDTH - 2 * MARGIN) * (v - lo) / (hi - lo)

    def y(self, value: float) -> float:
        v = math.log10(value) if self.yscale == "log" else value
        lo, hi = self.ylim
        return HEIGHT - MARGIN - (HEIGHT - 2 * MARGIN) * (v - lo) / (hi - lo)


def _header(title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{escape(title)}</text>'
        )
    return parts


def _frame_rect() -> str:
    return (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#444444"/>'
    )


def _tick_text(x: float, y: float, label: str, anchor: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="11">{escape(label)}</text>'
    )


def scatter_figure(path, points, labels, title: str = "") -> None:
    """Write a scatter plot of 2-d points, colored by binary labels."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("scatter figures need an (n, 2) point array")
    frame = _Frame(
        (points[:, 0].min(), points[:, 0].max()),
        (points[:, 1].min(), points[:, 1].max()),
    )
    parts = _header(title)
    parts.append(_frame_rect())
    labels = np.asarray(labels, dtype=bool)
    for cls, color in ((True, PALETTE[0]), (False, PALETTE[1])):
        for p in points[labels == cls]:
            parts.append(
                f'<circle cx="{_fmt(frame.x(p[0]))}" cy="{_fmt(frame.y(p[1]))}" '
                f'r="2.5" fill="{color}"/>'
            )
    for value, place in ((points[:, 0].min(), "start"), (points[:, 0].max(), "end")):
        parts.append(
            _tick_text(frame.x(value), HEIGHT - MARGIN + 18, _axis_label(value), place)
        )
    for value in (points[:, 1].min(), points[:, 1].max()):
        parts.append(_tick_text(MARGIN - 6, frame.y(value) + 4, _axis_label(value), "end"))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


def line_figure(path, xs, ys, label: str = "", title: str = "", xlabel: str = "",
                ylabel: str = "", xscale: str = "linear", yscale: str = "linear") -> None:
    """Write a line chart of one curve.

    The points (xs[k], ys[k]) are drawn as a polyline with point
    markers; a non-empty label is shown in a small legend.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise ValueError("line figures need a non-empty curve")
    frame = _Frame((xs.min(), xs.max()), (ys.min(), ys.max()), xscale, yscale)
    color = PALETTE[0]
    coords = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in zip(xs, ys))
    parts = _header(title)
    parts.append(_frame_rect())
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" '
            f'r="3" fill="{color}"/>'
        )
    if label:
        parts.append(
            f'<rect x="{WIDTH - MARGIN - 150}" y="{MARGIN + 8}" width="12" height="3" '
            f'fill="{color}"/>'
        )
        parts.append(_tick_text(WIDTH - MARGIN - 132, MARGIN + 14, label, "start"))
    for value, place in ((xs.min(), "start"), (xs.max(), "end")):
        parts.append(
            _tick_text(frame.x(value), HEIGHT - MARGIN + 18, _axis_label(value), place)
        )
    for value in (ys.min(), ys.max()):
        parts.append(_tick_text(MARGIN - 6, frame.y(value) + 4, _axis_label(value), "end"))
    if xlabel:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT // 2})">{escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")

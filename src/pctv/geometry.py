"""Domains, bounded densities and point cloud sampling.

A domain is an open subset of R^d of one of two classes: a BoxUnion, a
connected union of axis aligned boxes (a box is a union of one box, the
dumbbell one of three), or a ConvexPolygon (d = 2 only).  Membership
tests use the closure; the boundary has measure zero so sampling is
unaffected.  Each domain carries a quadrature rule on its own pieces,
exact for quadratic polynomials: the 2-point Gauss-Legendre rule per axis
on each box cell, and the edge-midpoint rule on each triangle of a
polygon.

Densities are affine, (1 + slope * x_axis) / z, with a declared upper
bound rho <= upper; the uniform density is the one of slope 0.
Sampling draws i.i.d. points by rejection from the bounding box with
that bound as envelope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import EnvelopeError

# The 2-point Gauss-Legendre nodes on [0, 1]; each has weight 1/2.
_GAUSS = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
MAX_GRID_POINTS = 256 ** 3  # the most nodes a quadrature rule may hold
MIN_ACCEPTANCE = 1e-4  # sample_iid gives up below this acceptance rate


def _as_points(points) -> np.ndarray:
    """points as a float (n, d) array; any other shape is refused."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {points.shape}")
    return points


class BoxUnion:
    """Union of axis aligned boxes forming a connected open set.

    boxes lists (lo, hi) corner pairs; one pair is a plain box.  Two
    boxes count as adjacent when their closures meet in a face of
    positive area (at most one axis may be degenerate in the contact).
    The union must be connected under this adjacency.  Volume is exact,
    computed on the coordinate-compressed cell grid, so overlapping
    boxes are handled correctly.

    ``quadrature`` and ``section`` return (points, weights) of rules that
    integrate every quadratic polynomial exactly, over the domain and over
    its open cross-section, the points of D with x_axis = t; the polygon's
    rules do the same.
    """

    def __init__(self, boxes: Sequence[Tuple]):
        if not boxes:
            raise ValueError("box union needs at least one box")
        self.boxes = [_box(lo, hi) for lo, hi in boxes]
        d = self.boxes[0][0].size
        if any(lo.size != d for lo, _ in self.boxes):
            raise ValueError("all boxes must share one dimension")
        self.dimension = d
        self._check_connected()
        self.cells = self._covered_cells()

    def _check_connected(self):
        lo, hi = (np.array(corner) for corner in zip(*self.boxes))
        # gap[i, j, axis]: extent of the closures' intersection per axis
        gap = np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None])
        contact = np.all(gap >= 0, axis=2) & (np.sum(gap == 0, axis=2) <= 1)
        if connected_components(contact, directed=False)[0] > 1:
            raise ValueError("box union is not connected through shared faces")

    def _covered_cells(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The covered cells of the coordinate-compressed grid, in C order.

        Refused when the grid could hold more than MAX_GRID_POINTS Gauss
        nodes, 2^d for each cell, before any of it is built.
        """
        axes = [np.asarray(sorted({float(c[ax]) for box in self.boxes for c in box}))
                for ax in range(self.dimension)]
        shape = [len(a) - 1 for a in axes]
        cells = float(np.prod(shape, dtype=float))
        if not cells * 2.0 ** self.dimension <= MAX_GRID_POINTS:
            raise ValueError(f"box union's grid of {cells:.3g} cells could hold more "
                             f"than {MAX_GRID_POINTS} quadrature nodes")
        covered = np.zeros(shape, dtype=bool)
        for box in self.boxes:  # box corners are grid coordinates
            covered[tuple(slice(np.searchsorted(a, lo), np.searchsorted(a, hi))
                          for a, lo, hi in zip(axes, *box))] = True
        idx = np.argwhere(covered)
        lo = np.stack([a[i] for a, i in zip(axes, idx.T)], axis=1)
        hi = np.stack([a[i + 1] for a, i in zip(axes, idx.T)], axis=1)
        return list(zip(lo, hi))

    def volume(self) -> float:
        return float(sum(np.prod(hi - lo) for lo, hi in self.cells))

    def contains(self, points) -> np.ndarray:
        points = _as_points(points)
        inside = np.zeros(points.shape[0], dtype=bool)
        for lo, hi in self.boxes:
            inside |= np.all((points >= lo) & (points <= hi), axis=1)
        return inside

    def bounding_box(self):
        lo, hi = zip(*self.boxes)
        return np.min(lo, axis=0), np.max(hi, axis=0)

    def quadrature(self):
        return _gauss_cells(*zip(*self.cells))

    def section(self, axis: int, t: float):
        return _cell_section(*zip(*self.cells), axis, t)


def _box(lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """The corners of one box as float arrays, checked."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be 1-d arrays of equal length")
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent in every axis")
    if not np.prod(hi - lo) > 0.0:
        raise ValueError("box volume underflows to zero")
    return lo, hi


def Box(lo, hi) -> BoxUnion:
    """The axis aligned box [lo, hi]: a union of one box."""
    return BoxUnion([(lo, hi)])


def unit_box(dimension: int = 2) -> BoxUnion:
    return Box(np.zeros(int(dimension)), np.ones(int(dimension)))


def _gauss_cells(lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """The tensor 2-point Gauss-Legendre rule on each box [lo_i, hi_i].

    The rule is exact for polynomials of degree at most 3 in each
    coordinate.  A box with no axes is one point of weight 1.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    m, k = lo.shape
    nodes = np.array(list(itertools.product(_GAUSS, repeat=k)), dtype=float)
    points = lo[:, None, :] + (hi - lo)[:, None, :] * nodes[None, :, :]
    weights = np.prod(hi - lo, axis=1) / 2 ** k
    return points.reshape(m * 2 ** k, k), np.repeat(weights, 2 ** k)


def _cell_section(lo, hi, axis: int, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss rule on the open cross-section {x_axis = t} of a union of cells.

    A cell the plane cuts strictly contributes its slice.  A face in the
    plane counts only when covered cells lie on both sides of it, so the
    boundary of the union contributes nothing.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    rest = [ax for ax in range(lo.shape[1]) if ax != axis]
    faces = [(tuple(a), tuple(b)) for a, b in zip(lo[:, rest], hi[:, rest])]
    below = {face for face, top in zip(faces, hi[:, axis] == t) if top}
    keep = [(a < t < b) or (a == t and face in below)
            for face, a, b in zip(faces, lo[:, axis], hi[:, axis])]
    points, weights = _gauss_cells(lo[keep][:, rest], hi[keep][:, rest])
    return np.insert(points, axis, t, axis=1), weights


class ConvexPolygon:
    """Convex polygon domain in the plane, vertices stored counterclockwise.

    The convexity and membership tests compare cross products, which
    scale as length^2, so their tolerance is 1e-12 times the squared
    largest side of the bounding box.
    """

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("need at least 3 planar vertices")
        area2 = _shoelace(verts)
        if area2 < 0:
            verts = verts[::-1]
            area2 = -area2
        if area2 <= 0:
            raise ValueError("polygon has no area")
        self._tolerance = 1e-12 * float(np.max(np.ptp(verts, axis=0))) ** 2
        edges = np.roll(verts, -1, axis=0) - verts
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
            - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        if np.any(cross < -self._tolerance):
            raise ValueError("polygon is not convex")
        self.vertices = verts
        self.dimension = 2

    def volume(self) -> float:
        return 0.5 * _shoelace(self.vertices)

    def contains(self, points) -> np.ndarray:
        points = _as_points(points)
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        inside = np.ones(points.shape[0], dtype=bool)
        for k in range(a.shape[0]):
            ex, ey = b[k] - a[k]
            cross = ex * (points[:, 1] - a[k, 1]) - ey * (points[:, 0] - a[k, 0])
            inside &= cross >= -self._tolerance
        return inside

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def quadrature(self):
        """The edge-midpoint rule on the triangles fanned out from vertex 0."""
        a = self.vertices[0]
        b, c = self.vertices[1:-1], self.vertices[2:]
        e, f = b - a, c - a
        area = 0.5 * (e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0])
        points = np.concatenate([0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)])
        return points, np.tile(area / 3.0, 3)

    def section(self, axis: int, t: float):
        """The Gauss rule on the chord {x_axis = t}, empty unless the line cuts the interior."""
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        chord = np.empty((0, 1)), np.empty((0, 1))  # the line misses the interior
        if a[:, axis].min() < t < a[:, axis].max():
            with np.errstate(divide="ignore", invalid="ignore"):  # edges parallel to the chord
                s = (t - a[:, axis]) / (b[:, axis] - a[:, axis])
            hit = (s >= 0.0) & (s <= 1.0)
            ends = a[hit, 1 - axis] + s[hit] * (b - a)[hit, 1 - axis]
            chord = [[ends.min()]], [[ends.max()]]
        points, weights = _gauss_cells(*chord)
        return np.insert(points, axis, t, axis=1), weights


def _shoelace(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


Domain = Union[BoxUnion, ConvexPolygon]


def fills_bounding_box(domain: Domain) -> bool:
    """Whether the domain is its bounding box: their volumes agree to 1e-12.

    This asks the shape, not how it was written: a box, and a union of
    boxes that tiles its bounding box, both fill it.
    """
    lo, hi = domain.bounding_box()
    box = float(np.prod(hi - lo))
    return abs(domain.volume() - box) <= 1e-12 * box


def dumbbell(width: float = 0.25, length: float = 0.5) -> BoxUnion:
    """Two unit squares joined by a neck of the given width and length.

    The neck is centered vertically; the left square occupies [0,1]^2 and
    the right square starts where the neck ends.
    """
    if not 0 < width <= 1:
        raise ValueError("neck width must lie in (0, 1]")
    if length <= 0:
        raise ValueError("neck length must be positive")
    half = 0.5 * width
    return BoxUnion([
        ([0.0, 0.0], [1.0, 1.0]),
        ([1.0, 0.5 - half], [1.0 + length, 0.5 + half]),
        ([1.0 + length, 0.0], [2.0 + length, 1.0]),
    ])


@dataclass(frozen=True)
class Density:
    """The density (1 + slope * x_axis) / z on a domain, with the declared
    bound rho <= upper that sampling relies on."""

    axis: int
    slope: float
    z: float
    upper: float

    def __post_init__(self):
        if not self.upper > 0:
            raise ValueError("need a positive upper bound")

    def __call__(self, points) -> np.ndarray:
        points = _as_points(points)
        return (1.0 + self.slope * points[:, self.axis]) / self.z


def uniform_density(domain: Domain, /) -> Density:
    """The constant 1 / volume: the affine density of slope 0."""
    return affine_density(domain, 0, 0.0)


def affine_density(domain: Domain, /, axis: int = 0, slope: float = 1.0) -> Density:
    """Normalized density proportional to 1 + slope * x_axis.

    The normalizing constant is exact: it is volume + slope times the
    integral of x_axis, which the domain's quadrature rule integrates
    exactly.
    """
    points, weights = domain.quadrature()
    z = domain.volume() + slope * float(weights @ points[:, axis])
    lo, hi = domain.bounding_box()
    ends = np.array([1.0 + slope * lo[axis], 1.0 + slope * hi[axis]]) / z
    if np.min(ends) <= 0:
        raise ValueError("density is not positive on the domain")
    return Density(axis, slope, z, float(np.max(ends)))


@dataclass(frozen=True)
class PointCloud:
    """n sample points in R^d with mass 1/n each."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


def acceptance_rate(domain: Domain, density: Density) -> float:
    """sample_iid's acceptance rate for a density normalized on the domain.

    A proposal is uniform on the bounding box and kept with probability
    rho / upper, so the rate is 1 / (upper * bounding-box volume).
    """
    lo, hi = domain.bounding_box()
    return 1.0 / (density.upper * float(np.prod(hi - lo)))


def sample_iid(domain: Domain, density: Density, n: int,
               seed: Optional[int] = None) -> PointCloud:
    """Draw n i.i.d. points from the density by rejection sampling.

    Proposals are uniform on the bounding box and accepted with
    probability rho(x) / upper.  Aborts with EnvelopeError when the
    envelope is violated or the estimated acceptance rate falls below
    MIN_ACCEPTANCE after a warmup of 50000 proposals.
    """
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    d = domain.dimension
    chunk = max(4096, 2 * n)
    accepted: List[np.ndarray] = []
    got = 0
    proposed = 0
    while got < n:
        pts = lo + (hi - lo) * rng.random((chunk, d))
        u = rng.random(chunk)
        inside = domain.contains(pts)
        values = np.zeros(chunk)
        values[inside] = density(pts[inside])
        if np.any(values > density.upper * (1.0 + 1e-9)):
            raise EnvelopeError("density exceeds its declared upper bound")
        keep = inside & (u * density.upper < values)
        accepted.append(pts[keep])
        got += int(np.count_nonzero(keep))
        proposed += chunk
        if proposed >= 50000 and got < MIN_ACCEPTANCE * proposed:
            raise EnvelopeError(
                f"acceptance rate {got / proposed:.2e} below {MIN_ACCEPTANCE:g}; "
                "tighten the envelope or the bounding box")
    points = np.concatenate(accepted, axis=0)[:n]
    return PointCloud(points=points)


def grid_points(k: int, d: int) -> np.ndarray:
    """Regular k^d grid on the unit cube with points at cell centers.

    Coordinates are odd multiples of 1/(2k); order is lexicographic in
    the index vector.
    """
    if k < 1:
        raise ValueError("k must be positive")
    axis = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# The builder of each config name; a spec's other keys are its arguments.
SHAPES = {
    "unit-box": unit_box,
    "box": Box,
    "dumbbell": dumbbell,
    "box-union": lambda boxes: BoxUnion([(b["lo"], b["hi"]) for b in boxes]),
    "polygon": ConvexPolygon,
}
DENSITIES = {"uniform": uniform_density, "affine": affine_density}

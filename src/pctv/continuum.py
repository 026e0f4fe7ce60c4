"""Weighted total variation, perimeter and nonlocal total variation.

Continuum counterparts of the graph quantities: for a density rho on a
domain D the relevant functionals are

    TV(u; rho^2)   = integral over D of |grad u| * rho^2     (smooth u)
    Per(E; rho^2)  = integral over boundary of E inside D of rho^2
    TV_eps(u; rho) = (1/eps) * double integral of
                     eta_eps(x - y) |u(x) - u(y)| rho(x) rho(y)

As eps -> 0, TV_eps(u; rho) converges to sigma * TV(u; rho^2) with
sigma the surface tension of the kernel profile; boundary cells of D
see less than a full kernel ball, so at finite eps the value sits a
little below the limit for smooth u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import kernels
from .errors import UnsupportedConfigurationError
from .geometry import Box, BoxUnion, ConvexPolygon, Density, Domain

RESOLUTION = 256  # weighted_tv_smooth's midpoints per axis
SUBCELLS = 8  # kernel subgrid points per axis in each nonlocal lattice cell
MAX_GRID_POINTS = RESOLUTION ** 3  # the weighted TV grid of a 3-d box


@dataclass(frozen=True)
class SmoothFunction:
    """Function on R^d with an analytic gradient, both vectorized."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __call__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.value(points), dtype=float)

    def grad(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.gradient(points), dtype=float)


def affine_function(coeffs, offset: float = 0.0) -> SmoothFunction:
    coeffs = np.asarray(coeffs, dtype=float)

    def value(p):
        return p @ coeffs + offset

    def gradient(p):
        return np.broadcast_to(coeffs, p.shape).copy()

    return SmoothFunction(value=value, gradient=gradient,
                          name=f"affine({coeffs.tolist()},{offset:g})")


def halfplane_set(domain: Domain, axis: int = 0, threshold: float = 0.5) -> ConvexPolygon:
    """The part of the plane with x_axis below the threshold, as a ConvexPolygon.

    The polygon extends one unit past the domain's bounding box on the
    other sides, so only the threshold line meets the domain interior.
    """
    if domain.dimension != 2:
        raise UnsupportedConfigurationError("polygonal sets are planar only")
    lo, hi = domain.bounding_box()
    lo = lo - 1.0
    hi = hi + 1.0
    if axis == 0:
        verts = [[lo[0], lo[1]], [threshold, lo[1]], [threshold, hi[1]], [lo[0], hi[1]]]
    elif axis == 1:
        verts = [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], threshold], [lo[0], threshold]]
    else:
        raise ValueError("axis must be 0 or 1")
    return ConvexPolygon(verts)


def disk_set(center, radius: float, segments: int = 720) -> ConvexPolygon:
    """Inscribed regular polygon approximation of a disk, as a ConvexPolygon."""
    center = np.asarray(center, dtype=float)
    theta = 2.0 * math.pi * np.arange(segments) / segments
    verts = center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return ConvexPolygon(verts)


def check_grid_sizes(domain: Domain, profile: Optional[kernels.KernelProfile] = None,
                     eps: Optional[float] = None, cells_per_eps: int = 8) -> None:
    """Refuse a quadrature grid of more than MAX_GRID_POINTS points.

    Without eps the grid is the one weighted_tv_smooth builds, RESOLUTION^d
    midpoints.  With eps it is nonlocal_tv's finest lattice, and its
    kernel subgrid of SUBCELLS^d points for each lattice offset.
    """
    d = domain.dimension
    if eps is None:
        sizes = {"weighted TV grid": float(RESOLUTION) ** d}
    else:
        with np.errstate(all="ignore"):  # sizes far past the limit overflow to inf
            cells, _, steps = _lattice(domain, profile, eps, cells_per_eps)
            offsets = (float(np.prod(2.0 * steps + 1.0)) - 1.0) / 2.0
            sizes = {"nonlocal lattice": float(np.prod(cells)),
                     "kernel subgrid": offsets * float(SUBCELLS) ** d}
    for name, size in sizes.items():
        if not size <= MAX_GRID_POINTS:
            raise UnsupportedConfigurationError(
                f"the {name} would hold {size:.3g} points, more than the "
                f"{MAX_GRID_POINTS} a quadrature may build")


def weighted_tv_smooth(u: SmoothFunction, density: Density, domain: Domain) -> float:
    """TV(u; rho^2) by the midpoint rule on RESOLUTION cells per axis.

    The cells tile the domain's bounding box; those whose center lies in
    the domain count.
    """
    check_grid_sizes(domain)
    lo, hi = domain.bounding_box()
    # Sums run over fixed blocks of the midpoints in the domain, in grid
    # order, so the value's bits do not depend on how the grid is built.
    chunk = 1 << 18
    total = 0.0
    held, count = [], 0
    for slab in _midpoints_in(domain, lo, hi):
        held.append(slab)
        count += slab.shape[0]
        while count >= chunk:
            pts = np.concatenate(held)
            total += _tv_block(u, density, pts[:chunk])
            held, count = [pts[chunk:]], count - chunk
    if count:
        total += _tv_block(u, density, np.concatenate(held))
    return total * float(np.prod((hi - lo) / RESOLUTION))


def _midpoints_in(domain: Domain, lo: np.ndarray, hi: np.ndarray):
    """The grid's cell midpoints inside the domain, one slab of the first axis at a time."""
    d = domain.dimension
    axes = [lo[ax] + (hi[ax] - lo[ax]) * (np.arange(RESOLUTION) + 0.5) / RESOLUTION
            for ax in range(d)]
    slab = RESOLUTION ** (d - 1)
    for start in range(0, RESOLUTION ** d, slab):
        index = np.unravel_index(np.arange(start, start + slab), (RESOLUTION,) * d)
        pts = np.stack([axes[ax][index[ax]] for ax in range(d)], axis=1)
        yield pts[domain.contains(pts)]


def _tv_block(u: SmoothFunction, density: Density, pts: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(u.grad(pts), axis=1) * density(pts) ** 2))


def _strictly_inside(domain: Domain, points: np.ndarray, delta: float = 1e-9) -> np.ndarray:
    """Interior test with a small margin; ball-sampled for box unions."""
    points = np.atleast_2d(points)
    if isinstance(domain, Box):
        return np.all((points > domain.lo + delta) & (points < domain.hi - delta),
                      axis=1)
    if isinstance(domain, ConvexPolygon):
        a = domain.vertices
        b = np.roll(a, -1, axis=0)
        inside = np.ones(points.shape[0], dtype=bool)
        for k in range(a.shape[0]):
            e = b[k] - a[k]
            nrm = float(np.hypot(e[0], e[1]))
            cross = e[0] * (points[:, 1] - a[k, 1]) - e[1] * (points[:, 0] - a[k, 0])
            inside &= cross / nrm > delta
        return inside
    d = points.shape[1]
    offsets = np.stack(np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * d),
                                   indexing="ij"), axis=-1).reshape(-1, d)
    offsets = offsets[np.any(offsets != 0.0, axis=1)]
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    inside = domain.contains(points)
    for o in offsets:
        inside &= domain.contains(points + delta * o)
    return inside


def _clip_params(domain: Domain, a: np.ndarray, b: np.ndarray):
    """Parameter values where the segment a->b crosses domain faces."""
    cuts = {0.0, 1.0}
    boxes = domain.boxes if isinstance(domain, BoxUnion) else None
    if isinstance(domain, Box):
        boxes = [domain]
    if boxes is not None:
        diff = b - a
        for box in boxes:
            for ax in range(a.size):
                if diff[ax] == 0.0:
                    continue
                for bound in (box.lo[ax], box.hi[ax]):
                    t = (bound - a[ax]) / diff[ax]
                    if 0.0 < t < 1.0:
                        cuts.add(float(t))
    elif isinstance(domain, ConvexPolygon):
        va = domain.vertices
        vb = np.roll(va, -1, axis=0)
        diff = b - a
        for k in range(va.shape[0]):
            e = vb[k] - va[k]
            denom = e[0] * diff[1] - e[1] * diff[0]
            if denom == 0.0:
                continue
            t = (e[0] * (va[k, 1] - a[1]) - e[1] * (va[k, 0] - a[0])) / denom
            if 0.0 < t < 1.0:
                cuts.add(float(t))
    else:
        raise UnsupportedConfigurationError(
            f"cannot clip segments against {type(domain).__name__}")
    return sorted(cuts)


def weighted_perimeter(set_e: ConvexPolygon, density: Density, domain: Domain,
                       order: int = 16) -> float:
    """Per(E; rho^2): the density squared integrated over bd(E) inside D.

    The boundary of E is walked edge by edge, vertex k to vertex k + 1;
    each edge is split at every domain face crossing, and atomic pieces
    whose midpoint is strictly interior are integrated with
    Gauss-Legendre quadrature of the given order.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(set_e.vertices, np.roll(set_e.vertices, -1, axis=0)):
        cuts = _clip_params(domain, a, b)
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            mid = a + 0.5 * (t0 + t1) * (b - a)
            if not _strictly_inside(domain, mid[None, :])[0]:
                continue
            length = (t1 - t0) * float(np.linalg.norm(b - a))
            ts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            total += 0.5 * length * float(np.sum(weights * density(pts) ** 2))
    return total


def _lattice(domain: Domain, profile: kernels.KernelProfile, eps: float,
             cells_per_eps: int):
    """The nonlocal midpoint lattice: cells and offset steps per axis, cell sizes.

    Cells are cells_per_eps across the kernel radius eps * support.
    Offsets reach one cell past the radius on each axis, but stop at the
    lattice's last cell: a longer step pairs no cells.  Counts are
    floats, so a lattice far past the grid limit is measured without
    overflowing.
    """
    lo, hi = domain.bounding_box()
    radius = eps * kernels.effective_support(profile, domain.dimension)
    cells = np.maximum(2.0, np.rint((hi - lo) / (radius / cells_per_eps)))
    h = (hi - lo) / cells
    return cells, h, np.minimum(np.floor(radius / h) + 1.0, cells - 1.0)


def _cell_mean_kernel(offsets: np.ndarray, h: np.ndarray,
                      profile: kernels.KernelProfile, eps: float) -> np.ndarray:
    """Kernel averaged over each offset's cell by a midpoint subgrid.

    Point evaluation at cell centers misclassifies every cell cut by the
    support sphere, which biases the offset sum at O(h); averaging over
    a SUBCELLS^d grid per cell shrinks that to O(h / SUBCELLS).
    """
    d = offsets.shape[1]
    steps = (np.arange(SUBCELLS) + 0.5) / SUBCELLS - 0.5
    subgrid = np.stack(np.meshgrid(*([steps] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    z = (offsets[:, None, :] + subgrid[None, :, :]) * h
    dist = np.linalg.norm(z, axis=2)
    kv = kernels.scaled_from_distance(profile, eps, dist, d)
    return kv.mean(axis=1)


def _nonlocal_quadrature(u: SmoothFunction, density: Density, domain: Domain,
                         profile: kernels.KernelProfile, eps: float,
                         cells_per_eps: int) -> float:
    """Offset sum for the double integral on a tensor midpoint lattice.

    For a fixed lattice offset o the kernel factor is shared by every
    cell pair, so the double integral collapses to shifted array
    products.  Offsets come in +-pairs; only positive encodings are
    walked and doubled.  The kernel factor is the cell average of
    eta_eps, so cells straddling the support sphere enter with their
    overlap fraction.
    """
    cells, h, steps = _lattice(domain, profile, eps, cells_per_eps)
    d = domain.dimension
    shape = tuple(int(c) for c in cells)
    lo = domain.bounding_box()[0]
    axes = [lo[ax] + h[ax] * (np.arange(shape[ax]) + 0.5) for ax in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    rho_masked = np.where(domain.contains(pts), density(pts), 0.0).reshape(shape)
    vals = u(pts).reshape(shape)

    ranges = [np.arange(-m, m + 1) for m in steps.astype(int)]
    offsets = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    nonzero = np.any(offsets != 0, axis=1)
    first = np.argmax(offsets != 0, axis=1)
    sign = offsets[np.arange(offsets.shape[0]), first] > 0
    offsets = offsets[nonzero & sign]
    kvals = _cell_mean_kernel(offsets, h, profile, eps)
    total = 0.0
    for o, kv in zip(offsets, kvals):
        if kv <= 0.0:
            continue
        src = tuple(slice(max(0, -s), shape[ax] - max(0, s)) for ax, s in enumerate(o))
        dst = tuple(slice(max(0, s), shape[ax] - max(0, -s)) for ax, s in enumerate(o))
        contrib = np.sum(rho_masked[src] * rho_masked[dst]
                         * np.abs(vals[src] - vals[dst]))
        total += 2.0 * kv * float(contrib)
    cell = float(np.prod(h))
    return total * cell * cell / eps


def nonlocal_tv(u: SmoothFunction, density: Density, domain: Domain,
                profile: kernels.KernelProfile, eps: float,
                cells_per_eps: int = 8) -> Tuple[float, float]:
    """TV_eps(u; rho) by tensor midpoint quadrature.

    Returns (value, error_estimate).  The lattice has cells_per_eps cells
    across the kernel radius; the error estimate is a Richardson
    comparison against half that resolution.
    """
    check_grid_sizes(domain, profile, eps, cells_per_eps)
    fine = _nonlocal_quadrature(u, density, domain, profile, eps, cells_per_eps)
    coarse = _nonlocal_quadrature(u, density, domain, profile, eps,
                                  max(2, cells_per_eps // 2))
    return fine, abs(fine - coarse) / 3.0

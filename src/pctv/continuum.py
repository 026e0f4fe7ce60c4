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
from .geometry import (Box, BoxUnion, ConvexPolygon, Density, Domain,
                       sample_iid)


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


def _quadrature_grid(domain: Domain, resolution: int):
    lo, hi = domain.bounding_box()
    d = domain.dimension
    axes = [lo[ax] + (hi[ax] - lo[ax]) * (np.arange(resolution) + 0.5) / resolution
            for ax in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    cell = float(np.prod((hi - lo) / resolution))
    return pts[domain.contains(pts)], cell


def _tv_midpoint(u: SmoothFunction, density: Density, domain: Domain,
                 resolution: int) -> float:
    pts, cell = _quadrature_grid(domain, resolution)
    total = 0.0
    chunk = 1 << 18
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        grad_norm = np.linalg.norm(u.grad(block), axis=1)
        total += float(np.sum(grad_norm * density(block) ** 2))
    return total * cell


def weighted_tv_smooth(u: SmoothFunction, density: Density, domain: Domain,
                       resolution: int = 256) -> Tuple[float, float]:
    """TV(u; rho^2) by midpoint quadrature, with a Richardson error bound.

    Returns (value, error_estimate); the estimate compares the requested
    resolution with half of it, scaled for the midpoint rule's h^2 rate.
    """
    fine = _tv_midpoint(u, density, domain, resolution)
    coarse = _tv_midpoint(u, density, domain, max(2, resolution // 2))
    return fine, abs(fine - coarse) / 3.0


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


def _cell_mean_kernel(offsets: np.ndarray, h: np.ndarray,
                      profile: kernels.KernelProfile, eps: float,
                      sub: int = 8) -> np.ndarray:
    """Kernel averaged over each offset's cell by a midpoint subgrid.

    Point evaluation at cell centers misclassifies every cell cut by the
    support sphere, which biases the offset sum at O(h); averaging over
    a sub x sub grid per cell shrinks that to O(h / sub).
    """
    d = offsets.shape[1]
    steps = (np.arange(sub) + 0.5) / sub - 0.5
    subgrid = np.stack(np.meshgrid(*([steps] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    z = (offsets[:, None, :] + subgrid[None, :, :]) * h
    dist = np.linalg.norm(z, axis=2)
    kv = kernels.scaled_from_distance(profile, eps, dist, d)
    return kv.mean(axis=1)


def _nonlocal_lattice(values: np.ndarray, weights: np.ndarray, mask: np.ndarray,
                      h: np.ndarray, profile: kernels.KernelProfile,
                      eps: float, support: float) -> float:
    """Offset sum for the double integral on a tensor midpoint grid.

    For a fixed lattice offset o the kernel factor is shared by every
    cell pair, so the double integral collapses to shifted array
    products.  Offsets come in +-pairs; only positive encodings are
    walked and doubled.  The kernel factor is the cell average of
    eta_eps, so cells straddling the support sphere enter with their
    overlap fraction.
    """
    d = values.ndim
    radius = eps * support
    max_steps = [int(math.floor(radius / h[ax])) + 1 for ax in range(d)]
    ranges = [np.arange(-m, m + 1) for m in max_steps]
    offsets = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    nonzero = np.any(offsets != 0, axis=1)
    first = np.argmax(offsets != 0, axis=1)
    sign = offsets[np.arange(offsets.shape[0]), first] > 0
    offsets = offsets[nonzero & sign]
    kvals = _cell_mean_kernel(offsets, h, profile, eps)
    total = 0.0
    rho_masked = np.where(mask, weights, 0.0)
    vals = values
    for o, kv in zip(offsets, kvals):
        if kv <= 0.0:
            continue
        src = tuple(slice(max(0, -s), vals.shape[ax] - max(0, s))
                    for ax, s in enumerate(o))
        dst = tuple(slice(max(0, s), vals.shape[ax] - max(0, -s))
                    for ax, s in enumerate(o))
        contrib = np.sum(rho_masked[src] * rho_masked[dst]
                         * np.abs(vals[src] - vals[dst]))
        total += 2.0 * kv * float(contrib)
    cell = float(np.prod(h))
    return total * cell * cell / eps


def _nonlocal_quadrature(u: SmoothFunction, density: Density, domain: Domain,
                         profile: kernels.KernelProfile, eps: float,
                         cells_per_eps: int) -> float:
    lo, hi = domain.bounding_box()
    d = domain.dimension
    support = kernels.effective_support(profile, d)
    target = eps * support / cells_per_eps
    shape = tuple(max(2, int(round((hi[ax] - lo[ax]) / target)))
                  for ax in range(d))
    h = np.array([(hi[ax] - lo[ax]) / shape[ax] for ax in range(d)])
    axes = [lo[ax] + h[ax] * (np.arange(shape[ax]) + 0.5) for ax in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    mask = domain.contains(pts).reshape(shape)
    values = u(pts).reshape(shape)
    weights = density(pts).reshape(shape)
    return _nonlocal_lattice(values, weights, mask, h, profile, eps, support)


def nonlocal_tv(u: SmoothFunction, density: Density, domain: Domain,
                profile: kernels.KernelProfile, eps: float,
                method: str = "quadrature", cells_per_eps: int = 8,
                samples: int = 200000, seed: Optional[int] = None) -> Tuple[float, float]:
    """TV_eps(u; rho) by tensor quadrature or Monte Carlo sampling.

    Returns (value, error_estimate).  quadrature: midpoint rule on a
    grid with cells_per_eps cells across the kernel radius; the error
    estimate is a Richardson comparison against half the resolution.
    monte-carlo: mean over `samples` pairs drawn i.i.d. from the density
    (which must be normalized); the error estimate is the standard error
    of that mean.
    """
    if method == "quadrature":
        fine = _nonlocal_quadrature(u, density, domain, profile, eps, cells_per_eps)
        coarse = _nonlocal_quadrature(u, density, domain, profile, eps,
                                      max(2, cells_per_eps // 2))
        return fine, abs(fine - coarse) / 3.0
    if method == "monte-carlo":
        if not density.normalized:
            raise UnsupportedConfigurationError(
                "monte-carlo estimation needs a normalized density")
        seeds = np.random.SeedSequence(seed).spawn(2)
        x = sample_iid(domain, density, samples, seed=seeds[0]).points
        y = sample_iid(domain, density, samples, seed=seeds[1]).points
        kv = kernels.scaled_from_distance(profile, eps, np.linalg.norm(x - y, axis=1),
                                          domain.dimension)
        terms = kv * np.abs(u(x) - u(y)) / eps
        return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(samples))
    raise ValueError("method must be 'quadrature' or 'monte-carlo'")

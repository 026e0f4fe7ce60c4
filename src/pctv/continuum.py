"""Weighted total variation, perimeter and nonlocal total variation.

Continuum counterparts of the graph quantities: for a density rho on a
domain D the relevant functionals are

    TV(u; rho^2)   = integral over D of |grad u| * rho^2     (smooth u)
    Per(E; rho^2)  = integral over boundary of E inside D of rho^2
    TV_eps(u; rho) = (1/eps) * double integral of
                     eta_eps(x - y) |u(x) - u(y)| rho(x) rho(y)

The first two are sums over the domain's own quadrature nodes, and E
is a half-space {x_axis < t}, so its boundary in D is a cross-section
of D.  Configs allow only affine u and affine rho, so |grad u| rho^2
and rho^2 are quadratics on every box cell, triangle and section, and
both rules give them exactly.  TV_eps is a tensor midpoint quadrature.

As eps -> 0, TV_eps(u; rho) converges to sigma * TV(u; rho^2) with
sigma the surface tension of the kernel profile; boundary cells of D
see less than a full kernel ball, so at finite eps the value sits a
little below the limit for smooth u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import kernels
from .errors import UnsupportedConfigurationError
from .geometry import MAX_GRID_POINTS, Density, Domain

SUBCELLS = 8  # kernel subgrid points per axis in each nonlocal lattice cell
CELLS_PER_EPS = 8  # nonlocal lattice cells across the kernel radius


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


def check_grid_sizes(domain: Domain, profile: kernels.KernelProfile, eps: float) -> None:
    """Refuse a nonlocal quadrature of more than MAX_GRID_POINTS points.

    The sizes are those of nonlocal_tv's finest lattice, and of its kernel
    subgrid of SUBCELLS^d points for each lattice offset.
    """
    with np.errstate(all="ignore"):  # sizes far past the limit overflow to inf
        cells, _, steps = _lattice(domain, profile, eps, CELLS_PER_EPS)
        offsets = (float(np.prod(2.0 * steps + 1.0)) - 1.0) / 2.0
        sizes = {"nonlocal lattice": float(np.prod(cells)),
                 "kernel subgrid": offsets * float(SUBCELLS) ** domain.dimension}
    for name, size in sizes.items():
        if not size <= MAX_GRID_POINTS:
            raise UnsupportedConfigurationError(
                f"the {name} would hold {size:.3g} points, more than the "
                f"{MAX_GRID_POINTS} a quadrature may build")


def weighted_tv_smooth(u: SmoothFunction, density: Density, domain: Domain) -> float:
    """TV(u; rho^2) by the domain's quadrature rule.

    The rule is exact for quadratics, so the value is exact for affine u
    and affine rho: |grad u| rho^2 is then a quadratic on every piece.
    """
    points, weights = domain.quadrature()
    return float(np.sum(weights * np.linalg.norm(u.grad(points), axis=1)
                        * density(points) ** 2))


def weighted_perimeter(density: Density, domain: Domain, axis: int,
                       threshold: float) -> float:
    """Per(E; rho^2) of the half-space E = {x_axis < threshold}.

    The boundary of E inside D is D's open cross-section at the
    threshold, integrated by the domain's section rule: exact for affine
    rho, and 0 where the plane misses D's interior.
    """
    points, weights = domain.section(axis, threshold)
    return float(np.sum(weights * density(points) ** 2))


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
                profile: kernels.KernelProfile, eps: float) -> Tuple[float, float]:
    """TV_eps(u; rho) by tensor midpoint quadrature.

    Returns (value, error_estimate).  The lattice has CELLS_PER_EPS cells
    across the kernel radius; the error estimate is a Richardson
    comparison against half that resolution.
    """
    check_grid_sizes(domain, profile, eps)
    fine = _nonlocal_quadrature(u, density, domain, profile, eps, CELLS_PER_EPS)
    coarse = _nonlocal_quadrature(u, density, domain, profile, eps, CELLS_PER_EPS // 2)
    return fine, abs(fine - coarse) / 3.0

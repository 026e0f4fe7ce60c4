"""Radial kernel profiles and their surface tension constants.

A kernel profile is a one dimensional function eta: [0, inf) -> [0, inf).
The induced interaction kernel on R^d is eta(|z|), and its rescaling at
length scale eps is

    eta_eps(z) = eps^(-d) * eta(|z| / eps).

Admissible profiles satisfy

    (K1) eta(0) > 0 and eta is continuous at 0,
    (K2) eta is non-increasing,
    (K3) the moment integral of eta(r) * r^d over [0, inf) is finite.

The surface tension of an admissible profile in dimension d is

    sigma = integral over R^d of eta(|h|) * |h_1| dh
          = c_d * integral of eta(r) * r^d dr,

where c_d is the mean of |omega_1| over the unit sphere S^(d-1) times its
area: c_d = 2 pi^((d-1)/2) / Gamma((d+1)/2), so c_2 = 4 and c_3 = 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import DivergentKernelError, InvalidProfileError

TRUNCATION_THRESHOLD = 1e-12
MONOTONICITY_SLACK = 1e-12
QUADRATURE_REL_TOL = 1e-8


@dataclass(frozen=True)
class KernelProfile:
    """Radial profile eta with its support radius and jump locations.

    fn must accept numpy arrays of radii and evaluate elementwise.
    support_radius is math.inf for profiles with unbounded support.
    breakpoints lists radii where fn jumps; quadrature splits there.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: float = math.inf
    breakpoints: Tuple[float, ...] = ()

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class ProfileReport:
    """Outcome of the admissibility checks for a profile."""

    positive_at_zero: bool
    continuous_at_zero: bool
    non_increasing: bool
    finite_moment: bool
    moment_value: float
    details: dict = field(default_factory=dict)

    @property
    def admissible(self) -> bool:
        return (
            self.positive_at_zero
            and self.continuous_at_zero
            and self.non_increasing
            and self.finite_moment
        )


def indicator(radius: float = 1.0) -> KernelProfile:
    """Indicator profile: 1 on [0, radius), 0 from radius on.

    The value at the jump radius itself is 0; sets of measure zero do not
    affect any integral quantity, so the choice is free and this one keeps
    the support open.
    """
    radius = float(radius)

    def fn(r):
        return np.where(np.asarray(r, dtype=float) < radius, 1.0, 0.0)

    return KernelProfile(name="indicator", fn=fn, support_radius=radius,
                         breakpoints=(radius,))


def gaussian(width: float = 1.0) -> KernelProfile:
    """Gaussian profile exp(-(r/width)^2) with unbounded support."""
    width = float(width)

    def fn(r):
        r = np.asarray(r, dtype=float)
        # Past sqrt(max float) widths the square overflows to inf, and
        # exp(-inf) is the right 0.
        with np.errstate(over="ignore"):
            return np.exp(-((r / width) ** 2))

    return KernelProfile(name="gaussian", fn=fn, support_radius=math.inf)


def step_sum(radii, heights) -> KernelProfile:
    """Piecewise constant profile: value heights[k] on [radii[k-1], radii[k]).

    radii must be strictly increasing and heights non-increasing with a
    positive first height (K1 and K2), so the result is a sum of scaled
    indicator profiles.
    """
    radii = np.asarray(radii, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if radii.ndim != 1 or radii.shape != heights.shape:
        raise ValueError("radii and heights must be 1-d arrays of equal length")
    if np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise ValueError("radii must be positive and strictly increasing")
    if heights[0] <= 0 or np.any(np.diff(heights) > 0):
        raise ValueError("heights must start positive and never increase")
    levels = np.append(heights, 0.0)

    def fn(r):
        idx = np.searchsorted(radii, np.asarray(r, dtype=float), side="right")
        return levels[idx]

    return KernelProfile(name="step-sum", fn=fn, support_radius=float(radii[-1]),
                         breakpoints=tuple(radii))


def truncate(profile: KernelProfile, alpha: float) -> KernelProfile:
    """Restrict a profile to [0, alpha), zero beyond."""
    alpha = float(alpha)
    base = profile.fn

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < alpha, base(r), 0.0)

    support = min(profile.support_radius, alpha)
    breaks = tuple(b for b in profile.breakpoints if b < alpha) + (alpha,)
    return KernelProfile(name=f"{profile.name}|{alpha:g}", fn=fn,
                         support_radius=support, breakpoints=breaks)


def from_config(spec: dict) -> KernelProfile:
    """Build a builtin profile from a config mapping.

    Accepted forms:
      {"name": "indicator", "radius": 1.0}
      {"name": "gaussian", "width": 1.0}
      {"name": "step-sum", "radii": [...], "heights": [...]}
    """
    name = spec["name"]
    if name == "indicator":
        return indicator(spec.get("radius", 1.0))
    if name == "gaussian":
        return gaussian(spec.get("width", 1.0))
    if name == "step-sum":
        return step_sum(spec["radii"], spec["heights"])
    raise ValueError(f"unknown kernel name: {name!r}")


def _adaptive_simpson(f, a: float, b: float, rel_tol: float) -> float:
    """Adaptive composite Simpson rule on [a, b].

    Starts from 32 equal panels so the tolerance scale survives integrands
    concentrated on a small part of the interval, then subdivides panels
    until the Richardson estimate of the local error is below the panel's
    tolerance share.
    """
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    panels = 32
    xs = np.linspace(a, b, 2 * panels + 1)
    fs = [float(f(x)) for x in xs]
    coarse = sum(simpson(xs[2 * k], xs[2 * k + 2],
                         fs[2 * k], fs[2 * k + 1], fs[2 * k + 2])
                 for k in range(panels))
    scale = max(abs(coarse), 1e-30)

    total = 0.0
    budget = 400000
    stack = [
        (xs[2 * k], xs[2 * k + 2], fs[2 * k], fs[2 * k + 1], fs[2 * k + 2],
         simpson(xs[2 * k], xs[2 * k + 2], fs[2 * k], fs[2 * k + 1], fs[2 * k + 2]),
         rel_tol * scale / panels, 0)
        for k in range(panels)
    ]
    while stack:
        x0, x2, f0, f1, f2, s, tol, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        fl = float(f(lm))
        fr = float(f(rm))
        budget -= 2
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - s
        if abs(delta) <= 15.0 * tol or depth >= 40 or budget <= 0:
            total += left + right + delta / 15.0
        else:
            stack.append((x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1))
            stack.append((xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1))
    return total


def _moment_integral(profile: KernelProfile, d: int, upper: float) -> float:
    """Integral of eta(r) * r^d over [0, upper], split at jump radii."""
    cuts = [0.0] + [b for b in profile.breakpoints if 0.0 < b < upper] + [upper]
    fn = profile.fn

    def integrand(r):
        return float(fn(np.asarray(r))) * r ** d

    value = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        value += _adaptive_simpson(integrand, lo, hi, QUADRATURE_REL_TOL)
    return value


def _settled_moment(profile: KernelProfile, d: int, support: float) -> Tuple[bool, float]:
    """The doubling test of the moment integral, and its value I4.

    Settled means I4, the integral up to 4 * support, is finite and within
    max(1e-10, 1e-8 * |I4|) of the integral up to 2 * support.
    """
    i2 = _moment_integral(profile, d, 2.0 * support)
    i4 = _moment_integral(profile, d, 4.0 * support)
    return math.isfinite(i4) and abs(i4 - i2) <= max(1e-10, 1e-8 * abs(i4)), i4


def effective_support(profile: KernelProfile, d: int) -> float:
    """Radius beyond which eta(r) * r^d stays below the truncation threshold.

    Profiles with finite support return their support radius unchanged.
    Unbounded profiles are scanned on a geometric grid; the cut sits where
    the moment integrand has decayed below TRUNCATION_THRESHOLD for good.
    """
    if math.isfinite(profile.support_radius):
        return profile.support_radius
    grid = np.geomspace(1e-3, 1e3, 1200)
    products = np.asarray(profile(grid), dtype=float) * grid ** d
    above = np.nonzero(products >= TRUNCATION_THRESHOLD)[0]
    if above.size == 0:
        return 1.0
    last = above[-1]
    if last == grid.size - 1:
        raise DivergentKernelError(
            "moment integrand never decays below the truncation threshold")
    lo, hi = grid[last], grid[last + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(profile(mid)) * mid ** d >= TRUNCATION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return hi


def validate_profile(profile: KernelProfile, d: int) -> ProfileReport:
    """Check the admissibility conditions and report each one.

    Raises InvalidProfileError if the profile is negative anywhere on the
    check grid; the other conditions are reported, not raised.
    """
    try:
        support = effective_support(profile, d)
        divergent_support = False
    except DivergentKernelError:
        support = 1e3
        divergent_support = True

    hi = 1.1 * support
    grid = np.unique(np.concatenate([
        np.linspace(0.0, hi, 2001),
        np.geomspace(1e-9, hi, 200),
        np.asarray([b + s for b in profile.breakpoints if b < hi
                    for s in (-1e-12, 0.0, 1e-12)]),
    ]))
    grid = grid[grid >= 0.0]
    values = np.asarray(profile(grid), dtype=float)

    neg = np.nonzero(values < 0.0)[0]
    if neg.size:
        raise InvalidProfileError(
            f"profile {profile.name!r} is negative at r={grid[neg[0]]:.6g}")

    value0 = float(profile(0.0))
    positive = value0 > 0.0
    near = grid[(grid > 0.0) & (grid <= 1e-8)]
    if near.size:
        gap = float(np.max(np.abs(np.asarray(profile(near)) - value0)))
    else:
        gap = 0.0
    continuous = gap <= 1e-6 * max(1.0, abs(value0))

    diffs = np.diff(values)
    monotone = bool(np.all(diffs <= MONOTONICITY_SLACK))

    if divergent_support:
        finite = False
        moment = math.inf
    else:
        finite, moment = _settled_moment(profile, d, support)

    return ProfileReport(
        positive_at_zero=positive,
        continuous_at_zero=continuous,
        non_increasing=monotone,
        finite_moment=finite,
        moment_value=moment,
        details={
            "value_at_zero": value0,
            "continuity_gap": gap,
            "max_increase": float(np.max(diffs)) if diffs.size else 0.0,
            "support": support,
        },
    )


def _angular_constant(d: int) -> float:
    """c_d = integral of |omega_1| over the unit sphere S^(d-1).

    The closed form is 2 pi^((d-1)/2) / Gamma((d+1)/2).  d = 2 and d = 3
    return the exact constants 4 and 2 pi; in floating point the closed
    form gives 3.9999999999999996 at d = 2.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d == 2:
        return 4.0
    if d == 3:
        return 2.0 * math.pi
    return 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d + 1) / 2.0)


def surface_tension(profile: KernelProfile, d: int) -> float:
    """sigma = c_d * integral of eta(r) * r^d dr for the truncated profile.

    Unbounded profiles are cut at their effective support; the constant is
    computed for the truncated profile, matching the kernel actually used
    in graph construction.  Raises DivergentKernelError when the moment
    integral fails to stabilize under doubling of the cut radius.
    """
    support = effective_support(profile, d)
    value = _moment_integral(profile, d, support)
    if not math.isfinite(profile.support_radius):
        if not _settled_moment(profile, d, support)[0]:
            raise DivergentKernelError(
                f"moment integral of {profile.name!r} does not stabilize")
    if not math.isfinite(value):
        raise DivergentKernelError(
            f"moment integral of {profile.name!r} is not finite")
    return float(_angular_constant(d) * value)


def scaled_from_distance(profile: KernelProfile, eps: float, r, d: int):
    """eta_eps as a function of the distance |z| alone."""
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    try:
        height = eps ** (-d)
    except OverflowError:
        raise ValueError(f"eps = {eps:.3g} is too small: eps^-{d} overflows") from None
    r = np.asarray(r, dtype=float)
    return height * np.asarray(profile(r / eps), dtype=float)

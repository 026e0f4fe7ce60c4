"""Radial kernel profiles and their surface tension constants.

A kernel profile is a one dimensional function eta: [0, inf) -> [0, inf),
held as a frozen dataclass of its parameters.  The induced interaction
kernel on R^d is eta(|z|), and its rescaling at length scale eps is

    eta_eps(z) = eps^(-d) * eta(|z| / eps).

Admissible profiles satisfy

    (K1) eta(0) > 0 and eta is continuous at 0,
    (K2) eta is non-increasing,
    (K3) the moment integral of eta(r) * r^d over [0, inf) is finite.

The builders enforce these conditions: gaussian meets all three by
construction, step_sum (and indicator, its one-step case) raises
ValueError on K1 and K2, and effective_support raises
DivergentKernelError when the K3 integrand of an unbounded profile never
decays.

The surface tension of an admissible profile in dimension d is

    sigma = integral over R^d of eta(|h|) * |h_1| dh
          = c_d * integral of eta(r) * r^d dr,

where c_d is the mean of |omega_1| over the unit sphere S^(d-1) times its
area: c_d = 2 pi^((d-1)/2) / Gamma((d+1)/2), so c_2 = 4 and c_3 = 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np
from scipy.special import lambertw

from .errors import DivergentKernelError

TRUNCATION_THRESHOLD = 1e-12
QUADRATURE_REL_TOL = 1e-8


class KernelProfile:
    """Radial profile eta: each kind is a frozen dataclass of its parameters
    and name, and calling it evaluates eta elementwise on an array of radii.
    support_radius is math.inf for profiles with unbounded support;
    breakpoints lists radii where eta jumps, and quadrature splits there."""

    support_radius: float = math.inf
    breakpoints: Tuple[float, ...] = ()

    def cutoff(self, d: int) -> float:
        """Radius past which eta(r) * r^d stays below TRUNCATION_THRESHOLD;
        math.inf when no radius is known to do so."""
        return self.support_radius


@dataclass(frozen=True)
class Gaussian(KernelProfile):
    """exp(-(r/width)^2), with unbounded support."""

    width: float
    name = "gaussian"

    def __call__(self, r):
        # Past sqrt(max float) widths the square overflows to inf, and
        # exp(-inf) is the right 0.
        with np.errstate(over="ignore"):
            return np.exp(-((np.asarray(r, dtype=float) / self.width) ** 2))

    def cutoff(self, d: int) -> float:
        """The outer root of r^d exp(-(r/width)^2) = TRUNCATION_THRESHOLD.

        With s = (r/width)^2 the equation reads (-2s/d) e^(-2s/d) = x, where
        x = -(2/d) T^(2/d) / width^2, so s = -(d/2) W_-1(x) on the lower
        branch of Lambert's W.  Below x = -1/e the integrand's peak is
        under T and no radius is kept.  x is formed from logarithms, as
        width^2 underflows at tiny widths; at huge ones x underflows to 0
        and the cutoff is math.inf.
        """
        log_x = (math.log(2.0 / d) + (2.0 / d) * math.log(TRUNCATION_THRESHOLD)
                 - 2.0 * math.log(self.width))
        if log_x >= -1.0:
            raise ValueError(f"{self.name!r} is below the truncation threshold at every radius")
        return self.width * math.sqrt(-(d / 2.0) * lambertw(-math.exp(log_x), -1).real)


@dataclass(frozen=True)
class StepSum(KernelProfile):
    """heights[k] on [radii[k-1], radii[k]); step_sum checks K1 and K2."""

    radii: Tuple[float, ...]
    heights: Tuple[float, ...]
    name: str = "step-sum"

    @property
    def support_radius(self) -> float:
        return self.radii[-1]

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return self.radii

    def __call__(self, r):
        # From the outermost step in: a radius below radii[k] takes heights[k].
        r = np.asarray(r, dtype=float)
        value = 0.0
        for radius, height in zip(self.radii[::-1], self.heights[::-1]):
            value = np.where(r < radius, height, value)
        return value


def indicator(radius: float = 1.0) -> StepSum:
    """Indicator profile: 1 on [0, radius), 0 from radius on; the step sum
    of one step.

    The value at the jump radius itself is 0; sets of measure zero do not
    affect any integral quantity, so the choice is free and this one keeps
    the support open.
    """
    return replace(step_sum([radius], [1.0]), name="indicator")


def gaussian(width: float = 1.0) -> Gaussian:
    """Gaussian profile exp(-(r/width)^2) with unbounded support."""
    return Gaussian(float(width))


def step_sum(radii, heights) -> StepSum:
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
    return StepSum(tuple(radii.tolist()), tuple(heights.tolist()))


# The builder of each config name; a spec's other keys are its arguments.
KERNELS = {"indicator": indicator, "gaussian": gaussian, "step-sum": step_sum}


def _adaptive_simpson(f, a: float, b: float, rel_tol: float) -> float:
    """Adaptive composite Simpson rule on [a, b].

    Starts from 32 equal panels so the tolerance scale survives integrands
    concentrated on a small part of the interval, then subdivides panels
    until the Richardson estimate of the local error is below the panel's
    tolerance share.  A non-finite opening sum is returned at once: for
    a non-negative integrand no subdivision can make it finite.
    """
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    panels = 32
    xs = np.linspace(a, b, 2 * panels + 1)
    fs = [float(f(x)) for x in xs]
    opening = [(xs[2 * k], xs[2 * k + 2], fs[2 * k], fs[2 * k + 1], fs[2 * k + 2])
              for k in range(panels)]
    coarse = [simpson(*panel) for panel in opening]
    coarse_sum = sum(coarse)
    if not math.isfinite(coarse_sum):
        return coarse_sum
    share = rel_tol * max(abs(coarse_sum), 1e-30) / panels

    total = 0.0
    budget = 400000
    stack = [(*panel, s, share, 0) for panel, s in zip(opening, coarse)]
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

    def integrand(r):
        return float(profile(r)) * r ** d

    return sum(_adaptive_simpson(integrand, lo, hi, QUADRATURE_REL_TOL)
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def effective_support(profile: KernelProfile, d: int) -> float:
    """Radius beyond which eta(r) * r^d stays below the truncation threshold.

    This is the profile's cutoff: its support radius when that is
    finite, and for a gaussian the closed-form root of eta(r) * r^d =
    TRUNCATION_THRESHOLD.  A profile with no finite cutoff is taken to
    never decay, and is refused with DivergentKernelError.
    """
    radius = profile.cutoff(d)
    if not math.isfinite(radius):
        raise DivergentKernelError(
            "moment integrand never decays below the truncation threshold")
    return radius


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
    integrand never decays (from effective_support) or the integral, or
    sigma, is not finite.
    """
    support = effective_support(profile, d)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without warnings
        sigma = _angular_constant(d) * _moment_integral(profile, d, support)
    if not math.isfinite(sigma):
        raise DivergentKernelError(f"moment integral of {profile.name!r} is not finite")
    return float(sigma)


def scaled_from_distance(profile: KernelProfile, eps: float, r, d: int):
    """eta_eps as a function of the distance |z| alone.

    Raises ValueError when eps^-d times the peak eta(0) overflows; eta
    never increases (K2), so then no weight overflows.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    try:
        height = eps ** (-d)
    except OverflowError:
        raise ValueError(f"eps = {eps:.3g} is too small: eps^-{d} overflows") from None
    if not math.isfinite(height * float(profile(0.0))):
        raise ValueError(f"eps = {eps:.3g} is too small: eps^-{d} times eta(0) overflows")
    return height * profile(np.asarray(r, dtype=float) / eps)

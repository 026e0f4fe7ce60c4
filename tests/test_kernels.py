"""Kernel profile builders and surface tension quadrature."""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv import kernels
from pctv.config import build
from pctv.errors import DivergentKernelError

from oracles import HeavyTail, surface_tension_grid_2d


def test_builtin_profiles_are_admissible():
    # K1 and K2 on a grid past the support and at each jump; K3 through a
    # finite, positive surface tension.
    for profile, d in [
        (kernels.indicator(), 2),
        (kernels.indicator(0.5), 3),
        (kernels.gaussian(), 2),
        (kernels.gaussian(0.7), 3),
        (kernels.step_sum([0.5, 1.0], [2.0, 0.5]), 2),
    ]:
        support = kernels.effective_support(profile, d)
        grid = np.sort(np.concatenate([
            np.linspace(0.0, 1.1 * support, 2001),
            [b + s for b in profile.breakpoints for s in (-1e-12, 1e-12)],
        ]))
        values = profile(grid)
        assert profile(0.0) > 0.0, profile.name
        assert np.all(np.diff(values) <= 0.0), profile.name
        sigma = kernels.surface_tension(profile, d)
        assert math.isfinite(sigma) and sigma > 0.0, profile.name


def test_indicator_takes_the_lower_value_at_the_jump():
    profile = kernels.indicator(1.0)
    assert profile(np.array([1.0]))[0] == 0.0
    assert profile(np.array([1.0 - 1e-9]))[0] == 1.0
    assert profile(np.array([0.0]))[0] == 1.0


def test_surface_tension_indicator_2d():
    sigma = kernels.surface_tension(kernels.indicator(), 2)
    assert_allclose(sigma, 4.0 / 3.0, rtol=1e-9)


def test_surface_tension_indicator_3d():
    sigma = kernels.surface_tension(kernels.indicator(), 3)
    assert_allclose(sigma, math.pi / 2.0, rtol=1e-8)


def test_surface_tension_gaussian_2d():
    sigma = kernels.surface_tension(kernels.gaussian(), 2)
    assert_allclose(sigma, math.sqrt(math.pi), rtol=1e-7)


def test_surface_tension_indicator_4d_closed_form():
    # angular constant in d dimensions is 2 pi^((d-1)/2) / Gamma((d+1)/2),
    # so the unit indicator gives 2 pi^(3/2) / Gamma(5/2) / 5 = 8 pi / 15
    sigma = kernels.surface_tension(kernels.indicator(), 4)
    assert_allclose(sigma, 8.0 * math.pi / 15.0, rtol=1e-6)


def test_surface_tension_step_profile_by_hand():
    profile = kernels.step_sum([0.5, 1.2], [2.0, 0.5])
    sigma = kernels.surface_tension(profile, 2)
    expected = 4.0 * (2.0 * 0.5 ** 3 / 3.0 + 0.5 * (1.2 ** 3 - 0.5 ** 3) / 3.0)
    assert_allclose(sigma, expected, rtol=1e-7)


def test_surface_tension_matches_grid_oracle():
    profile = kernels.indicator()
    sigma = kernels.surface_tension(profile, 2)
    oracle = surface_tension_grid_2d(profile, 1.0, cells=2048)
    assert abs(sigma - oracle) < 2e-3


def test_effective_support_indicator():
    assert kernels.effective_support(kernels.indicator(2.5), 2) == 2.5
    assert kernels.effective_support(kernels.step_sum([0.5, 1.2], [2.0, 0.5]), 3) == 1.2


def test_effective_support_gaussian_decay():
    profile = kernels.gaussian()
    radius = kernels.effective_support(profile, 2)
    assert 4.0 < radius < 8.0
    tail = profile(np.array([radius]))[0] * radius ** 2
    assert tail <= 10.0 * kernels.TRUNCATION_THRESHOLD
    # the cut is the root of eta(r) r^d = threshold past the peak at
    # r = width sqrt(d/2), for widths that a scan over [1e-3, 1e3] missed
    for width, d in itertools.product((1e-4, 0.05, 1.0, 200.0), (1, 2)):
        profile = kernels.gaussian(width)
        radius = kernels.effective_support(profile, d)
        assert radius > width * math.sqrt(d / 2)
        assert abs(profile(radius) * radius ** d / kernels.TRUNCATION_THRESHOLD - 1) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_huge_gaussian_widths_have_a_cut_radius(d):
    # past a width of about 1e147 (d = 2) the Lambert W argument is no
    # normal float; the cut must still solve d log r - (r/w)^2 = log T
    for width in (1e100, 1e150, 2e155, 1e200, 1e300):
        radius = kernels.gaussian(width).cutoff(d)
        residual = d * math.log(radius) - (radius / width) ** 2
        assert abs(residual - math.log(kernels.TRUNCATION_THRESHOLD)) < 1e-11


def test_a_cut_radius_past_the_float_range_is_refused():
    # the root is finite as a multiple of the width, but not once scaled
    with pytest.raises(ValueError, match="cut radius exceeds the float range"):
        kernels.gaussian(1.7e308).cutoff(2)


def test_tiny_gaussian_width_warns_of_no_overflow():
    # (r / width)^2 overflows to inf here; exp(-inf) = 0 is the right value.
    profile = kernels.gaussian(1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert profile(np.array([0.0, 1.0]))[1] == 0.0
        assert profile(0.5) == 0.0
        # the cutoff warns of nothing, and refuses a profile that peaks
        # below the truncation threshold
        with pytest.raises(ValueError, match="truncation threshold"):
            kernels.effective_support(profile, 2)


def test_overflowing_moment_is_refused_from_the_opening_panels(monkeypatch):
    # the 32 opening panels evaluate the profile 65 times, and their sum
    # already overflows: no subdivision can make it finite
    calls = []
    evaluate = kernels.Gaussian.__call__
    monkeypatch.setattr(kernels.Gaussian, "__call__",
                        lambda self, r: calls.append(r) or evaluate(self, r))
    with pytest.raises(DivergentKernelError, match="not finite"):
        kernels.surface_tension(kernels.gaussian(1e110), 2)
    assert 0 < len(calls) <= 65


def test_heavy_tail_is_divergent():
    with pytest.raises(DivergentKernelError):
        kernels.effective_support(HeavyTail(), 2)


def test_from_config_builders():
    def kernel(spec):
        return build(kernels.KERNELS, "name", spec)

    assert kernel({"name": "indicator", "radius": 2.0}).support_radius == 2.0
    assert kernel({"name": "indicator"}).support_radius == 1.0
    assert kernel({"name": "gaussian", "width": 0.5}).name == "gaussian"
    step = kernel({"name": "step-sum", "radii": [1.0], "heights": [1.0]})
    assert step.name == "step-sum"
    with pytest.raises(KeyError):
        kernel({"name": "triangle"})


def test_scaled_from_distance_values_and_shape():
    indicator = kernels.indicator()
    assert_allclose(kernels.scaled_from_distance(indicator, 0.5, [0.3, 0.6], 2), [4.0, 0.0])
    assert kernels.scaled_from_distance(indicator, 0.5, np.zeros((3, 4)), 2).shape == (3, 4)
    with pytest.raises(ValueError):
        kernels.scaled_from_distance(indicator, 0.0, [0.3], 2)


def test_scaled_from_distance_matches_closed_form_gaussian():
    r = np.random.default_rng(3).uniform(0.0, 2.0, size=50)
    assert_allclose(kernels.scaled_from_distance(kernels.gaussian(), 0.3, r, 3),
                    np.exp(-(r / 0.3) ** 2) / 0.3 ** 3, rtol=1e-12)

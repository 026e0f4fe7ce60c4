"""Kernel profile validation and surface tension quadrature."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv import kernels
from pctv.errors import DivergentKernelError, InvalidProfileError

from oracles import surface_tension_grid_2d


def test_builtin_profiles_are_admissible():
    for profile, d in [
        (kernels.indicator(), 2),
        (kernels.indicator(0.5), 3),
        (kernels.gaussian(), 2),
        (kernels.gaussian(0.7), 3),
        (kernels.step_sum([0.5, 1.0], [2.0, 0.5]), 2),
    ]:
        report = kernels.validate_profile(profile, d)
        assert report.admissible, report.details
        assert report.moment_value > 0


def test_indicator_takes_the_lower_value_at_the_jump():
    profile = kernels.indicator(1.0)
    assert profile.fn(np.array([1.0]))[0] == 0.0
    assert profile.fn(np.array([1.0 - 1e-9]))[0] == 1.0
    assert profile.fn(np.array([0.0]))[0] == 1.0


def test_negative_profile_is_rejected():
    bad = kernels.KernelProfile(
        "bad", lambda r: np.cos(np.asarray(r, dtype=float) * 4.0), 2.0, ()
    )
    with pytest.raises(InvalidProfileError):
        kernels.validate_profile(bad, 2)


def test_increasing_profile_fails_monotonicity():
    bump = kernels.KernelProfile(
        "bump",
        lambda r: 1.0 + np.minimum(np.asarray(r, dtype=float), 1.0),
        2.0,
        (),
    )
    report = kernels.validate_profile(bump, 2)
    assert not report.non_increasing
    assert not report.admissible


def test_vanishing_at_zero_fails_positivity():
    hole = kernels.KernelProfile(
        "hole",
        lambda r: np.minimum(np.asarray(r, dtype=float), 0.0) * 0.0,
        1.0,
        (),
    )
    report = kernels.validate_profile(hole, 2)
    assert not report.positive_at_zero


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
    oracle = surface_tension_grid_2d(profile.fn, 1.0, cells=2048)
    assert abs(sigma - oracle) < 2e-3


def test_truncation_scales_like_alpha_cubed():
    base = kernels.indicator()
    values = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        cut = kernels.truncate(base, alpha)
        sigma = kernels.surface_tension(cut, 2)
        assert_allclose(sigma, 4.0 * alpha ** 3 / 3.0, rtol=1e-7)
        values.append(sigma)
    assert values == sorted(values)


def test_truncated_gaussian_loses_tension():
    full = kernels.surface_tension(kernels.gaussian(), 2)
    cut = kernels.surface_tension(kernels.truncate(kernels.gaussian(), 1.0), 2)
    assert 0.0 < cut < full


def test_effective_support_indicator():
    assert kernels.effective_support(kernels.indicator(2.5), 2) == 2.5
    assert kernels.effective_support(kernels.step_sum([0.5, 1.2], [2.0, 0.5]), 3) == 1.2


def test_effective_support_gaussian_decay():
    profile = kernels.gaussian()
    radius = kernels.effective_support(profile, 2)
    assert 4.0 < radius < 8.0
    tail = profile.fn(np.array([radius]))[0] * radius ** 2
    assert tail <= 10.0 * kernels.TRUNCATION_THRESHOLD


def test_tiny_gaussian_width_warns_of_no_overflow():
    # (r / width)^2 overflows to inf here; exp(-inf) = 0 is the right value.
    profile = kernels.gaussian(1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert profile.fn(np.array([0.0, 1.0]))[1] == 0.0
        assert profile(0.5) == 0.0
        kernels.effective_support(profile, 2)


def test_heavy_tail_is_divergent():
    slow = kernels.KernelProfile(
        "slow", lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)), math.inf, ()
    )
    with pytest.raises(DivergentKernelError):
        kernels.effective_support(slow, 2)


def test_from_config_builders():
    assert kernels.from_config({"name": "indicator", "radius": 2.0}).support_radius == 2.0
    assert kernels.from_config({"name": "gaussian", "width": 0.5}).name == "gaussian"
    step = kernels.from_config({"name": "step-sum", "radii": [1.0], "heights": [1.0]})
    assert step.name == "step-sum"
    with pytest.raises(ValueError):
        kernels.from_config({"name": "triangle"})


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

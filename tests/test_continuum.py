"""Weighted continuum functionals and the nonlocal total variation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv import kernels
from pctv.continuum import (
    affine_function,
    check_grid_sizes,
    disk_set,
    halfplane_set,
    nonlocal_tv,
    weighted_perimeter,
    weighted_tv_smooth,
)
from pctv.errors import UnsupportedConfigurationError
from pctv.geometry import ConvexPolygon, Density, dumbbell, uniform_density, unit_box

from oracles import halfplane_tv_expansion, nonlocal_tv_monte_carlo


def test_affine_function_values_and_gradient():
    fn = affine_function([2.0, -1.0], offset=0.5)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert_allclose(fn(pts), [0.5, 1.5])
    assert_allclose(fn.grad(pts), [[2.0, -1.0], [2.0, -1.0]])


def test_weighted_tv_of_coordinate_is_one():
    domain = unit_box(2)
    u = affine_function([1.0, 0.0])
    assert_allclose(weighted_tv_smooth(u, uniform_density(domain), domain), 1.0,
                    rtol=1e-12)


def test_weighted_tv_with_affine_weight():
    # rho(x) = 1 + x1 unnormalized: integral of (1 + x1)^2 over the unit
    # square is 7/3
    domain = unit_box(2)
    rho = Density(lambda p: 1.0 + p[:, 0], lower=1.0, upper=2.0)
    value = weighted_tv_smooth(affine_function([1.0, 0.0]), rho, domain)
    assert_allclose(value, 7.0 / 3.0, rtol=1e-5)


def test_halfplane_set_membership():
    domain = unit_box(2)
    region = halfplane_set(domain, axis=0, threshold=0.5)
    pts = np.array([[0.2, 0.9], [0.7, 0.1]])
    assert region.contains(pts).tolist() == [True, False]
    assert region.vertices.shape == (4, 2)


def test_perimeter_of_half_cut_square():
    domain = unit_box(2)
    region = halfplane_set(domain, axis=0, threshold=0.5)
    value = weighted_perimeter(region, uniform_density(domain), domain)
    assert_allclose(value, 1.0, rtol=1e-12)


def test_perimeter_with_affine_weight():
    # rho = 1 + x1 on the cut {x1 = 1/2}: integrand (1.5)^2 along a unit
    # segment
    domain = unit_box(2)
    rho = Density(lambda p: 1.0 + p[:, 0], lower=1.0, upper=2.0)
    region = halfplane_set(domain, axis=0, threshold=0.5)
    assert_allclose(weighted_perimeter(region, rho, domain), 2.25, rtol=1e-12)


def test_dumbbell_cuts_clip_to_the_shape():
    shape = dumbbell()
    rho = uniform_density(shape)
    rho_sq = 1.0 / shape.volume() ** 2
    neck = halfplane_set(shape, axis=0, threshold=1.25)
    left = halfplane_set(shape, axis=0, threshold=0.5)
    interface = halfplane_set(shape, axis=0, threshold=1.0)
    assert_allclose(weighted_perimeter(neck, rho, shape), 0.25 * rho_sq, rtol=1e-10)
    assert_allclose(weighted_perimeter(left, rho, shape), 1.0 * rho_sq, rtol=1e-10)
    # the cut at the block interface only crosses the open neck
    assert_allclose(weighted_perimeter(interface, rho, shape), 0.25 * rho_sq,
                    rtol=1e-10)


def test_disk_perimeter_matches_circumference():
    domain = unit_box(2)
    region = disk_set([0.5, 0.5], 0.25)
    value = weighted_perimeter(region, uniform_density(domain), domain)
    assert_allclose(value, 2.0 * math.pi * 0.25, rtol=1e-4)


def test_polygonal_sets_are_planar_only():
    with pytest.raises(UnsupportedConfigurationError):
        halfplane_set(unit_box(3), axis=0, threshold=0.5)
    with pytest.raises(ValueError):
        ConvexPolygon(np.zeros((4, 3)))


def test_nonlocal_quadrature_tracks_the_expansion():
    domain = unit_box(2)
    rho = uniform_density(domain)
    u = affine_function([1.0, 0.0])
    profile = kernels.indicator()
    for eps in (0.16, 0.08):
        value, error_estimate = nonlocal_tv(u, rho, domain, profile, eps)
        assert error_estimate >= 0.0
        assert abs(value - halfplane_tv_expansion(eps)) < 3e-3 + eps ** 2


def test_nonlocal_value_grows_toward_the_limit():
    domain = unit_box(2)
    rho = uniform_density(domain)
    u = affine_function([1.0, 0.0])
    profile = kernels.indicator()
    values = [
        nonlocal_tv(u, rho, domain, profile, eps)[0]
        for eps in (0.32, 0.16, 0.08)
    ]
    assert values[0] < values[1] < values[2] < 4.0 / 3.0


def test_kernel_wider_than_the_domain():
    # eps = 3 puts the whole unit square inside the kernel: a 3 x 3 lattice
    # whose every cell pair has eta_eps = 1/9.  The ordered pairs sum
    # |x1 - y1| to 24 at the cell centers, so the value is
    # 24 * (1/9) * (1/9)^2 / 3 = 24/2187.
    domain = unit_box(2)
    value, _ = nonlocal_tv(affine_function([1.0, 0.0]), uniform_density(domain), domain,
                           kernels.indicator(), 3.0)
    assert_allclose(value, 24.0 / 2187.0, rtol=1e-12)


def test_nonlocal_monte_carlo_agrees_with_quadrature():
    domain = unit_box(2)
    rho = uniform_density(domain)
    u = affine_function([1.0, 0.0])
    profile = kernels.indicator()
    quad, _ = nonlocal_tv(u, rho, domain, profile, 0.16)
    mc, stderr = nonlocal_tv_monte_carlo(u, rho, domain, profile, 0.16,
                                         samples=200000, seed=5)
    again = nonlocal_tv_monte_carlo(u, rho, domain, profile, 0.16,
                                    samples=200000, seed=5)
    assert again == (mc, stderr)
    assert abs(mc - quad) < 5.0 * stderr


def test_oversized_grids_are_refused_before_they_are_built():
    u = affine_function([1.0, 0.0, 0.0, 0.0])
    box4 = unit_box(4)
    profile = kernels.indicator()
    with pytest.raises(UnsupportedConfigurationError, match="weighted TV grid"):
        weighted_tv_smooth(u, uniform_density(box4), box4)
    # 20^4 cells, but 65160 offsets of 8^4 kernel points each
    with pytest.raises(UnsupportedConfigurationError, match="kernel subgrid"):
        nonlocal_tv(u, uniform_density(box4), box4, profile, 0.4)
    box3 = unit_box(3)
    check_grid_sizes(box3)  # 256^3 points: exactly the limit
    check_grid_sizes(box3, profile, 0.2)
    with pytest.raises(UnsupportedConfigurationError, match="nonlocal lattice"):
        check_grid_sizes(box3, profile, 0.02)  # 400^3 cells

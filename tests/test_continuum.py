"""Weighted continuum functionals and the nonlocal total variation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv import kernels
from pctv.continuum import (
    affine_function,
    check_grid_sizes,
    nonlocal_tv,
    weighted_perimeter,
    weighted_tv_smooth,
)
from pctv.errors import UnsupportedConfigurationError
from pctv.geometry import (
    Box,
    BoxUnion,
    ConvexPolygon,
    Density,
    affine_density,
    dumbbell,
    uniform_density,
    unit_box,
)

from oracles import halfplane_tv_expansion, nonlocal_tv_monte_carlo, weighted_tv_whole_grid


def test_affine_function_values_and_gradient():
    fn = affine_function([2.0, -1.0], offset=0.5)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert_allclose(fn(pts), [0.5, 1.5])
    assert_allclose(fn.grad(pts), [[2.0, -1.0], [2.0, -1.0]])


def test_weighted_tv_of_coordinate_is_one():
    domain = unit_box(2)
    u = affine_function([1.0, 0.0])
    assert weighted_tv_smooth(u, uniform_density(domain), domain) == 1.0


def test_weighted_tv_with_affine_weight():
    # rho(x) = 1 + x1 unnormalized: integral of (1 + x1)^2 over the unit
    # square is 7/3
    domain = unit_box(2)
    rho = Density(lambda p: 1.0 + p[:, 0], lower=1.0, upper=2.0)
    value = weighted_tv_smooth(affine_function([1.0, 0.0]), rho, domain)
    assert_allclose(value, 7.0 / 3.0, rtol=1e-14)


def test_weighted_tv_is_exact_on_every_kind_of_piece():
    u = affine_function([1.0, 0.0])
    shape = dumbbell()  # rho = 8/17 on a volume of 17/8
    assert_allclose(weighted_tv_smooth(u, uniform_density(shape), shape), 8.0 / 17.0,
                    rtol=1e-15)
    square = unit_box(2)  # rho = (1 + x1) / (3/2)
    assert_allclose(weighted_tv_smooth(u, affine_density(square, 0, 1.0), square),
                    28.0 / 27.0, rtol=1e-15)
    # rho = (12/7)(1 + x2/2) on the triangle, whose integral of
    # (1 + x2/2)^2 is 11/16; |grad u| = sqrt(5)/2
    triangle = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    value = weighted_tv_smooth(affine_function([1.0, 0.5]),
                               affine_density(triangle, 1, 0.5), triangle)
    assert_allclose(value, 99.0 / 49.0 * math.sqrt(5.0) / 2.0, rtol=1e-14)
    # The L-shaped union is the slab x3 < 0.3 and the column x1 < 0.4 above
    # it; rho = (1 + x3/2) / Z with Z = 1387/2000, and the integral of
    # (1 + x3/2)^2 over the union is 50501/60000.
    ell = BoxUnion([Box([0.0, 0.0, 0.0], [1.0, 1.0, 0.3]), Box([0.0, 0.0, 0.0], [0.4, 1.0, 1.0])])
    value = weighted_tv_smooth(affine_function([0.3, 1.0, -2.0]),
                               affine_density(ell, 2, 0.5), ell)
    assert_allclose(value, 10100200.0 / 5771307.0 * math.sqrt(5.09), rtol=1e-14)


# The grid is exact up to its midpoint rule, 2e-7 here, on the aligned
# boxes.  On the unions it keeps a cell when its midpoint lies in the
# domain, so cells cut by the boundary leave it off by 6.3e-3 (64^3) and
# 2.8e-3 (256^2).
@pytest.mark.parametrize("domain,coeffs,resolution,rtol", [
    (unit_box(1), [2.0], 256, 1e-6),
    (unit_box(2), [1.0, -0.5], 256, 1e-6),
    (BoxUnion([Box([0.0, 0.0, 0.0], [1.0, 1.0, 0.3]), Box([0.0, 0.0, 0.0], [0.4, 1.0, 1.0])]),
     [0.3, 1.0, -2.0], 64, 1e-2),
    (dumbbell(), [1.0, 0.25], 256, 5e-3),
], ids=["d1", "d2", "d3", "dumbbell"])
def test_weighted_tv_agrees_with_the_midpoint_grid(domain, coeffs, resolution, rtol):
    u = affine_function(coeffs)
    rho = affine_density(domain, axis=domain.dimension - 1, slope=0.5)
    exact = weighted_tv_smooth(u, rho, domain)
    grid = weighted_tv_whole_grid(u, rho, domain, resolution)
    assert_allclose(grid, exact, rtol=rtol)


def test_perimeter_of_half_cut_square():
    domain = unit_box(2)
    assert weighted_perimeter(uniform_density(domain), domain, 0, 0.5) == 1.0
    box3 = unit_box(3)
    assert weighted_perimeter(uniform_density(box3), box3, 2, 0.4) == 1.0
    interval = unit_box(1)  # the section is one point
    assert weighted_perimeter(uniform_density(interval), interval, 0, 0.5) == 1.0
    # the plane along the face the two halves share lies inside the square
    halves = BoxUnion([Box([0.0, 0.0], [0.5, 1.0]), Box([0.5, 0.0], [1.0, 1.0])])
    assert weighted_perimeter(uniform_density(halves), halves, 0, 0.5) == 1.0


def test_perimeter_with_affine_weight():
    # rho = 1 + x1 on the cut {x1 = 1/2}: integrand (1.5)^2 along a unit
    # segment
    domain = unit_box(2)
    rho = Density(lambda p: 1.0 + p[:, 0], lower=1.0, upper=2.0)
    assert_allclose(weighted_perimeter(rho, domain, 0, 0.5), 2.25, rtol=1e-12)


def test_thresholds_outside_the_domain_have_no_perimeter():
    domain = unit_box(2)
    rho = uniform_density(domain)
    triangle = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for threshold in (-0.5, 0.0, 1.0, 1.5):
        assert weighted_perimeter(rho, domain, 1, threshold) == 0.0
        assert weighted_perimeter(rho, triangle, 0, threshold) == 0.0


def test_dumbbell_cuts_clip_to_the_shape():
    shape = dumbbell()
    rho = uniform_density(shape)
    rho_sq = 1.0 / shape.volume() ** 2
    assert_allclose(weighted_perimeter(rho, shape, 0, 1.25), 0.25 * rho_sq, rtol=1e-10)
    assert_allclose(weighted_perimeter(rho, shape, 0, 0.5), 1.0 * rho_sq, rtol=1e-10)
    # the cut at the block interface only crosses the open neck
    assert_allclose(weighted_perimeter(rho, shape, 0, 1.0), 0.25 * rho_sq, rtol=1e-10)


def test_polygon_chords_carry_an_affine_weight():
    # rho = (12/7)(1 + x2/2) on the chord x1 = 1/4, 0 < x2 < 3/4
    triangle = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    value = weighted_perimeter(affine_density(triangle, 1, 0.5), triangle, 0, 0.25)
    assert_allclose(value, (144.0 / 49.0) * (2.0 / 3.0) * (1.375 ** 3 - 1.0), rtol=1e-14)


def test_polygonal_sets_are_planar_only():
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
        assert abs(value - halfplane_tv_expansion(eps)) < 2e-3


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
    assert weighted_tv_smooth(u, uniform_density(box4), box4) == 1.0  # no grid to refuse
    # 20^4 cells, but 65160 offsets of 8^4 kernel points each
    with pytest.raises(UnsupportedConfigurationError, match="kernel subgrid"):
        nonlocal_tv(u, uniform_density(box4), box4, profile, 0.4)
    box3 = unit_box(3)
    check_grid_sizes(box3, profile, 0.2)
    with pytest.raises(UnsupportedConfigurationError, match="nonlocal lattice"):
        check_grid_sizes(box3, profile, 0.02)  # 400^3 cells

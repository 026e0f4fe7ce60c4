"""Weighted continuum functionals and the nonlocal total variation."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv import continuum, kernels
from pctv.continuum import (
    affine_function,
    nonlocal_rule,
    nonlocal_tv,
    weighted_perimeter,
    weighted_tv_smooth,
)
from pctv.errors import UnsupportedConfigurationError
from pctv.geometry import (
    BoxUnion,
    ConvexPolygon,
    Density,
    affine_density,
    dumbbell,
    uniform_density,
    unit_box,
)

from oracles import nonlocal_tv_monte_carlo, unit_box_nonlocal_tv, weighted_tv_whole_grid


def test_affine_function_values_and_gradient():
    fn = affine_function([2.0, -1.0], offset=0.5)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert_allclose(fn(pts), [0.5, 1.5])
    assert_allclose(fn.coeffs, [2.0, -1.0])
    with pytest.raises(ValueError, match=r"expected an \(n, d\) array"):
        fn([0.0, 1.0])


def test_weighted_tv_of_coordinate_is_one():
    domain = unit_box(2)
    u = affine_function([1.0, 0.0])
    assert weighted_tv_smooth(u, uniform_density(domain), domain) == 1.0


def test_weighted_tv_with_affine_weight():
    # rho(x) = 1 + x1 unnormalized: integral of (1 + x1)^2 over the unit
    # square is 7/3
    domain = unit_box(2)
    rho = Density(0, 1.0, 1.0, upper=2.0)
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
    ell = BoxUnion([([0.0, 0.0, 0.0], [1.0, 1.0, 0.3]), ([0.0, 0.0, 0.0], [0.4, 1.0, 1.0])])
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
    (BoxUnion([([0.0, 0.0, 0.0], [1.0, 1.0, 0.3]), ([0.0, 0.0, 0.0], [0.4, 1.0, 1.0])]),
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
    halves = BoxUnion([([0.0, 0.0], [0.5, 1.0]), ([0.5, 0.0], [1.0, 1.0])])
    assert weighted_perimeter(uniform_density(halves), halves, 0, 0.5) == 1.0


def test_perimeter_with_affine_weight():
    # rho = 1 + x1 on the cut {x1 = 1/2}: integrand (1.5)^2 along a unit
    # segment
    domain = unit_box(2)
    rho = Density(0, 1.0, 1.0, upper=2.0)
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


def _tv_eps(u, rho, domain, profile, eps):
    return nonlocal_tv(nonlocal_rule(domain, profile, eps, u.coeffs), rho)


L_SHAPE = BoxUnion([([0.0, 0.0, 0.0], [1.0, 1.0, 0.3]), ([0.0, 0.0, 0.0], [0.4, 1.0, 1.0])])


def test_nonlocal_quadrature_tracks_the_expansion():
    # The shipped config: the unit square, the indicator and u = x1, where
    # TV_eps = 4/3 - (pi/4 + 1/2) eps + (4/15) eps^2 for eps <= 1.
    square = unit_box(2)
    u = affine_function([1.0, 0.0])
    for eps in (0.16, 0.08, 0.04, 0.02):
        value = _tv_eps(u, uniform_density(square), square, kernels.indicator(), eps)
        closed_form = 4.0 / 3.0 - (math.pi / 4.0 + 0.5) * eps + 4.0 / 15.0 * eps ** 2
        assert abs(value - closed_form) < 1e-12
    cases = [(kernels.indicator(), 0.3, 2), (kernels.step_sum([0.4, 1.0], [2.0, 0.5]), 0.5, 2),
             (kernels.gaussian(0.2), 0.5, 2), (kernels.indicator(), 0.3, 3),
             (kernels.indicator(), 0.02, 3)]
    for profile, eps, d in cases:
        box = unit_box(d)
        u = affine_function([1.0] + [0.0] * (d - 1))
        value = _tv_eps(u, uniform_density(box), box, profile, eps)
        assert abs(value - unit_box_nonlocal_tv(profile, eps, d)) < 1e-12, (profile.name, d)


def test_nonlocal_value_grows_toward_the_limit():
    domain = unit_box(2)
    rho = uniform_density(domain)
    u = affine_function([1.0, 0.0])
    profile = kernels.indicator()
    values = [_tv_eps(u, rho, domain, profile, eps) for eps in (0.32, 0.16, 0.08)]
    assert values[0] < values[1] < values[2] < 4.0 / 3.0


def test_kernel_wider_than_the_domain():
    # For eps >= sqrt(2) the kernel covers every pair of the unit square at
    # height eps^-2, so TV_eps = eps^-3 * integral of |x1 - y1| = 1 / (3 eps^3).
    domain = unit_box(2)
    value = _tv_eps(affine_function([1.0, 0.0]), uniform_density(domain), domain,
                    kernels.indicator(), 3.0)
    assert abs(value - 1.0 / 81.0) < 1e-12


def test_one_shape_in_two_representations_has_one_value():
    u = affine_function([1.0, 0.3])
    profile = kernels.step_sum([0.5, 1.0], [2.0, 1.0])
    square, polygon = unit_box(2), ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    for eps in (0.16, 0.7, 3.0):
        assert abs(_tv_eps(u, affine_density(polygon, 1, 0.5), polygon, profile, eps)
                   - _tv_eps(u, affine_density(square, 1, 0.5), square, profile, eps)) < 1e-12
    # the dumbbell's boxes, and a neck that overlaps both squares
    shape = dumbbell()
    union = BoxUnion([([0.0, 0.0], [1.0, 1.0]), ([0.9, 0.375], [1.6, 0.625]),
                      ([1.5, 0.0], [2.5, 1.0])])
    for eps in (0.04, 0.3):
        assert abs(_tv_eps(u, uniform_density(shape), shape, profile, eps)
                   - _tv_eps(u, uniform_density(union), union, profile, eps)) < 1e-12


@pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-6, 1e-7, 1e-9])
def test_planar_nonlocal_tv_scales_as_the_inverse_square(scale):
    # Scaling the domain and eps by s scales TV_eps of u = a.x by exactly
    # s^-2 in the plane: 1/eps, eta_eps and |a.(x - y)| give s^-1 s^-2 s,
    # and the normalized rho(x) rho(y) dx dy does not change.  A 2-d box
    # has the polygon's overlap too.
    pentagon = np.array([[0.0, 0.0], [1.0, 0.0], [1.3, 0.8], [0.5, 1.3], [-0.3, 0.8]])
    u, profile = affine_function([1.0, 0.4]), kernels.indicator()
    for shape in (lambda s: ConvexPolygon(s * pentagon),
                  lambda s: BoxUnion([([0.0, 0.0], [s, 2.0 * s])])):
        unit, small = shape(1.0), shape(scale)
        value = _tv_eps(u, uniform_density(unit), unit, profile, 0.3)
        scaled = _tv_eps(u, uniform_density(small), small, profile, 0.3 * scale)
        assert_allclose(scaled * scale ** 2, value, rtol=1e-14)


def test_a_subnormal_coefficient_computes_no_warning():
    # Along the normal to a = (2.2e-309, -1) a direction component is
    # subnormal, and the slab and contact radii it divides overflow to
    # +-inf: the limit that a = (0, -1) reaches by dividing by zero.
    square, profile = unit_box(2), kernels.indicator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny, zero = (_tv_eps(affine_function(coeffs), uniform_density(square), square,
                              profile, 1.0)
                      for coeffs in ([2.225073858507203e-309, -1.0], [0.0, -1.0]))
    assert abs(tiny - zero) <= 1e-12 * abs(zero)


def test_spatial_rule_converges_under_angular_refinement(monkeypatch):
    # The sphere is cut along every circle where the order of the radii on
    # a ray changes, so doubling the angular rule moves the value by little
    # more than rounding, whether the L's contact planes stay outside the
    # kernel ball (0.2), cross its sphere (0.5) or mostly lie inside it (1).
    # The doubled rule is four times the size bound.
    u = affine_function([0.3, 1.0, -2.0])
    rho = affine_density(L_SHAPE, 2, 0.5)
    for eps in (0.2, 0.5, 1.0):
        coarse = _tv_eps(u, rho, L_SHAPE, kernels.indicator(), eps)
        with monkeypatch.context() as patch:
            patch.setattr(continuum, "ANGULAR_NODES", 2 * continuum.ANGULAR_NODES)
            patch.setattr(continuum, "MAX_GRID_POINTS", 4 * continuum.MAX_GRID_POINTS)
            fine = _tv_eps(u, rho, L_SHAPE, kernels.indicator(), eps)
        assert abs(fine - coarse) < 1e-8 * abs(fine), eps


def test_nonlocal_monte_carlo_agrees_with_quadrature():
    triangle = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cases = [(unit_box(2), [1.0, 0.0], uniform_density(unit_box(2))),
             (dumbbell(), [1.0, 0.25], uniform_density(dumbbell())),
             (triangle, [1.0, 0.5], affine_density(triangle, 1, 0.5)),
             (L_SHAPE, [0.3, 1.0, -2.0], affine_density(L_SHAPE, 2, 0.5))]
    profile = kernels.indicator()
    for domain, coeffs, rho in cases:
        u = affine_function(coeffs)
        quad = _tv_eps(u, rho, domain, profile, 0.3)
        mc, stderr = nonlocal_tv_monte_carlo(u, rho, domain, profile, 0.3,
                                             samples=200000, seed=5)
        again = nonlocal_tv_monte_carlo(u, rho, domain, profile, 0.3,
                                        samples=200000, seed=5)
        assert again == (mc, stderr)
        assert abs(mc - quad) < 5.0 * stderr, coeffs


def test_oversized_grids_are_refused_before_they_are_built():
    u = affine_function([1.0, 0.0, 0.0, 0.0])
    box4 = unit_box(4)
    profile = kernels.indicator()
    assert weighted_tv_smooth(u, uniform_density(box4), box4) == 1.0  # no grid to refuse
    with pytest.raises(UnsupportedConfigurationError, match="circles and spheres"):
        _tv_eps(u, uniform_density(box4), box4, profile, 0.4)
    # a 40-gon's 38 fan triangles make 741 pairs, and their rules together
    # pass the size bound
    circle = ConvexPolygon([[math.cos(t), math.sin(t)]
                            for t in np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)])
    with pytest.raises(UnsupportedConfigurationError, match="nonlocal rule"):
        nonlocal_rule(circle, profile, 0.5, [1.0, 0.0])

"""Domains, densities, sampling, and the point cloud container."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv.config import build
from pctv.errors import EnvelopeError
from pctv.geometry import (
    DENSITIES,
    SHAPES,
    Box,
    BoxUnion,
    ConvexPolygon,
    Density,
    acceptance_rate,
    affine_density,
    dumbbell,
    grid_points,
    sample_iid,
    uniform_density,
    unit_box,
)

from oracles import integrate_density


def _affine_normalizer(domain, axis):
    """The integral of 1 + x_axis over the domain, as affine_density finds it."""
    return 1.0 / affine_density(domain, axis, 1.0)(np.zeros((1, domain.dimension)))[0]


def test_box_volume_and_moment():
    box = Box([0.0, 0.0], [2.0, 3.0])
    assert box.volume() == 6.0
    # the volume plus the moments 6 and 9 of x_1 and x_2
    assert_allclose(_affine_normalizer(box, 0), 12.0, rtol=1e-15)
    assert_allclose(_affine_normalizer(box, 1), 15.0, rtol=1e-15)
    assert box.dimension == 2


def test_box_contains_is_closed():
    box = unit_box(2)
    inside = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    outside = np.array([[1.0 + 1e-12, 0.5], [-0.1, 0.5]])
    assert box.contains(inside).all()
    assert not box.contains(outside).any()


def test_point_readers_refuse_anything_but_an_n_by_d_array():
    # a flat list was read as one point, its first coordinates the point
    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    for read in (affine_density(unit_box(1), 0, 0.5), unit_box(1).contains, square.contains):
        with pytest.raises(ValueError, match=r"expected an \(n, d\) array"):
            read([0.1, 0.2, 3.0])


def test_degenerate_box_is_rejected():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        BoxUnion([([0.0, 0.0], [1.0, 1.0]), ([1.0, 0.0], [2.0, 0.0])])


def test_dumbbell_volume_and_moment_are_exact():
    shape = dumbbell()
    assert shape.volume() == 2.125
    assert_allclose(_affine_normalizer(shape, 0), 2.125 + 2.65625, rtol=0, atol=1e-14)
    inner = np.array([[1.25, 0.5], [0.5, 0.5], [2.0, 0.5]])
    outer = np.array([[1.25, 0.2], [1.25, 0.8], [2.6, 0.5]])
    assert shape.contains(inner).all()
    assert not shape.contains(outer).any()


def test_dumbbell_with_custom_neck():
    shape = dumbbell(width=0.5, length=1.0)
    assert shape.volume() == 2.5
    lo, hi = shape.bounding_box()
    assert_allclose(hi - lo, [3.0, 1.0])


def test_overlapping_union_counts_volume_once():
    union = BoxUnion([([0.0, 0.0], [1.0, 1.0]), ([0.5, 0.0], [1.5, 1.0])])
    assert_allclose(union.volume(), 1.5)


def test_disconnected_union_is_rejected():
    with pytest.raises(ValueError):
        BoxUnion([([0.0, 0.0], [1.0, 1.0]), ([2.0, 0.0], [3.0, 1.0])])


def test_corner_contact_does_not_connect():
    with pytest.raises(ValueError):
        BoxUnion([([0.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [2.0, 2.0])])


def test_triangle_area_and_moment():
    tri = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_allclose(tri.volume(), 0.5)
    assert_allclose(_affine_normalizer(tri, 0), 0.5 + 1.0 / 6.0)
    assert_allclose(_affine_normalizer(tri, 1), 0.5 + 1.0 / 6.0)


def test_clockwise_vertices_are_normalized():
    ccw = ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    cw = ConvexPolygon([[0.0, 0.0], [0.0, 1.0], [2.0, 1.0], [2.0, 0.0]])
    assert_allclose(ccw.volume(), cw.volume())
    assert_allclose(ccw.volume(), 2.0)


def test_nonconvex_polygon_is_rejected():
    with pytest.raises(ValueError):
        ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [0.0, 2.0]])


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_polygon_tolerances_scale_with_the_polygon(scale):
    # A 2 x 2 square dented to its centre is not convex at any scale.
    with pytest.raises(ValueError, match="not convex"):
        ConvexPolygon(scale * np.array([[0, 0], [2, 0], [2, 2], [1, 1], [0, 2]]))
    tri = ConvexPolygon(scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert tri.contains(scale * np.array([[0.25, 0.25], [0.5, 0.5 - 1e-6], [0.0, 1.0]])).all()
    assert not tri.contains(scale * np.array([[0.5, 0.5 + 1e-6], [-1e-6, 0.5],
                                              [0.5, -1e-6]])).any()
    points = sample_iid(tri, uniform_density(tri), 2000, seed=0).points / scale
    assert np.all(points >= -1e-9) and np.all(points.sum(axis=1) <= 1.0 + 1e-9)


def test_density_bounds_are_validated():
    with pytest.raises(ValueError):
        Density(0, 0.0, 1.0, upper=0.0)
    with pytest.raises(ValueError):
        Density(0, 0.0, 1.0, upper=-1.0)


def test_uniform_density_integrates_to_one():
    for domain, resolution in (
        (unit_box(2), 512),
        (dumbbell(), 512),
        (Box([0.0, 0.0, 0.0], [2.0, 1.0, 1.0]), 48),
    ):
        density = uniform_density(domain)
        assert_allclose(integrate_density(density, domain, resolution), 1.0, rtol=5e-3)


def test_affine_density_normalization_is_exact():
    domain = unit_box(2)
    density = affine_density(domain, axis=0, slope=1.0)
    # midpoint quadrature integrates an affine integrand exactly on a box
    assert_allclose(integrate_density(density, domain), 1.0, rtol=1e-12)


def test_sampling_stays_inside_and_is_reproducible():
    domain = dumbbell()
    density = uniform_density(domain)
    cloud = sample_iid(domain, density, 4000, seed=11)
    again = sample_iid(domain, density, 4000, seed=11)
    other = sample_iid(domain, density, 4000, seed=12)
    assert domain.contains(cloud.points).all()
    assert np.array_equal(cloud.points, again.points)
    assert not np.array_equal(cloud.points, other.points)


def test_sampling_matches_affine_mean():
    domain = unit_box(1)
    density = affine_density(domain, axis=0, slope=1.0)
    cloud = sample_iid(domain, density, 40000, seed=5)
    # E[x] for rho(x) = (1+x)/1.5 on [0,1] is (1/2 + 1/3)/1.5
    assert abs(cloud.points[:, 0].mean() - 5.0 / 9.0) < 0.01


def test_envelope_violation_is_detected():
    domain = unit_box(2)
    # 1 + 4 x_1 reaches 5 on the unit square, past its declared bound of 2
    spiky = Density(0, 4.0, 1.0, upper=2.0)
    with pytest.raises(EnvelopeError):
        sample_iid(domain, spiky, 1000, seed=0)


def test_hopeless_acceptance_rate_is_detected():
    domain = unit_box(2)
    flat = Density(0, 0.0, 1.0, upper=1e6)
    with pytest.raises(EnvelopeError):
        sample_iid(domain, flat, 1000, seed=0)


def test_acceptance_rate_is_the_domain_share_of_its_bounding_box():
    shape = dumbbell()  # a volume of 17/8 in a 2.5 x 1 box
    assert_allclose(acceptance_rate(shape, uniform_density(shape)), 0.85, rtol=1e-12)


def test_grid_points_are_cell_centers_in_order():
    pts = grid_points(3, 2)
    assert pts.shape == (9, 2)
    assert_allclose(pts[0], [1.0 / 6.0, 1.0 / 6.0])
    assert_allclose(pts[1], [1.0 / 6.0, 0.5])
    assert_allclose(pts[3], [0.5, 1.0 / 6.0])
    assert_allclose(pts[-1], [5.0 / 6.0, 5.0 / 6.0])


def test_domain_from_config_shapes():
    def shape(spec):
        return build(SHAPES, "shape", spec)

    assert shape({"shape": "unit-box", "dimension": 3}).dimension == 3
    assert shape({"shape": "unit-box"}).dimension == 2
    assert shape({"shape": "dumbbell"}).volume() == 2.125
    assert shape({"shape": "box", "lo": [0, 0], "hi": [2, 1]}).volume() == 2.0
    union = shape({"shape": "box-union",
                   "boxes": [{"lo": [0, 0], "hi": [1, 1]}, {"lo": [1, 0], "hi": [2, 1]}]})
    assert union.volume() == 2.0
    poly = shape({"shape": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]})
    assert_allclose(poly.volume(), 0.5)
    with pytest.raises(KeyError):
        shape({"shape": "sphere"})


def test_density_from_config_names():
    domain = unit_box(2)
    uniform = build(DENSITIES, "name", {"name": "uniform"}, domain)
    assert_allclose(uniform(np.array([[0.5, 0.5]])), [1.0])
    affine = build(DENSITIES, "name", {"name": "affine", "slope": 1.0}, domain)
    # (1 + x) / (1 + 1/2) on the unit square
    assert_allclose(affine(np.array([[1.0, 0.3]])), [4.0 / 3.0], rtol=0, atol=1e-15)
    with pytest.raises(KeyError):
        build(DENSITIES, "name", {"name": "rings"}, domain)

"""Geometric graph construction, total variation, and connectivity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pctv import kernels
from pctv.geometry import PointCloud, grid_points, sample_iid, uniform_density, unit_box
from pctv.graph import (
    WeightedGraph,
    build_graph,
    coarea_decompose,
    coarea_reconstruct,
    component_labels,
    connected_at,
    connection_distance,
    graph_perimeter,
    graph_total_variation,
    is_connected,
)

from oracles import bfs_component_labels, exact_edges, gtv_reference, pairwise_edges


def _random_cloud(n, d, seed):
    domain = unit_box(d)
    return sample_iid(domain, uniform_density(domain), n, seed=seed)


@pytest.mark.parametrize("d,profile,eps", [
    (1, kernels.indicator(), 0.2),
    (2, kernels.indicator(), 0.25),
    (2, kernels.gaussian(), 0.08),
    (2, kernels.step_sum([0.5, 1.0], [2.0, 0.5]), 0.3),
    (3, kernels.indicator(), 0.4),
])
def test_build_graph_matches_pairwise_oracle(d, profile, eps):
    cloud = _random_cloud(70, d, seed=d * 13 + 1)
    built = build_graph(cloud, profile, eps)
    cutoff = eps * kernels.effective_support(profile, d)
    ii, jj, ww = pairwise_edges(cloud.points, profile.fn, eps, d, cutoff)
    assert np.array_equal(built.ii, ii)
    assert np.array_equal(built.jj, jj)
    assert_allclose(built.ww, ww, rtol=1e-12)


PROFILES = {
    "indicator": kernels.indicator(),
    "gaussian": kernels.gaussian(),
    "step-sum": kernels.step_sum([0.5, 1.0], [2.0, 0.5]),
}
GRID_SIDES = {1: 40, 2: 9, 3: 5}


def _exact_cases():
    """(name, points, eps) cases; on the grids the last bit of a distance decides edges."""
    for d in (1, 2, 3):
        yield f"random-{d}d", _random_cloud(90, d, seed=d + 40).points, 0.5 / d
        k = GRID_SIDES[d]
        for side, eps in (("below", np.nextafter(1.0 / k, 0.0)), ("at", 1.0 / k),
                          ("above", np.nextafter(1.0 / k, 1.0))):
            # Grid neighbours sit at distance 1/k up to rounding, so many
            # pairs fall within an ulp of the radius.
            yield f"grid-{d}d-{side}", grid_points(k, d), eps
        yield f"duplicates-{d}d", np.repeat(_random_cloud(20, d, seed=d).points, 3, axis=0), 0.4
    for n in (0, 1):
        yield f"n{n}", np.full((n, 2), 0.5), 0.3


EXACT_CASES = list(_exact_cases())


@pytest.mark.parametrize("kernel", list(PROFILES))
@pytest.mark.parametrize("case,points,eps", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def test_build_graph_matches_the_exact_edge_oracle(case, points, eps, kernel):
    profile = PROFILES[kernel]
    d = points.shape[1]
    built = build_graph(PointCloud(points=points, seed=0), profile, eps)
    radius = eps * kernels.effective_support(profile, d)
    ii, jj, ww = exact_edges(points, profile.fn, eps, d, radius)
    assert np.array_equal(built.ii, ii)
    assert np.array_equal(built.jj, jj)
    assert np.array_equal(built.ww, ww)


def test_edges_are_ordered_and_simple():
    cloud = _random_cloud(150, 2, seed=4)
    built = build_graph(cloud, kernels.indicator(), 0.2)
    assert (built.ii < built.jj).all()
    keys = built.ii.astype(np.int64) * built.n + built.jj
    assert (np.diff(keys) > 0).all()
    assert built.edge_count == built.ii.size
    assert (built.ww > 0).all()


def _corners():
    return PointCloud(points=np.array([[0.0, 0.0], [1.0, 0.0],
                                       [0.0, 1.0], [1.0, 1.0]]), seed=0)


def test_pairs_at_exactly_eps_follow_the_open_profile():
    # The indicator is 0 at its radius, so sides of length exactly eps go.
    at_radius = build_graph(_corners(), kernels.indicator(), 1.0)
    assert at_radius.edge_count == 0
    assert at_radius.ii.dtype == np.int32 and at_radius.jj.dtype == np.int32
    # One ulp more keeps all four sides and no diagonal.
    eps = np.nextafter(1.0, 2.0)
    above = build_graph(_corners(), kernels.indicator(), eps)
    assert list(zip(above.ii.tolist(), above.jj.tolist())) == [
        (0, 1), (0, 2), (1, 3), (2, 3)]
    assert_allclose(above.ww, eps ** -2, rtol=0)
    assert above.ii.dtype == np.int32 and above.jj.dtype == np.int32


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_clouds_give_empty_graphs(n):
    built = build_graph(PointCloud(points=np.zeros((n, 2)), seed=0),
                        kernels.indicator(), 0.5)
    assert built.n == n and built.edge_count == 0
    assert built.ii.dtype == np.int32 and built.jj.dtype == np.int32
    assert built.ww.shape == (0,)
    assert component_labels(built).shape == (n,)


def test_tiny_weights_fall_below_the_floor():
    points = np.array([[0.0, 0.0], [0.3, 0.0], [0.7, 0.0]])
    from pctv.geometry import PointCloud
    cloud = PointCloud(points=points, seed=0)
    profile = kernels.step_sum([0.5, 1.0], [1.0, 1e-16])
    built = build_graph(cloud, profile, 1.0)
    # pairs at distance 0.7 and 1.0 carry weight 1e-16 < the 1e-15 floor
    assert built.edge_count == 2
    assert set(zip(built.ii, built.jj)) == {(0, 1), (1, 2)}


def test_gtv_two_point_value():
    g = WeightedGraph(2, 1, 0.5, np.array([0]), np.array([1]), np.array([0.25]))
    # 2 * 0.25 * |1 - 0| / (0.5 * 4) = 0.25
    assert_allclose(graph_total_variation(g, np.array([1.0, 0.0])), 0.25)


def test_gtv_matches_direct_sum():
    cloud = _random_cloud(80, 2, seed=8)
    built = build_graph(cloud, kernels.indicator(), 0.3)
    rng = np.random.default_rng(0)
    values = rng.normal(size=built.n)
    expected = gtv_reference(built.ii, built.jj, built.ww, values, built.n, built.eps)
    assert_allclose(graph_total_variation(built, values), expected, rtol=1e-12)


def test_gtv_invariances():
    cloud = _random_cloud(60, 2, seed=3)
    built = build_graph(cloud, kernels.indicator(), 0.3)
    rng = np.random.default_rng(1)
    u = rng.normal(size=built.n)
    v = rng.normal(size=built.n)
    base = graph_total_variation(built, u)
    assert_allclose(graph_total_variation(built, u + 3.7), base, rtol=1e-12)
    assert_allclose(graph_total_variation(built, -2.0 * u), 2.0 * base, rtol=1e-12)
    assert graph_total_variation(built, np.full(built.n, 5.0)) == 0.0
    subadd = graph_total_variation(built, u + v)
    assert subadd <= base + graph_total_variation(built, v) + 1e-12


def test_indicator_identity_with_perimeter():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(10, 120))
        cloud = _random_cloud(n, 2, seed=int(rng.integers(1 << 30)))
        built = build_graph(cloud, kernels.indicator(), 0.35)
        mask = rng.random(n) < 0.5
        lhs = graph_total_variation(built, mask.astype(float))
        rhs = graph_perimeter(built, mask) / (n * n * built.eps)
        assert_allclose(lhs, rhs, rtol=1e-14)


def test_coarea_decomposition_is_exact():
    cloud = _random_cloud(90, 2, seed=5)
    built = build_graph(cloud, kernels.indicator(), 0.3)
    rng = np.random.default_rng(2)
    levels = np.array([-1.0, 0.25, 1.5, 4.0])
    u = levels[rng.integers(0, 4, size=built.n)]
    layers = coarea_decompose(built, u)
    total = sum(layer.gap * layer.gtv for layer in layers)
    assert_allclose(total, graph_total_variation(built, u), rtol=1e-14)
    assert_allclose(coarea_reconstruct(layers), total, rtol=0, atol=0)


def test_coarea_edge_cases():
    cloud = _random_cloud(40, 2, seed=6)
    built = build_graph(cloud, kernels.indicator(), 0.3)
    binary = (np.arange(built.n) % 2).astype(float)
    layers = coarea_decompose(built, binary)
    assert len(layers) == 1
    assert_allclose(coarea_reconstruct(layers), graph_total_variation(built, binary),
                    rtol=1e-14)
    constant = np.full(built.n, 2.5)
    assert coarea_decompose(built, constant) == []
    assert coarea_reconstruct([]) == 0.0


def test_component_labels_on_two_blocks():
    ii = np.array([0, 1, 3])
    jj = np.array([1, 2, 4])
    g = WeightedGraph(6, 1, 1.0, ii, jj, np.ones(3))
    labels = component_labels(g)
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4]
    assert labels[0] != labels[3]
    assert labels[5] not in (labels[0], labels[3])
    assert not is_connected(g)


def test_component_labels_match_bfs_oracle():
    rng = np.random.default_rng(11)
    cases = [(7, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    for _ in range(30):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, n + 5))
        ends = rng.integers(0, n, size=(m, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        # the tests build graphs with default int64 endpoints
        cases.append((n, ends.min(axis=1), ends.max(axis=1)))
    # isolated vertices at both ends and in the middle
    cases.append((9, np.array([1, 2, 5]), np.array([2, 3, 6])))
    for n, ii, jj in cases:
        g = WeightedGraph(n, 1, 1.0, ii, jj, np.ones(ii.size))
        assert np.array_equal(component_labels(g), bfs_component_labels(n, ii, jj))
    built = build_graph(_random_cloud(300, 2, seed=12), kernels.indicator(), 0.07)
    assert np.array_equal(component_labels(built),
                          bfs_component_labels(built.n, built.ii, built.jj))


def test_connectivity_cases():
    path = WeightedGraph(4, 1, 1.0, np.array([0, 1, 2]), np.array([1, 2, 3]),
                         np.ones(3))
    assert is_connected(path)
    empty = WeightedGraph(3, 1, 1.0, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                          np.zeros(0))
    assert not is_connected(empty)
    single = WeightedGraph(1, 1, 1.0, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                           np.zeros(0))
    assert is_connected(single)


def test_connectivity_tracks_the_scale():
    cloud = _random_cloud(600, 2, seed=17)
    sparse = build_graph(cloud, kernels.indicator(), 0.01)
    dense = build_graph(cloud, kernels.indicator(), 0.35)
    assert not is_connected(sparse)
    assert is_connected(dense)


def _connection_cases():
    """EXACT_CASES plus clouds whose connection distance the search reaches late."""
    yield from EXACT_CASES
    yield "n2", np.array([[0.1, 0.2], [0.4, 0.6]]), 0.3
    for d in (1, 2, 3):
        yield f"coincident-{d}d", np.full((12, d), 0.25), 0.3
        # Two blobs of width 0.2 whose gap of about 1.8 is the connection
        # distance: the search doubles its radius from the blobs'
        # nearest-neighbour distance several times before it spans.
        blobs = 0.2 * _random_cloud(60, d, seed=d + 70).points
        blobs[30:, 0] += 2.0
        yield f"dumbbell-{d}d", blobs, 0.3


CONNECTION_CASES = list(_connection_cases())
CONNECTION_PROFILES = dict(
    PROFILES,
    # Closed at its radius, so a pair at exactly eps * support is an edge.
    closed=kernels.KernelProfile("closed", lambda r: np.where(r <= 1.0, 1.0, 0.0), 1.0, (1.0,)),
    # Its outer step weighs eps^-d * 1e-16, under the floor once eps^d > 0.1.
    floor=kernels.step_sum([0.5, 1.0], [1.0, 1e-16]),
)


@pytest.mark.parametrize("kernel", list(CONNECTION_PROFILES))
@pytest.mark.parametrize("case,points,eps", CONNECTION_CASES,
                         ids=[c[0] for c in CONNECTION_CASES])
def test_connected_at_the_connection_distance_matches_built_graphs(case, points, eps, kernel):
    profile = CONNECTION_PROFILES[kernel]
    n, d = points.shape
    cloud = PointCloud(points=points, seed=0)
    distance = connection_distance(points)
    scales = [eps]
    if distance > 0:
        # eps at which the pair at the connection distance meets the radius,
        # one ulp either side, and well inside it.
        edge = distance / kernels.effective_support(profile, d)
        scales += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 3.0 * edge]
    for scale in scales:
        radius = scale * kernels.effective_support(profile, d)
        ii, jj, _ = exact_edges(points, profile.fn, scale, d, radius)
        oracle = bool(np.all(bfs_component_labels(n, ii, jj) == 0))
        assert is_connected(build_graph(cloud, profile, scale)) == oracle, scale
        assert connected_at(profile, scale, distance, d) == oracle, scale


def test_connection_distance_is_the_longest_spanning_tree_edge():
    assert connection_distance(np.zeros((0, 2))) == -np.inf
    assert connection_distance(np.zeros((1, 3))) == -np.inf
    assert connection_distance(np.full((5, 2), 0.5)) == 0.0
    # A path 0 - 1 - 3 - 6 on the line: its longest link is 3 and no
    # shorter threshold joins 6 to the rest.
    assert connection_distance(np.array([[0.0], [1.0], [3.0], [6.0]])) == 3.0
    tripled = np.repeat(np.array([[0.0, 0.0], [0.0, 2.0], [1.5, 2.0]]), 3, axis=0)
    assert connection_distance(tripled) == 2.0

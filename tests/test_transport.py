"""Discrete transport: TL^p distances and bottleneck matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import pctv.transport
from pctv.errors import ConfigError, PCTVError, UnsupportedConfigurationError
from pctv.experiments import run_experiment
from pctv.geometry import grid_points, sample_iid, uniform_density, unit_box
from pctv.graph import connection_distance
from pctv.transport import (
    bottleneck_distance,
    scaling_ratio,
    tlp_distance,
    _augment,
    _bipartite_candidates,
    _grow,
)

from oracles import (
    bipartite_pairs,
    exhaustive_bottleneck,
    exhaustive_tlp,
    matching_size,
    threshold_bottleneck,
)


def test_values_need_one_per_point():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="expected 2 point values"):
        tlp_distance(x, np.zeros(3), x, np.zeros(2))
    with pytest.raises(ValueError, match="expected 2 point values"):
        tlp_distance(x, np.zeros(2), x, np.zeros((2, 1)))


def test_two_atom_distance_by_hand():
    x = np.array([[0.0], [1.0]])
    y = np.array([[0.4], [1.0]])
    assert_allclose(tlp_distance(x, np.zeros(2), y, np.zeros(2), p=1), 0.2)


def test_identical_measures_have_zero_distance():
    pts = np.array([[0.1, 0.2], [0.5, 0.9], [0.3, 0.3]])
    values = np.array([0.4, -1.0, 2.0])
    assert tlp_distance(pts, values, pts, values, p=2) == 0.0


def test_ot_matches_exhaustive_on_small_uniform_instances():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        x = rng.uniform(size=(n, 2))
        y = rng.uniform(size=(n, 2))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        distance = tlp_distance(x, np.zeros(n), y, np.zeros(n), p=p)
        oracle = exhaustive_tlp(x, np.zeros(n), y, np.zeros(n), p)
        assert abs(distance - oracle) < 1e-10


def test_unequal_counts_by_hand():
    # Two points against three on the line, so the LP decides.  Every
    # plan sends mass 1/3 to the middle point, whose value adds 1 to its
    # cost; the rest is the transport between the clouds, read off their
    # quantile functions: 1/6 for p = 1, 1/12 for p = 2.
    x, f = np.array([[0.0], [1.0]]), np.zeros(2)
    y, g = np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 1.0, 0.0])
    for p, cost in ((1, 1 / 6 + 1 / 3), (2, 1 / 12 + 1 / 3)):
        assert_allclose(tlp_distance(x, f, y, g, p=p), cost ** (1 / p), rtol=1e-9)
        assert_allclose(tlp_distance(y, g, x, f, p=p), cost ** (1 / p), rtol=1e-9)


def test_lp_and_assignment_paths_agree():
    # Uniform mass on y repeated twice is uniform mass on y: the doubled
    # cloud takes the LP, the plain one the assignment solver.
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x, y = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
        f, g = rng.normal(size=n), rng.normal(size=n)
        p = float(rng.choice([1.0, 2.0]))
        doubled = tlp_distance(x, f, np.vstack([y, y]), np.concatenate([g, g]), p=p)
        assert abs(doubled - tlp_distance(x, f, y, g, p=p)) < 1e-12


def _lp_instance(p):
    """Costs of 64 uniform points against the 8 x 8 grid, f = x_0 on both."""
    x, y = np.random.default_rng(0).random((64, 2)), grid_points(8, 2)
    with np.errstate(over="ignore"):
        return cdist(x, y) ** p + np.abs(x[:, :1] - y[:, 0]) ** p


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_transport_lp_is_exact_at_small_costs(p):
    # Costs of |x - y|^p fall under the solver's absolute tolerance; the
    # LP must still reach the optimum that the assignment solver finds.
    cost = _lp_instance(p)
    rows, cols = linear_sum_assignment(cost)
    assert_allclose(pctv.transport._transport_lp(cost), cost[rows, cols].mean(), rtol=1e-12)


@pytest.mark.parametrize("p", [64, 1e6])
def test_transport_lp_refuses_what_it_cannot_certify(p):
    # at p = 64 the solver fails on the scaled costs, at 1e6 they overflow
    with pytest.raises(PCTVError):
        pctv.transport._transport_lp(_lp_instance(p))


def test_transport_lp_scales_by_the_positive_costs_when_every_row_holds_a_zero():
    # every point of x also lies in y, so each row minimum is 0; the
    # optimum sends half of each x_i to its copy x_i + 1e-9 at cost 3e-18
    x = np.random.default_rng(0).random((30, 2))
    y = np.vstack([x, x + 1e-9])
    assert_allclose(tlp_distance(x, x[:, 0], y, y[:, 0], p=2), np.sqrt(1.5e-18), rtol=1e-6)


def test_transport_lp_refuses_a_perturbed_dual(monkeypatch):
    solve = pctv.transport.linprog

    def perturbed(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.eqlin.marginals[0] += 1e-6 * res.fun
        return res

    monkeypatch.setattr(pctv.transport, "linprog", perturbed)
    with pytest.raises(UnsupportedConfigurationError, match="not certified optimal"):
        pctv.transport._transport_lp(_lp_instance(2))


def test_tlp_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        x = rng.uniform(size=(n, 1))
        y = rng.uniform(size=(n, 1))
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        p = float(rng.choice([1.0, 2.0]))
        oracle = exhaustive_tlp(x, f, y, g, p)
        assert abs(tlp_distance(x, f, y, g, p=p) - oracle) < 1e-10


def test_tlp_metric_axioms_on_random_triples():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        fns = [(rng.uniform(size=(n, 2)), rng.normal(size=n)) for _ in range(3)]
        dab = tlp_distance(*fns[0], *fns[1], p=2)
        dba = tlp_distance(*fns[1], *fns[0], p=2)
        dac = tlp_distance(*fns[0], *fns[2], p=2)
        dcb = tlp_distance(*fns[2], *fns[1], p=2)
        assert abs(dab - dba) < 1e-12
        assert dab <= dac + dcb + 1e-10
        assert tlp_distance(*fns[0], *fns[0], p=2) == 0.0


def test_bottleneck_matches_exhaustive_oracle():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        x = rng.uniform(size=(n, 2))
        y = rng.uniform(size=(n, 2))
        distance, assignment = bottleneck_distance(x, y)
        oracle = exhaustive_bottleneck(x, y)
        assert abs(distance - oracle) < 1e-12
        moved = np.linalg.norm(x - y[assignment], axis=1)
        assert_allclose(moved.max(), distance, rtol=1e-12)


def _check_against_threshold_oracle(x, y) -> float:
    distance, assignment = bottleneck_distance(x, y)
    assert distance == threshold_bottleneck(x, y)
    assert assignment.dtype == np.int64
    assert np.array_equal(np.sort(assignment), np.arange(len(x)))
    assert np.linalg.norm(x - y[assignment], axis=1).max() == distance
    return distance


@pytest.mark.parametrize("d,n", [(2, 36), (2, 64), (2, 100), (3, 27), (3, 64),
                                 (4, 81), (5, 32)])
def test_bottleneck_matches_threshold_oracle_against_grids(d, n):
    domain = unit_box(d)
    grid = grid_points(round(n ** (1.0 / d)), d)
    for seed in range(3):
        cloud = sample_iid(domain, uniform_density(domain), n, seed=seed).points
        _check_against_threshold_oracle(cloud, grid)


@pytest.mark.parametrize("k", [6, 8])
def test_bottleneck_matches_threshold_oracle_on_a_shifted_grid(k):
    # many pairs share each distance, so many levels tie
    grid = grid_points(k, 2)
    _check_against_threshold_oracle(grid + [0.0, 1.0 / k], grid)


def test_bottleneck_matches_threshold_oracle_on_the_line():
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 60):
        _check_against_threshold_oracle(rng.uniform(size=(n, 1)),
                                        grid_points(n, 1))


@pytest.mark.parametrize("jitter", [0.0, 1e-3])
def test_bottleneck_matches_threshold_oracle_far_above_the_bound(jitter):
    # squaring the first coordinate of a grid moves mass a quarter of the
    # way across while every point keeps a neighbour about one spacing
    # away, so the radius has to grow over several rounds
    grid = grid_points(10, 2)
    x = grid.copy()
    x[:, 0] **= 2
    x += np.random.default_rng(3).normal(scale=jitter, size=x.shape)
    bound = max(cKDTree(grid).query(x)[0].max(), cKDTree(x).query(grid)[0].max())
    assert _check_against_threshold_oracle(x, grid) >= 3 * bound


def test_bottleneck_with_a_zero_bound_but_no_zero_cost_matching():
    # every point sits on a point of the other side, yet one must move:
    # the search starts from the fallback radius and has to grow it
    a, b = [0.0, 0.0], [5.0, 0.0]
    x, y = np.array([a, a, b]), np.array([a, b, b])
    assert _check_against_threshold_oracle(x, y) == 5.0


def test_bottleneck_radius_guard_covers_the_bounding_box_diagonal():
    # the optimum, the diagonal 1.5 sqrt(8), is more than twice the widest
    # axis extent 1.5, so a guard on that extent alone gave up too early
    o, e = np.zeros(8), np.full(8, 1.5)
    x, y = np.array([o, o, e]), np.array([o, e, e])
    assert _check_against_threshold_oracle(x, y) == float(np.linalg.norm(e))


@st.composite
def _integer_clouds(draw):
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    coords = st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d)
    x = np.array(draw(coords), dtype=float).reshape(n, d)
    y = np.array(draw(coords), dtype=float).reshape(n, d)
    return x, y


@settings(max_examples=200, deadline=None)
@given(_integer_clouds())
def test_bottleneck_matches_threshold_oracle_on_integer_clouds(clouds):
    # coincident points and many equal distances on a small lattice
    _check_against_threshold_oracle(*clouds)


def _count_radii(monkeypatch):
    """The radii that bottleneck_distance draws from the shared schedule."""
    radii, drawn = pctv.transport._radii, []

    def counted(*args):
        for radius in radii(*args):
            drawn.append(radius)
            yield radius

    monkeypatch.setattr(pctv.transport, "_radii", counted)
    return drawn


def test_one_radius_round_when_the_first_radius_is_feasible(monkeypatch):
    # every point sits 1/k above a grid point, which is the bound, so the
    # first radius, just above it, already matches all
    drawn = _count_radii(monkeypatch)
    grid = grid_points(6, 2)
    assert _check_against_threshold_oracle(grid + [0.0, 1.0 / 6], grid) > 0
    assert_allclose(drawn, [(1 + 1e-9) / 6], rtol=1e-12)


def test_the_radius_grows_by_the_square_root_of_two_in_the_plane(monkeypatch):
    # the bound is 0, so the search starts at 4 n^(-1/2) with n = 3, and
    # the optimum 5 takes four rounds of growth by 2^(1/2)
    drawn = _count_radii(monkeypatch)
    a, b = [0.0, 0.0], [5.0, 0.0]
    _check_against_threshold_oracle(np.array([a, a, b]), np.array([a, b, b]))
    assert_allclose(drawn, [4 * 3 ** -0.5 * 2 ** (k / 2) for k in range(4)], rtol=1e-15)


@pytest.mark.parametrize("d,n,k,seeds", [(2, 1024, 32, range(5)), (3, 1000, 10, [4])],
                         ids=["plane", "space"])
def test_no_probe_gets_more_than_twice_the_pairs_within_the_optimum(monkeypatch, d, n, k, seeds):
    # growing the radius by 2^(1/d) about doubles the pairs per round, and
    # a feasible probe trims to its level; doubling the radius handed
    # _grow 2.4-3.3 times these pairs in the plane and 5.8 times in space
    grow, sizes = pctv.transport._grow, []

    def counted(n, rows, cols, match):
        sizes.append(rows.size)
        return grow(n, rows, cols, match)

    monkeypatch.setattr(pctv.transport, "_grow", counted)
    domain, grid = unit_box(d), grid_points(k, d)
    for seed in seeds:
        sizes.clear()
        x = sample_iid(domain, uniform_density(domain), n, seed=seed).points
        distance, _ = bottleneck_distance(x, grid)
        within = _bipartite_candidates(x, grid, distance)[0].size
        assert sizes and max(sizes) <= 2 * within


def _random_partial_matching(rng, n, ci, cj):
    """Greedy over the edges in random order, then about half the rows freed."""
    match = np.full(n, -1, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    for e in rng.permutation(ci.size):
        if match[ci[e]] < 0 and not taken[cj[e]]:
            match[ci[e]], taken[cj[e]] = cj[e], True
    match[rng.uniform(size=n) < 0.5] = -1
    return match


def _matching_instances():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        x, y = rng.uniform(size=(40, d)), rng.uniform(size=(40, d))
        optimum = threshold_bottleneck(x, y)
        for radius in (0.5 * optimum, 0.9 * optimum, optimum, 1.5 * optimum):
            yield x, y, radius
    for d in (1, 2, 3):
        # integer lattice points, many of them coincident
        x = rng.integers(0, 3, size=(30, d)).astype(float)
        y = rng.integers(0, 3, size=(30, d)).astype(float)
        for radius in (0.0, 1.0, np.sqrt(2.0)):
            yield x, y, radius


def test_grow_and_flow_reach_maximum_matchings_of_equal_size():
    rng = np.random.default_rng(29)
    for x, y, radius in _matching_instances():
        n = len(x)
        ci, cj, _ = bipartite_pairs(x, y, radius)  # sorted by row
        allowed = np.zeros((n, n), dtype=bool)
        allowed[ci, cj] = True
        size = matching_size(allowed)
        # the flow starts from no matching, _grow from partial ones too
        starts = [np.full(n, -1, dtype=np.int64)]
        starts += [_random_partial_matching(rng, n, ci, cj) for _ in range(3)]
        matches = [(start, _grow(n, ci, cj, start)) for start in starts]
        matches.append((starts[0], _augment(n, ci, cj)))
        for start, match in matches:
            rows = np.flatnonzero(match >= 0)
            assert rows.size == size
            assert allowed[rows, match[rows]].all()
            assert np.unique(match[rows]).size == rows.size
            # augmenting paths never free a matched row
            assert (match[start >= 0] >= 0).all()
            assert (start >= 0).sum() <= size


def test_grow_from_empty_matches_the_flow_at_the_benchmark_shape():
    # the first candidate set of a matching-scaling instance: n = 4096 in
    # the plane, the radius just above the nearest-neighbour bound
    domain, grid = unit_box(2), grid_points(64, 2)
    x = sample_iid(domain, uniform_density(domain), 4096, seed=0).points
    bound = max(cKDTree(grid).query(x)[0].max(), cKDTree(x).query(grid)[0].max())
    ci, cj, _ = _bipartite_candidates(x, grid, bound * (1 + 1e-9))
    order = np.argsort(ci, kind="stable")
    ci, cj = ci[order], cj[order]
    n = len(x)
    match, flow = _grow(n, ci, cj, np.full(n, -1, dtype=np.int64)), _augment(n, ci, cj)
    rows = np.flatnonzero(match >= 0)
    assert rows.size == np.count_nonzero(flow >= 0) < n
    assert np.unique(match[rows]).size == rows.size
    assert np.isin(rows * n + match[rows], ci * n + cj).all()


@pytest.mark.parametrize("shift", [False, True])
def test_bipartite_candidates_match_dense_scan(shift):
    k = 8
    grid = grid_points(k, 2)
    domain = unit_box(2)
    cloud = sample_iid(domain, uniform_density(domain), 70, seed=23).points
    # the grid one row up puts many pairs at the radius itself
    points = grid + [0.0, 1.0 / k] if shift else cloud
    for radius in (0.5 / k, 1.0 / k, 0.3):
        ci, cj, dist = _bipartite_candidates(points, grid, radius)
        ii, jj, expected = bipartite_pairs(points, grid, radius)
        assert ii.size > 0
        order = np.lexsort((cj, ci))
        assert np.array_equal(ci[order], ii)
        assert np.array_equal(cj[order], jj)
        assert np.array_equal(dist[order], expected)
        assert_allclose(expected, cdist(points, grid)[ii, jj], rtol=1e-15, atol=0)


def test_bottleneck_on_identical_grids_is_zero():
    grid = grid_points(5, 2)
    distance, assignment = bottleneck_distance(grid, grid)
    assert distance == 0.0
    assert np.array_equal(assignment, np.arange(25))


@pytest.mark.parametrize("stacked", [False, True], ids=["assignment", "lp"])
def test_distances_below_1e_14_are_not_rounded_to_zero(stacked):
    # every point moves by about 3e-15 sqrt(2) = 4.24e-15, and no other
    # pairing comes close; stacking y on x sends the TL^2 solve to the LP
    x = np.random.default_rng(0).random((50, 2))
    y = x + 3e-15
    moves = np.linalg.norm(x - y, axis=1)
    assert_allclose(bottleneck_distance(x, y)[0], moves.max(), rtol=1e-12)
    target = np.vstack([y, x]) if stacked else y
    values = np.zeros(len(target))
    # half of the stacked mass stays on x at no cost
    mean_square = np.mean(moves ** 2) / (2 if stacked else 1)
    distance = tlp_distance(x, np.zeros(50), target, values, p=2)
    assert distance > 0
    assert_allclose(distance, np.sqrt(mean_square), rtol=1e-6)
    if stacked:
        assert tlp_distance(x, np.zeros(50), np.vstack([x, x]), values, p=2) == 0.0


def test_point_arrays_must_be_two_dimensional():
    # a 1-d array of n points is not one point in n dimensions
    for call in (lambda: bottleneck_distance([0.0, 1.0], [1.0, 0.0]),
                 lambda: connection_distance([0.0, 1.0, 3.0]),
                 lambda: tlp_distance([0.0, 1.0], [0.0, 0.0], [[0.0], [1.0]], [0.0, 0.0]),
                 lambda: connection_distance(np.zeros((2, 2, 2)))):
        with pytest.raises(ValueError, match=r"expected an \(n, d\) array of points"):
            call()


def test_bottleneck_requires_uniform_equal_counts():
    with pytest.raises(UnsupportedConfigurationError):
        bottleneck_distance(np.array([[0.0], [1.0]]), np.array([[0.0], [0.5], [1.0]]))


def test_scaling_ratio_formulas():
    assert_allclose(scaling_ratio(100, 2, 0.1),
                    0.1 * 10.0 / np.log(100) ** 0.75)
    assert_allclose(scaling_ratio(1000, 3, 0.05),
                    0.05 * 1000 ** (1 / 3) / np.log(1000) ** (1 / 3))


def test_matching_experiment_validates_grid_sizes(tmp_path):
    cfg = {"dimension": 2, "n": [10], "seeds": [0]}
    with pytest.raises(ConfigError, match="^/n/0: "):
        run_experiment("matching-scaling", cfg, str(tmp_path / "out"))


def test_matching_experiment_smoke(tmp_path):
    cfg = {"dimension": 2, "n": [16, 64], "seeds": [0, 1, 2]}
    payload = run_experiment("matching-scaling", cfg, str(tmp_path / "out"))
    rows = (tmp_path / "out" / "records.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(float(row.split(",")[3]) > 0 for row in rows)
    assert -1.0 <= payload["summary"]["kendall_tau"] <= 1.0
    assert 0.0 <= payload["summary"]["pvalue_two_sided"] <= 1.0

"""Discrete transport: OT and TL^p distances, plans, bottleneck matching."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from pctv.errors import ConfigError, MarginalError, UnsupportedConfigurationError
from pctv.experiments import run_experiment
from pctv.geometry import grid_points, sample_iid, uniform_density, unit_box
from pctv.transport import (
    DiscreteMeasure,
    LiftedFunction,
    TransportPlan,
    bottleneck_distance,
    ot_distance,
    scaling_ratio,
    tlp_distance,
    _bipartite_candidates,
)

from oracles import (
    bipartite_pairs,
    exhaustive_bottleneck,
    exhaustive_tlp,
    threshold_bottleneck,
)


def _uniform_measure(points):
    return DiscreteMeasure.uniform_on(np.asarray(points, dtype=float))


def test_measure_validation():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([1.2, -0.2]))
    measure = DiscreteMeasure.uniform_on(pts)
    assert measure.uniform
    assert measure.n == 2
    assert measure.dimension == 1


def test_two_atom_distance_by_hand():
    mu = _uniform_measure([[0.0], [1.0]])
    nu = _uniform_measure([[0.4], [1.0]])
    distance, plan = ot_distance(mu, nu, p=1)
    assert_allclose(distance, 0.2)
    assert_allclose(plan.cost(1), 0.2)


def test_identical_measures_have_zero_distance():
    pts = np.array([[0.1, 0.2], [0.5, 0.9], [0.3, 0.3]])
    mu = _uniform_measure(pts)
    distance, plan = ot_distance(mu, mu, p=2)
    assert distance == 0.0
    assert_allclose(plan.cost(2), 0.0, atol=1e-30)


def test_ot_matches_exhaustive_on_small_uniform_instances():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        x = rng.uniform(size=(n, 2))
        y = rng.uniform(size=(n, 2))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        distance, plan = ot_distance(_uniform_measure(x), _uniform_measure(y), p=p)
        oracle = exhaustive_tlp(x, np.zeros(n), y, np.zeros(n), p)
        assert abs(distance - oracle) < 1e-10
        assert_allclose(plan.cost(p) ** (1.0 / p), distance, rtol=1e-10)


def test_general_masses_use_the_lp_solver():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
    nu = DiscreteMeasure(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
    distance, plan = ot_distance(mu, nu, p=1)
    # move 0.3 from 0 to 0.25, 0.2 from 1 to 0.25, 0.5 from 1 to 0.75
    assert_allclose(distance, 0.3 * 0.25 + 0.2 * 0.75 + 0.5 * 0.25, rtol=1e-9)
    assert_allclose(np.bincount(plan.ii, weights=plan.mm, minlength=2),
                    mu.masses, atol=1e-10)
    assert_allclose(np.bincount(plan.jj, weights=plan.mm, minlength=2),
                    nu.masses, atol=1e-10)


def test_tlp_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        x = rng.uniform(size=(n, 1))
        y = rng.uniform(size=(n, 1))
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        p = float(rng.choice([1.0, 2.0]))
        distance, _ = tlp_distance(
            LiftedFunction(_uniform_measure(x), f),
            LiftedFunction(_uniform_measure(y), g),
            p=p,
        )
        oracle = exhaustive_tlp(x, f, y, g, p)
        assert abs(distance - oracle) < 1e-10


def test_tlp_metric_axioms_on_random_triples():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        lifted = []
        for _ in range(3):
            pts = rng.uniform(size=(n, 2))
            lifted.append(LiftedFunction(_uniform_measure(pts), rng.normal(size=n)))
        dab, _ = tlp_distance(lifted[0], lifted[1], p=2)
        dba, _ = tlp_distance(lifted[1], lifted[0], p=2)
        dac, _ = tlp_distance(lifted[0], lifted[2], p=2)
        dcb, _ = tlp_distance(lifted[2], lifted[1], p=2)
        assert abs(dab - dba) < 1e-12
        assert dab <= dac + dcb + 1e-10
        same, _ = tlp_distance(lifted[0], lifted[0], p=2)
        assert same == 0.0


def test_plan_marginal_validation():
    mu = _uniform_measure(np.array([[0.0], [1.0]]))
    nu = _uniform_measure(np.array([[0.5], [1.5]]))
    with pytest.raises(MarginalError):
        TransportPlan(mu, nu, np.array([0, 0]), np.array([0, 1]),
                      np.array([0.5, 0.5]))


def test_bottleneck_matches_exhaustive_oracle():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        x = rng.uniform(size=(n, 2))
        y = rng.uniform(size=(n, 2))
        distance, assignment = bottleneck_distance(_uniform_measure(x), _uniform_measure(y))
        oracle = exhaustive_bottleneck(x, y)
        assert abs(distance - oracle) < 1e-12
        moved = np.linalg.norm(x - y[assignment], axis=1)
        assert_allclose(moved.max(), distance, rtol=1e-12)


def _check_against_threshold_oracle(x, y) -> float:
    distance, assignment = bottleneck_distance(_uniform_measure(x), _uniform_measure(y))
    assert distance == threshold_bottleneck(x, y)
    assert assignment.dtype == np.int64
    assert np.array_equal(np.sort(assignment), np.arange(len(x)))
    assert np.linalg.norm(x - y[assignment], axis=1).max() == distance
    return distance


@pytest.mark.parametrize("d,n", [(2, 36), (2, 64), (2, 100), (3, 27), (3, 64)])
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


def test_bottleneck_with_a_zero_bound_but_no_zero_cost_matching():
    # every atom sits on an atom of the other side, yet one must move:
    # the search starts from the fallback radius and has to double it
    a, b = [0.0, 0.0], [5.0, 0.0]
    x, y = np.array([a, a, b]), np.array([a, b, b])
    assert _check_against_threshold_oracle(x, y) == 5.0


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
    grid = _uniform_measure(grid_points(5, 2))
    distance, assignment = bottleneck_distance(grid, grid)
    assert distance == 0.0
    assert np.array_equal(assignment, np.arange(25))


def test_bottleneck_requires_uniform_equal_counts():
    mu = _uniform_measure(np.array([[0.0], [1.0]]))
    nu = _uniform_measure(np.array([[0.0], [0.5], [1.0]]))
    with pytest.raises(UnsupportedConfigurationError):
        bottleneck_distance(mu, nu)
    skew = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
    with pytest.raises(UnsupportedConfigurationError):
        bottleneck_distance(skew, mu)


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

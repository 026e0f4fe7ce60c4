"""Balanced graph bisection: local search against the exhaustive oracle, sweeps."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csr_matrix

import pctv.bisection
from pctv.bisection import (
    Bisection,
    _swap_descent,
    _tl1_lower_bounds,
    _zero_energy_start,
    agreement,
    bisection_energy,
    local_search_bisection,
    reference_partitions,
    sweep_reference,
    sweep_run,
)
from pctv.errors import UnsupportedConfigurationError
from pctv.experiments import run_experiment
from pctv.geometry import Box, dumbbell, sample_iid, uniform_density, unit_box
from pctv.graph import WeightedGraph, build_graph
from pctv.kernels import indicator
from pctv.transport import tlp_distance

from oracles import dense_swap_descent, exhaustive_bisection


def _graph(n, edges, eps=1.0):
    ii = np.array([e[0] for e in edges], dtype=np.int64)
    jj = np.array([e[1] for e in edges], dtype=np.int64)
    ww = np.array([e[2] for e in edges], dtype=float)
    order = np.lexsort((jj, ii))
    return WeightedGraph(n=n, eps=eps,
                         ii=ii[order], jj=jj[order], ww=ww[order])


def _exact(graph):
    return exhaustive_bisection(graph.n, graph.ii, graph.jj, graph.ww, graph.eps)


def _random_graph(rng, n, density=0.6):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < density:
                edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    if not edges:
        edges.append((0, 1, 1.0))
    return _graph(n, edges)


def test_two_heavy_pairs_cut_the_light_edges():
    graph = _graph(4, [(0, 1, 10.0), (2, 3, 10.0),
                       (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)],
                   eps=0.5)
    energy, labels = _exact(graph)
    assert labels.tolist() == [True, True, False, False]
    assert_allclose(energy, 2.0 * 4.0 / (16 * 0.5))
    local = local_search_bisection(graph, seed=0)
    assert local.labels.tolist() == labels.tolist()
    assert_allclose(local.energy, energy)


def test_cycle_tie_breaks_to_smallest_label_vector():
    graph = _graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    for labels in (_exact(graph)[1], local_search_bisection(graph, seed=5).labels):
        assert labels.tolist() == [True, False, False, True]


def test_energy_agrees_with_graph_total_variation():
    rng = np.random.default_rng(2)
    graph = _random_graph(rng, 8)
    labels = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=bool)
    direct = 2.0 * sum(w for i, j, w in zip(graph.ii, graph.jj, graph.ww)
                       if labels[i] != labels[j]) / (64 * graph.eps)
    assert_allclose(bisection_energy(graph, labels), direct, rtol=1e-14)


def test_odd_inputs_are_rejected():
    odd = _graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(UnsupportedConfigurationError):
        local_search_bisection(odd, seed=0)


def test_bisection_class_enforces_canonical_balance():
    with pytest.raises(UnsupportedConfigurationError):
        Bisection(np.array([True, True, False]), 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        Bisection(np.array([True, True, True, False]), 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        Bisection(np.array([False, True, True, False]), 0.0)


def test_local_search_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(77)
    for trial in range(25):
        n = int(rng.choice([6, 8, 10]))
        graph = _random_graph(rng, n)
        exact, labels = _exact(graph)
        found = local_search_bisection(graph, seed=trial, restarts=16)
        assert found.energy <= exact * (1 + 1e-12) + 1e-15
        assert_allclose(bisection_energy(graph, labels), exact, rtol=1e-12)


def test_solutions_are_balanced_and_canonical():
    rng = np.random.default_rng(8)
    graph = _random_graph(rng, 12)
    result = local_search_bisection(graph, seed=1)
    assert result.labels[0]
    assert int(result.labels.sum()) == 6


def test_same_seed_gives_identical_labels():
    rng = np.random.default_rng(15)
    graph = _random_graph(rng, 14, density=0.4)
    a = local_search_bisection(graph, seed=9)
    b = local_search_bisection(graph, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.energy == b.energy


def _random_start(rng, n):
    start = np.zeros(n, dtype=bool)
    start[rng.permutation(n)[:n // 2]] = True
    return start


def _cut(dense, labels):
    ii, jj = np.nonzero(np.triu(dense))
    return float(dense[ii, jj][labels[ii] != labels[jj]].sum())


def _oracle_steps(dense, start, cut, final):
    # The cut falls on every swap, so no labeling repeats: the first step
    # count that reproduces the end point is the step the oracle stopped at.
    steps = 0
    while not np.array_equal(dense_swap_descent(dense, start, cut, steps)[0], final):
        steps += 1
    return steps


def _check_lockstep(dense, starts):
    """Descend all starts in one call; each must match the dense oracle alone."""
    cuts = np.array([_cut(dense, start) for start in starts])
    found, found_cuts = _swap_descent(csr_matrix(dense), np.array(starts), cuts)
    steps = []
    for start, cut, labels, found_cut in zip(starts, cuts, found, found_cuts):
        expected, expected_cut = dense_swap_descent(dense, start, cut, 10 * start.size)
        assert labels.tolist() == expected.tolist()
        assert_allclose(found_cut, expected_cut, rtol=1e-12)
        steps.append(_oracle_steps(dense, start, cut, expected))
    return steps


@pytest.mark.parametrize("seed", [3, 11, 29, 54])
@pytest.mark.parametrize("weights", ["distinct", "unit"])
def test_sparse_descent_matches_the_dense_oracle(seed, weights):
    # Unit weights make every sum exact, so tied gains stay tied and the
    # tie rule picks the pair; distinct weights leave no ties at all.
    rng = np.random.default_rng(seed)
    staggered = 0
    for n in range(6, 42, 2):
        graph = _random_graph(rng, n, density=float(rng.uniform(0.2, 0.8)))
        dense = np.zeros((n, n))
        dense[graph.ii, graph.jj] = graph.ww if weights == "distinct" else 1.0
        dense[graph.jj, graph.ii] = dense[graph.ii, graph.jj]
        starts = [_random_start(rng, n) for _ in range(5)]
        # The oracle's end point is a local optimum, so that start stops at step 0.
        starts[-1] = dense_swap_descent(dense, starts[-1], _cut(dense, starts[-1]), 10 * n)[0]
        steps = _check_lockstep(dense, starts)
        assert steps[-1] == 0
        staggered += len(set(steps[:-1])) > 1
    assert staggered >= 10  # most batches lose their starts at different steps


def test_lockstep_descent_keeps_the_zero_energy_packing():
    # At eps 1/8 every indicator weight is 64, so all sums are exact.
    domain = dumbbell()
    cloud = sample_iid(domain, uniform_density(domain), 100, seed=0)
    graph = build_graph(cloud, indicator(), 0.125)
    packed = _zero_energy_start(graph)
    assert packed is not None
    dense = np.zeros((graph.n, graph.n))
    dense[graph.ii, graph.jj] = graph.ww
    dense[graph.jj, graph.ii] = graph.ww
    rng = np.random.default_rng(1)
    steps = _check_lockstep(dense, [packed] + [_random_start(rng, graph.n) for _ in range(4)])
    assert steps[0] == 0
    assert min(steps[1:]) > 0


def test_large_dumbbell_is_bisected_without_a_size_cap():
    domain = dumbbell()
    cloud = sample_iid(domain, uniform_density(domain), 8000, seed=0)
    result = local_search_bisection(build_graph(cloud, indicator(), 0.045), seed=0, restarts=1)
    assert result.n == 8000
    assert int(result.labels.sum()) == 4000
    assert result.labels[0]


def test_zero_restarts_are_rejected():
    graph = _graph(4, [(0, 1, 10.0), (2, 3, 10.0), (1, 2, 1.0)])
    with pytest.raises(UnsupportedConfigurationError, match="need at least one restart"):
        local_search_bisection(graph, seed=0, restarts=0)


def test_balanced_disconnection_reaches_zero_energy():
    # two triangles: components of size 3 pack into an exact half each
    triangles = _graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                           (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
    result = local_search_bisection(graph=triangles, seed=0, restarts=2)
    assert result.energy == 0.0
    assert _exact(triangles)[0] == 0.0


def test_unbalanced_components_cannot_reach_zero():
    # component sizes 3 and 1: no subset sums to half of 4
    graph = _graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert _exact(graph)[0] > 0.0


def test_agreement_scores():
    a = np.array([True, True, False, False])
    assert agreement(a, a) == 1.0
    assert agreement(a, ~a) == 1.0
    assert agreement(a, np.array([True, False, True, False])) == 0.5


def test_reference_partitions_by_domain():
    pts = np.array([[0.2, 0.8], [0.8, 0.2]])
    cuts = reference_partitions(unit_box(2), pts)
    assert len(cuts) == 2
    assert cuts[0].tolist() == [True, False]
    assert cuts[1].tolist() == [False, True]
    shape = dumbbell()
    lo, hi = shape.bounding_box()
    mid = 0.5 * (lo[0] + hi[0])
    neck = reference_partitions(shape, np.array([[mid - 0.1, 0.5],
                                                 [mid + 0.1, 0.5]]))
    assert len(neck) == 1
    assert neck[0].tolist() == [True, False]
    with pytest.raises(UnsupportedConfigurationError):
        reference_partitions(Box(np.array([0.0, 0.0]), np.array([2.0, 1.0])),
                             pts)


def test_consistency_sweep_smoke(tmp_path):
    cfg = {
        "domain": {"shape": "dumbbell"},
        "kernel": {"name": "indicator"},
        "eps_rule": {"kind": "fixed", "value": 0.45},
        "n": [60],
        "seeds": [0, 1],
        "restarts": 4,
        "reference_size": 200,
    }
    run_experiment("bisect", cfg, str(tmp_path / "out"))
    with open(tmp_path / "out" / "records.csv", encoding="utf-8", newline="") as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == 2
    for rec in records:
        assert int(rec["n"]) == 60
        assert float(rec["eps"]) == 0.45
        assert float(rec["energy"]) >= 0.0
        assert 0.5 <= float(rec["agreement"]) <= 1.0
        assert float(rec["tl1_distance"]) >= 0.0
        assert rec["connected"] in ("0", "1")


def test_sweep_run_returns_points_and_labels():
    domain = dumbbell()
    density = uniform_density(domain)
    reference = sweep_reference(domain, density, reference_size=150)
    run = sweep_run(domain, density, indicator(),
                    n=60, eps=0.45, seed=3, reference=reference, restarts=4)
    assert run.points.shape == (60, 2)
    assert run.labels.shape == (60,)
    assert int(run.labels.sum()) == 30
    assert run.record.seed == 3


@pytest.mark.parametrize("domain,reference_size", [(dumbbell(), 60), (unit_box(2), 40)],
                         ids=["assignment", "lp"])
def test_pruned_tl1_is_the_minimum_over_all_identifications(monkeypatch, domain,
                                                            reference_size):
    # equal counts take the assignment path, unequal ones the LP
    density = uniform_density(domain)
    reference = sweep_reference(domain, density, reference_size)
    ref_points, partitions = reference
    solve, calls = pctv.bisection.tlp_distance, []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pctv.bisection, "tlp_distance", counted)
    seeds = range(4)
    for seed in seeds:
        run = sweep_run(domain, density, indicator(),
                        n=60, eps=0.45, seed=seed, reference=reference, restarts=4)
        every = min(solve(run.points, values.astype(float), ref_points, part.astype(float), p=1)
                    for part in partitions for values in (run.labels, ~run.labels))
        assert run.record.tl1_distance == every
    assert len(calls) < len(seeds) * 2 * len(partitions)


@pytest.mark.parametrize("n,m", [(30, 30), (24, 40)], ids=["assignment", "lp"])
def test_tl1_lower_bounds_come_from_the_cost_they_bound(n, m):
    # a dense |x - y| + |f - g| cost built here, with a one-class labeling
    # and a reference partition with an empty class among the cases
    rng = np.random.default_rng(n + m)
    points, ref_points = rng.random((n, 2)), rng.random((m, 2))
    partitions = [ref_points[:, 0] < 0.5, np.zeros(m, dtype=bool), ref_points[:, 1] < 0.3]
    for labels in (rng.random(n) < 0.5, np.ones(n, dtype=bool)):
        bounds = _tl1_lower_bounds(points, labels, ref_points, partitions)
        assert [bound for bound, _, _ in bounds] == sorted(bound for bound, _, _ in bounds)
        expected = {(k, flip) for k in range(len(partitions)) for flip in (False, True)}
        for bound, part, values in bounds:
            k = next(k for k, other in enumerate(partitions) if other is part)
            flip = not np.array_equal(values, labels)
            assert np.array_equal(values, ~labels if flip else labels)
            expected.remove((k, flip))
            f, g = values.astype(float), part.astype(float)
            cost = (np.linalg.norm(points[:, None, :] - ref_points[None, :, :], axis=2)
                    + np.abs(f[:, None] - g[None, :]))
            assert bound == pytest.approx(
                max(cost.min(axis=1).mean(), cost.min(axis=0).mean()), rel=1e-12)
            assert bound <= tlp_distance(points, f, ref_points, g, p=1) * (1 + 1e-9)
        assert not expected

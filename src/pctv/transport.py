"""Exact transportation distances between functions on point clouds.

Each cloud carries the empirical measure, mass 1/n on each of its n
points.  Distances:

    TL^p             transport distance between functions on two clouds,
                     with ground cost |x - y|^p + |f(x) - g(y)|^p, the
                     p-product metric on the graphs of f and g; with
                     zero values it is the p-cost transport distance
                     between the clouds
    d_inf            bottleneck (min over matchings of the max move),
                     clouds with equal point counts only

Equal-count instances reduce to the assignment problem; an optimal
vertex of the transportation polytope is a permutation, so the
assignment solution is exact.  Unequal counts go through the
transportation linear program.  No entropic or other approximate
solvers are used anywhere.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix, csr_matrix, vstack
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import UnsupportedConfigurationError
from .graph import _pair_distances

DISTANCE_FLOOR = 1e-14
MAX_DENSE_COSTS = 20_000_000


def check_dense_costs(ns: int, nt: int) -> None:
    """Refuse an ns x nt cost matrix larger than MAX_DENSE_COSTS entries."""
    if ns * nt > MAX_DENSE_COSTS:
        raise UnsupportedConfigurationError(
            f"cost matrix {ns} x {nt} exceeds the dense limit")


def _points(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


def _values(values, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"expected {n} point values, got shape {values.shape}")
    return values


def _clamp(distance: float) -> float:
    return 0.0 if distance <= DISTANCE_FLOOR else distance


def _transport_lp(cost: np.ndarray) -> float:
    """Optimal cost between uniform measures of the cost's row and column counts."""
    ns, nt = cost.shape
    row_idx = np.repeat(np.arange(ns), nt)
    col_idx = np.tile(np.arange(nt), ns)
    var = np.arange(ns * nt)
    a_rows = coo_matrix((np.ones(ns * nt), (row_idx, var)), shape=(ns, ns * nt))
    a_cols = coo_matrix((np.ones(ns * nt), (col_idx, var)), shape=(nt, ns * nt))
    a_eq = vstack([a_rows, a_cols]).tocsr()
    b_eq = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, 1.0 / nt)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    return float(res.fun)


def tlp_distance(x, f, y, g, p: float = 1.0) -> float:
    """TL^p distance between values f on cloud x and values g on cloud y.

    Ground cost |x - y|^p + |f(x) - g(y)|^p; equivalently the p-cost
    transport distance between the empirical measures pushed onto the
    function graphs in R^(d+1) under the p-product metric.  Equal point
    counts go to the assignment solver, unequal ones to the
    transportation LP.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    x, y = _points(x), _points(y)
    f, g = _values(f, x.shape[0]), _values(g, y.shape[0])
    check_dense_costs(x.shape[0], y.shape[0])
    cost = cdist(x, y) ** p + np.abs(f[:, None] - g[None, :]) ** p
    if x.shape[0] == y.shape[0]:
        rows, cols = linear_sum_assignment(cost)
        total = float(cost[rows, cols].sum()) / x.shape[0]
    else:
        total = _transport_lp(cost)
    return _clamp(total ** (1.0 / p))


def _bipartite_candidates(x: np.ndarray, y: np.ndarray, radius: float):
    """Cross-set pairs (i, j) with |x_i - y_j| <= radius, and their distances.

    The kd-tree search runs with a little slack and only proposes pairs;
    each distance is recomputed from its two points and tested here.
    """
    pairs = cKDTree(x).sparse_distance_matrix(
        cKDTree(y), radius * (1 + 1e-12), output_type="ndarray")
    ci, cj = pairs["i"], pairs["j"]
    dist = _pair_distances(x, ci, y, cj)
    near = dist <= radius
    return ci[near], cj[near], dist[near]


def _augment(n: int, ci, cj, match) -> np.ndarray:
    """A maximum matching over the edges (ci, cj), grown from match.

    match maps rows to columns, with -1 on free rows, and uses only
    edges of the list.  One unit-capacity maximum flow on its residual
    network (source to free rows, unmatched edges row to column, matched
    edges column to row, free columns to sink) finds every missing
    augmenting path at once; on bipartite unit networks this runs in
    Hopcroft-Karp time.  A row whose flow leaves along an edge takes
    that column; every other row keeps its own.
    """
    matched = np.flatnonzero(match >= 0)
    free_rows = np.flatnonzero(match < 0)
    taken = np.zeros(n, dtype=bool)
    taken[match[matched]] = True
    free_cols = np.flatnonzero(~taken)
    fwd = match[ci] != cj
    src, sink = 2 * n, 2 * n + 1
    tails = np.concatenate([np.full(free_rows.size, src), ci[fwd],
                            n + match[matched], n + free_cols])
    heads = np.concatenate([free_rows, n + cj[fwd],
                            matched, np.full(free_cols.size, sink)])
    graph = csr_matrix((np.ones(tails.size, dtype=np.int32), (tails, heads)),
                       shape=(2 * n + 2, 2 * n + 2))
    flow = maximum_flow(graph, src, sink).flow.tocoo()
    used = (flow.data > 0) & (flow.row < n) & (flow.col >= n) & (flow.col < 2 * n)
    grown = match.copy()
    grown[flow.row[used]] = flow.col[used] - n
    return grown


def bottleneck_distance(x, y) -> Tuple[float, np.ndarray]:
    """Infinity-cost transport distance between clouds of equal point counts.

    Returns (distance, assignment).  The optimum is the smallest realized
    pairwise distance t such that the bipartite graph of pairs within t
    has a perfect matching; assignment is one such matching, an int64
    array that sends point i of x to point assignment[i] of y (ties leave
    several bottleneck-optimal ones).

    Every point is matched to some point on the other side, so the larger
    of the two nearest-neighbour distances bounds t from below.
    Candidate pairs come from a kd-tree range search that starts just
    above this bound (at 4 n^(-1/d) when the bound is 0) and doubles
    its radius until a perfect matching exists.  The threshold is then
    found by binary search over the candidate distances from the bound
    up.  Feasibility only grows with the threshold, so the maximum
    matching of the last infeasible probe stays valid at every higher
    one: each maximum-flow solve starts from it and only looks for the
    augmenting paths still missing.
    """
    x, y = _points(x), _points(y)
    n = x.shape[0]
    if y.shape[0] != n:
        raise UnsupportedConfigurationError(
            "bottleneck distance needs clouds with equal point counts")
    if n == 0:
        raise ValueError("empty point clouds")
    lb = max(float(cKDTree(y).query(x)[0].max()),
             float(cKDTree(x).query(y)[0].max()))
    radius = lb * (1 + 1e-9) if lb > 0 else 4.0 * max(n, 2) ** (-1.0 / x.shape[1])
    span = float(np.max(np.max(np.vstack([x, y]), axis=0)
                        - np.min(np.min(np.vstack([x, y]), axis=0))))
    match_lo = np.full(n, -1, dtype=np.int64)
    below = -math.inf  # largest radius known to be infeasible
    while True:
        ci, cj, dist = _bipartite_candidates(x, y, radius)
        best = _augment(n, ci, cj, match_lo)
        if best.min() >= 0:
            break
        if radius > 2.0 * max(span, 1.0):
            raise RuntimeError("no perfect matching found at any radius")
        match_lo, below = best, radius
        radius *= 2.0

    order = np.argsort(dist, kind="stable")
    ci, cj, dist = ci[order], cj[order], dist[order]
    levels = np.unique(dist)
    lo = max(int(np.searchsorted(levels, below, side="right")),
             int(np.searchsorted(levels, lb * (1 - 1e-9))))
    hi = levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        k = int(np.searchsorted(dist, levels[mid], side="right"))
        match = _augment(n, ci[:k], cj[:k], match_lo)
        if match.min() >= 0:
            best = match
            hi = mid
        else:
            match_lo = match
            lo = mid + 1
    return _clamp(float(levels[lo])), best


def scaling_ratio(n: int, d: int, distance: float) -> float:
    """Distance over the optimal matching rate for n uniform points.

    In the plane the rate is (log n)^(3/4) / sqrt(n); in higher
    dimension it is (log n / n)^(1/d).
    """
    if d == 2:
        return distance * math.sqrt(n) / math.log(n) ** 0.75
    return distance * n ** (1.0 / d) / math.log(n) ** (1.0 / d)

"""Exact transportation distances between discrete measures.

Measures are finite atom lists with masses summing to 1.  Distances:

    d_p(mu, nu)      p-cost optimal transport, exact
    d_inf(mu, nu)    bottleneck (min over matchings of the max move),
                     uniform measures with equal atom counts only
    TL^p             transport distance between functions over their
                     measures, with ground cost |x - y|^p + |f(x) - g(y)|^p,
                     the p-product metric on the graphs of f and g

Uniform equal-count instances reduce to the assignment problem; an
optimal vertex of the transportation polytope is a permutation, so the
assignment solution is exact.  General masses go through the
transportation linear program.  No entropic or other approximate
solvers are used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import MarginalError, UnsupportedConfigurationError

MASS_TOL = 1e-12
MARGINAL_TOL = 1e-10
DISTANCE_FLOOR = 1e-14
MAX_DENSE_COSTS = 20_000_000


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms in R^d with positive masses summing to 1."""

    support: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        support = np.atleast_2d(np.asarray(self.support, dtype=float))
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size != support.shape[0]:
            raise ValueError("need one mass per atom")
        if np.any(masses <= 0):
            raise ValueError("masses must be positive")
        if abs(float(masses.sum()) - 1.0) > MASS_TOL:
            raise ValueError(
                f"masses sum to {masses.sum()!r}, expected 1 within {MASS_TOL}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    @property
    def uniform(self) -> bool:
        return bool(np.all(np.abs(self.masses - 1.0 / self.n) <= MASS_TOL))

    @staticmethod
    def uniform_on(points) -> "DiscreteMeasure":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        return DiscreteMeasure(support=points, masses=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LiftedFunction:
    """A function given by its values on the atoms of a measure."""

    measure: DiscreteMeasure
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.measure.n,):
            raise ValueError("need one value per atom")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling between two measures; entries (i, j, mass)."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    ii: np.ndarray
    jj: np.ndarray
    mm: np.ndarray

    def __post_init__(self):
        ii = np.asarray(self.ii, dtype=np.int64)
        jj = np.asarray(self.jj, dtype=np.int64)
        mm = np.asarray(self.mm, dtype=float)
        if not (ii.shape == jj.shape == mm.shape) or ii.ndim != 1:
            raise ValueError("entries must be parallel 1-d arrays")
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "mm", mm)
        row = np.bincount(ii, weights=mm, minlength=self.source.n)
        col = np.bincount(jj, weights=mm, minlength=self.target.n)
        row_gap = float(np.max(np.abs(row - self.source.masses)))
        col_gap = float(np.max(np.abs(col - self.target.masses)))
        if max(row_gap, col_gap) > MARGINAL_TOL:
            raise MarginalError(
                f"plan marginals off by {max(row_gap, col_gap):.3e} "
                f"(tolerance {MARGINAL_TOL})")

    def cost(self, p: float = 2.0) -> float:
        moved = np.linalg.norm(
            self.source.support[self.ii] - self.target.support[self.jj], axis=1)
        return float(np.sum(self.mm * moved ** p))


def check_dense_costs(ns: int, nt: int) -> None:
    """Refuse an ns x nt cost matrix larger than MAX_DENSE_COSTS entries."""
    if ns * nt > MAX_DENSE_COSTS:
        raise UnsupportedConfigurationError(
            f"cost matrix {ns} x {nt} exceeds the dense limit")


def _cost_matrix(a: np.ndarray, b: np.ndarray, p: float,
                 fa: Optional[np.ndarray] = None,
                 fb: Optional[np.ndarray] = None) -> np.ndarray:
    check_dense_costs(a.shape[0], b.shape[0])
    cost = cdist(a, b) ** p
    if fa is not None:
        cost = cost + np.abs(fa[:, None] - fb[None, :]) ** p
    return cost


def _clamp(distance: float) -> float:
    return 0.0 if distance <= DISTANCE_FLOOR else distance


def _solve_assignment(mu, nu, cost, p):
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) / mu.n
    plan = TransportPlan(source=mu, target=nu, ii=rows, jj=cols,
                         mm=np.full(mu.n, 1.0 / mu.n))
    return _clamp(total ** (1.0 / p)), plan


def _solve_lp(mu, nu, cost, p):
    ns, nt = cost.shape
    row_idx = np.repeat(np.arange(ns), nt)
    col_idx = np.tile(np.arange(nt), ns)
    var = np.arange(ns * nt)
    a_rows = coo_matrix((np.ones(ns * nt), (row_idx, var)), shape=(ns, ns * nt))
    a_cols = coo_matrix((np.ones(ns * nt), (col_idx, var)), shape=(nt, ns * nt))
    from scipy.sparse import vstack
    a_eq = vstack([a_rows, a_cols]).tocsr()
    b_eq = np.concatenate([mu.masses, nu.masses])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    x = np.maximum(res.x, 0.0)
    keep = x > 1e-14
    plan = TransportPlan(source=mu, target=nu,
                         ii=row_idx[keep], jj=col_idx[keep], mm=x[keep])
    return _clamp(float(res.fun) ** (1.0 / p)), plan


def _solve(mu, nu, p, fa=None, fb=None):
    """Exact transport under the p-cost, plus the function gap if given.

    Uniform measures with equal atom counts go to the assignment solver,
    everything else to the transportation LP.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    cost = _cost_matrix(mu.support, nu.support, p, fa, fb)
    if mu.n == nu.n and mu.uniform and nu.uniform:
        return _solve_assignment(mu, nu, cost, p)
    return _solve_lp(mu, nu, cost, p)


def ot_distance(mu: DiscreteMeasure, nu: DiscreteMeasure,
                p: float = 2.0) -> Tuple[float, TransportPlan]:
    """Exact p-cost transport distance and an optimal plan."""
    return _solve(mu, nu, p)


def tlp_distance(f: LiftedFunction, g: LiftedFunction,
                 p: float = 1.0) -> Tuple[float, TransportPlan]:
    """Transport distance between functions over their measures.

    Ground cost |x - y|^p + |f(x) - g(y)|^p; equivalently the p-cost
    transport distance between the push-forwards of the measures onto
    the function graphs in R^(d+1) under the p-product metric.
    """
    return _solve(f.measure, g.measure, p, f.values, g.values)


def _bipartite_candidates(x: np.ndarray, y: np.ndarray, radius: float):
    """Cross-set pairs (i, j) with |x_i - y_j| <= radius, and their distances.

    The kd-tree search runs with a little slack and only proposes pairs;
    each distance is recomputed from its two points and tested here.
    """
    pairs = cKDTree(x).sparse_distance_matrix(
        cKDTree(y), radius * (1 + 1e-12), output_type="ndarray")
    ci, cj = pairs["i"], pairs["j"]
    dist = np.linalg.norm(x[ci] - y[cj], axis=1)
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


def bottleneck_distance(mu: DiscreteMeasure,
                        nu: DiscreteMeasure) -> Tuple[float, np.ndarray]:
    """Infinity-cost transport distance for uniform equal-count measures.

    Returns (distance, assignment).  The optimum is the smallest realized
    pairwise distance t such that the bipartite graph of pairs within t
    has a perfect matching; assignment is one such matching, an int64
    array that sends atom i of mu to atom assignment[i] of nu (ties leave
    several bottleneck-optimal ones).

    Every atom is matched to some atom on the other side, so the larger
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
    if mu.n != nu.n or not (mu.uniform and nu.uniform):
        raise UnsupportedConfigurationError(
            "bottleneck distance needs uniform measures with equal atom counts")
    n = mu.n
    x, y = mu.support, nu.support
    if n == 0:
        raise ValueError("empty measures")
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

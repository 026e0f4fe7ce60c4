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
transportation linear program, whose duals certify its answer.  The
bottleneck distance is the smallest candidate distance whose threshold
graph has a perfect matching, found by the search of graph._radii and
then a binary search over the candidate distances.  Every solve, the
first from the empty matching, grows the last maximum matching by
breadth-first augmenting phases on the residual graph (Hopcroft &
Karp).  No entropic or other approximate solvers are used anywhere.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import UnsupportedConfigurationError
from .geometry import _as_points
from .graph import _radii, _within

MAX_DENSE_COSTS = 20_000_000


def check_dense_costs(ns: int, nt: int) -> None:
    """Refuse an ns x nt cost matrix larger than MAX_DENSE_COSTS entries."""
    if ns * nt > MAX_DENSE_COSTS:
        raise UnsupportedConfigurationError(
            f"cost matrix {ns} x {nt} exceeds the dense limit")


def _values(values, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"expected {n} point values, got shape {values.shape}")
    return values


def _transport_lp(cost: np.ndarray) -> float:
    """Optimal cost between uniform measures of the cost's row and column
    counts, certified by its duals.

    HiGHS stops at an absolute tolerance of about 1e-7, which costs of
    |x - y|^p fall under, so the costs are scaled by 2^k, the power of
    two nearest the inverse mean of each row's smallest positive cost
    (rows of zeros left out), an exact scaling that the objective
    undoes.  The row and column duals u, v certify the optimum: every
    reduced cost c - u_i - v_j is at least -1e-9 times the objective,
    and the dual objective meets the primal within 1e-9 of it.  The
    solve's dual feasibility tolerance is 1e-10: at HiGHS's default,
    1e-7, the simplex stopped at reduced costs of -5e-8, which the
    check refused.  A failed solve or certificate, or a cost that is not
    finite once scaled, raises UnsupportedConfigurationError.
    """
    ns, nt = cost.shape
    smallest = np.where(cost > 0, cost, np.inf).min(axis=1)
    positive = smallest[smallest < np.inf]
    floor = positive.mean() if positive.size else 0.0
    k = round(-math.log2(floor)) if 0 < floor < math.inf else 0
    with np.errstate(over="ignore"):
        cost = np.ldexp(cost, k)
    if not np.isfinite(cost).all():
        raise UnsupportedConfigurationError("transportation costs are not finite")
    # variable i * nt + j has a 1 in constraint i and one in constraint ns + j
    var = np.arange(ns * nt)
    a_eq = csr_matrix((np.ones(2 * var.size), (np.concatenate([var // nt, ns + var % nt]),
                                               np.tile(var, 2))), shape=(ns + nt, ns * nt))
    b_eq = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, 1.0 / nt)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options={"dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise UnsupportedConfigurationError(f"transportation solve failed: {res.message}")
    u, v = res.eqlin.marginals[:ns], res.eqlin.marginals[ns:]
    slack = 1e-9 * abs(res.fun)
    if ((cost - u[:, None] - v[None, :]).min() < -slack
            or abs(u.sum() / ns + v.sum() / nt - res.fun) > slack):
        raise UnsupportedConfigurationError(
            "transportation solve is not certified optimal")
    # The costs are non-negative, so the optimum is too; clipping what the
    # solver may report at about -1e-20 keeps the p-th root of it real.
    return math.ldexp(max(float(res.fun), 0.0), -k)


def tlp_distance(x, f, y, g, p: float = 1.0) -> float:
    """TL^p distance between values f on cloud x and values g on cloud y.

    Ground cost |x - y|^p + |f(x) - g(y)|^p; equivalently the p-cost
    transport distance between the empirical measures pushed onto the
    function graphs in R^(d+1) under the p-product metric.  Equal point
    counts go to the assignment solver, unequal ones to the
    transportation LP.  Costs that overflow raise
    UnsupportedConfigurationError.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    x, y = _as_points(x), _as_points(y)
    f, g = _values(f, x.shape[0]), _values(g, y.shape[0])
    check_dense_costs(x.shape[0], y.shape[0])
    with np.errstate(over="ignore"):
        cost = cdist(x, y) ** p + np.abs(f[:, None] - g[None, :]) ** p
    if not np.isfinite(cost).all():
        raise UnsupportedConfigurationError(f"transport costs overflow at p = {p:g}")
    if x.shape[0] == y.shape[0]:
        rows, cols = linear_sum_assignment(cost)
        total = float(cost[rows, cols].sum()) / x.shape[0]
    else:
        total = _transport_lp(cost)
    return total ** (1.0 / p)


def _bipartite_candidates(x: np.ndarray, y: np.ndarray, radius: float,
                          trees=None):
    """Cross-set pairs (i, j) with |x_i - y_j| <= radius, and their
    distances; trees, when given, are the kd-trees of x and y."""
    xtree, ytree = trees or (cKDTree(x), cKDTree(y))
    pairs = xtree.sparse_distance_matrix(
        ytree, radius * (1 + 1e-12), output_type="ndarray")
    return _within(x, pairs["i"], y, pairs["j"], radius)


def _augment(n: int, ci, cj) -> np.ndarray:
    """A maximum matching over the edges (ci, cj), from no matching.

    One unit-capacity maximum flow on the network source -> rows ->
    columns -> sink finds it.  Returns each row's column, or -1 on a row
    left free.  bottleneck_distance does not call it: it is the
    independent reference that the tests check _grow against, and the
    benchmark's span list names this module's maximum_flow.
    """
    src, sink = 2 * n, 2 * n + 1
    nodes = np.arange(n)
    tails = np.concatenate([np.full(n, src), ci, n + nodes])
    heads = np.concatenate([nodes, n + cj, np.full(n, sink)])
    graph = csr_matrix((np.ones(tails.size, dtype=np.int32), (tails, heads)),
                       shape=(2 * n + 2, 2 * n + 2))
    flow = maximum_flow(graph, src, sink).flow.tocoo()
    used = (flow.data > 0) & (flow.row < n) & (flow.col >= n) & (flow.col < 2 * n)
    match = np.full(n, -1, dtype=np.int64)
    match[flow.row[used]] = flow.col[used] - n
    return match


def _grow(n: int, rows, cols, match) -> np.ndarray:
    """A maximum matching over the edges (rows, cols), grown from match.

    rows is sorted, and match maps rows to columns, with -1 on free rows,
    and uses only edges of the list.  Each phase is one
    breadth-first search of the residual graph collapsed onto rows, from
    a source node 2n joined to every free row.  An edge r -> c leads to
    the row that holds column c, or, when c is free, to c's own sink
    node n + c.  Every sink reached closes an augmenting path; taking
    one per free row gives paths in disjoint subtrees of the search
    tree, so all of them are flipped at once.  A phase that reaches no
    sink proves the matching maximum (Berge).
    """
    source = 2 * n
    indptr = np.empty(2 * n + 2, dtype=np.int32)
    indptr[0] = 0
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:n + 1])
    indptr[n + 1:] = rows.size
    indices = np.empty(rows.size + n, dtype=np.int32)
    # float64, as csgraph would convert any other dtype with a copy that
    # also sorts the indices
    data = np.ones(rows.size + n)
    nodes = np.arange(2 * n + 1, dtype=np.int32)
    match = match.copy()
    while True:
        free = np.flatnonzero(match < 0)
        if free.size == 0:
            return match
        held = np.flatnonzero(match >= 0)
        owner = nodes[n:2 * n].copy()
        owner[match[held]] = held
        np.take(owner, cols, out=indices[:rows.size])
        indices[rows.size:rows.size + free.size] = free
        indptr[-1] = rows.size + free.size
        graph = csr_matrix((data[:indptr[-1]], indices[:indptr[-1]], indptr),
                           shape=(2 * n + 1, 2 * n + 1))
        order, pred = breadth_first_order(graph, source, return_predecessors=True)
        sinks = order[(order >= n) & (order < source)]
        if sinks.size == 0:
            return match
        # the free row at the top of each node's branch, by pointer doubling
        up = np.where((pred == source) | (pred < 0), nodes, pred)
        while True:
            jump = up[up]
            if np.array_equal(jump, up):
                break
            up = jump
        _, first = np.unique(up[sinks], return_index=True)
        node = sinks[first]
        col = node - n
        # flip each path from its sink up: every row takes the column held
        # by the node below it, and the free row on top ends the walk
        while node.size:
            row = pred[node]
            col, match[row] = match[row], col
            node = row[col >= 0]
            col = col[col >= 0]


def bottleneck_distance(x, y) -> Tuple[float, np.ndarray]:
    """Infinity-cost transport distance between clouds of equal point counts.

    Returns (distance, assignment).  The optimum is the smallest realized
    pairwise distance t such that the bipartite graph of pairs within t
    has a perfect matching; assignment is one such matching, an int64
    array that sends point i of x to point assignment[i] of y (ties leave
    several bottleneck-optimal ones).

    Every point is matched to some point on the other side, so the larger
    of the two nearest-neighbour distances bounds t from below for the
    search of graph._radii, whose test is a perfect matching.  A binary
    search over the candidate distances from the bound up then finds t;
    a feasible probe trims the candidates to those within its level, so
    later probes mask and search only those.  Feasibility only grows
    with the threshold, so the maximum matching of the last infeasible
    radius or probe stays valid at every higher one, and every solve
    grows it by _grow.  Near the optimum that matching misses only a few
    rows, which one or two phases match or prove unmatchable.  Both
    kd-trees are built once and serve the bound and every radius round.
    """
    x, y = _as_points(x), _as_points(y)
    n = x.shape[0]
    if y.shape[0] != n:
        raise UnsupportedConfigurationError(
            "bottleneck distance needs clouds with equal point counts")
    if n == 0:
        raise ValueError("empty point clouds")
    xtree, ytree = cKDTree(x), cKDTree(y)
    lb = max(float(ytree.query(x)[0].max()), float(xtree.query(y)[0].max()))
    diagonal = float(np.linalg.norm(np.ptp(np.vstack([x, y]), axis=0)))
    match_lo = np.full(n, -1, dtype=np.int64)
    below = -math.inf  # largest radius known to be infeasible
    for radius in _radii(lb, n, x.shape[1]):
        ci, cj, dist = _bipartite_candidates(x, y, radius, (xtree, ytree))
        order = np.argsort(ci, kind="stable")
        ci, cj, dist = ci[order], cj[order], dist[order]
        best = _grow(n, ci, cj, match_lo)
        if best.min() >= 0:
            break
        if radius > 2.0 * max(diagonal, 1.0):
            raise RuntimeError("no perfect matching found at any radius")
        match_lo, below = best, radius

    levels = np.unique(dist)
    lo = max(int(np.searchsorted(levels, below, side="right")),
             int(np.searchsorted(levels, lb * (1 - 1e-9))))
    hi = levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        keep = dist <= levels[mid]
        match = _grow(n, ci[keep], cj[keep], match_lo)
        if match.min() >= 0:
            best = match
            hi = mid
            ci, cj, dist = ci[keep], cj[keep], dist[keep]
        else:
            match_lo = match
            lo = mid + 1
    return float(levels[lo]), best


def scaling_ratio(n: int, d: int, distance: float) -> float:
    """Distance over the optimal matching rate for n uniform points.

    In the plane the rate is (log n)^(3/4) / sqrt(n); in higher
    dimension it is (log n / n)^(1/d).
    """
    if d == 2:
        return distance * math.sqrt(n) / math.log(n) ** 0.75
    return distance * n ** (1.0 / d) / math.log(n) ** (1.0 / d)

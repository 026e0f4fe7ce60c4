"""Weighted neighborhood graphs on point clouds and their total variation.

For a cloud X_1, ..., X_n and a kernel profile eta at scale eps the
edge weights are W_ij = eps^(-d) * eta(|X_i - X_j| / eps).  The scaled
graph total variation of vertex values u is

    GTV(u) = (1 / eps) * (1 / n^2) * sum over all ordered pairs of
             W_ij * |u_i - u_j|,

and the graph perimeter of a vertex subset A is

    GPer(A) = 2 * sum over i in A, j not in A of W_ij,

so GTV of the indicator of A equals GPer(A) / (n^2 * eps) exactly.
Only the scaled form is exposed; the unscaled sum is n^2 * eps times it.

Candidate pairs come from a kd-tree range search at eps times the
profile's effective support.  Each pair's distance is then computed
from its two points and tested against that radius, so the tree only
proposes pairs and never decides one.  For compactly supported profiles
this finds exactly the pairs with positive weight.  A distance is summed
one coordinate at a time in axis order, ((0 + dx^2) + dy^2) + dz^2, and
that order fixes its bits, so the pairs kept at the radius and every
weight are reproducible to the last bit.

Connectivity at any eps is decided by one number per cloud, without
building the graph: the connection distance b, the smallest distance t
at which the pairs with distance <= t connect the cloud.  It is the
longest edge of the cloud's Euclidean minimum spanning tree (Penrose,
"The longest edge of the random minimal spanning tree", Ann. Appl.
Probab. 1997, gives its law for random clouds).  A pair is
kept when its distance is at most the radius and its weight reaches
WEIGHT_FLOOR.  The profile never increases (kernel condition K2), so
at a fixed eps the kept pairs form a down-set in distance: with a pair,
every shorter pair is kept too.  The eps-graph is therefore connected
exactly when the pair at distance b is kept, which ``connected_at``
tests on the same distance bits that ``build_graph`` computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from . import kernels
from .geometry import PointCloud

WEIGHT_FLOOR = 1e-15


@dataclass(frozen=True)
class WeightedGraph:
    """Sparse symmetric weight matrix stored once per pair with i < j."""

    n: int
    dimension: int
    eps: float
    ii: np.ndarray
    jj: np.ndarray
    ww: np.ndarray

    @property
    def edge_count(self) -> int:
        return self.ii.size


def build_graph(cloud: PointCloud, profile: kernels.KernelProfile,
                eps: float) -> WeightedGraph:
    """Neighborhood graph of the cloud under the rescaled kernel.

    Edges carry W_ij = eps^(-d) * eta(|X_i - X_j| / eps); pairs whose
    weight is zero or below WEIGHT_FLOOR are dropped.  Edge order is
    lexicographic in (i, j), which fixes the reduction order of every
    downstream sum.
    """
    points = np.asarray(cloud.points, dtype=float)
    n, d = points.shape
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    radius = eps * kernels.effective_support(profile, d)

    # The slack only widens the candidate set; the distance test below
    # decides every pair, including those on the boundary.
    pairs = cKDTree(points).query_pairs(radius * (1 + 1e-12),
                                        output_type="ndarray")
    # Each array is dropped once spent: dense graphs hold millions of pairs.
    key = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    del pairs
    key.sort()
    row = key // n
    ii = row.astype(np.int32)
    row *= n
    key -= row
    del row
    jj = key.astype(np.int32)
    del key

    dist = _pair_distances(points, ii, jj)
    ww = kernels.scaled_from_distance(profile, eps, dist, d)
    keep = _kept(dist, ww, radius)
    del dist
    return WeightedGraph(n=n, dimension=d, eps=eps, ii=ii[keep], jj=jj[keep],
                         ww=ww[keep])


def _pair_distances(points: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Distance of each pair (ii[k], jj[k]), summed in axis order.

    One coordinate column at a time, so every temporary is one (m,)
    array; the axis order fixes the bits of each distance.
    """
    dist = np.zeros(ii.size)
    for axis in range(points.shape[1]):
        column = np.ascontiguousarray(points[:, axis])
        delta = column.take(ii)
        delta -= column.take(jj)
        delta *= delta
        dist += delta
        del delta
    np.sqrt(dist, out=dist)
    return dist


def _kept(dist: np.ndarray, weights: np.ndarray, radius: float) -> np.ndarray:
    """Which pairs are edges: within the radius and not below the weight floor."""
    return (dist <= radius) & (weights >= WEIGHT_FLOOR)


def connection_distance(points) -> float:
    """Smallest distance t at which the pairs with distance <= t connect the cloud.

    This is the longest edge of the Euclidean minimum spanning tree, with
    the distance bits of ``build_graph``.  A cloud of at most one point
    is connected by no pair at all; it reports -inf.

    The largest nearest-neighbour distance bounds t from below.  A
    kd-tree range search starts just above this bound (at 4 n^(-1/d)
    when the bound is 0) and doubles its radius until the pairs within
    it span the cloud.  The spanning tree is taken over the ranks 1..m
    of the candidate distances, not the distances: a rank is never 0,
    so coincident points keep their edge, and the tree's largest rank
    names the exact bottleneck distance.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n <= 1:
        return -math.inf
    tree = cKDTree(points)
    lb = float(tree.query(points, k=2)[0][:, 1].max())
    radius = lb * (1 + 1e-9) if lb > 0 else 4.0 * n ** (-1.0 / d)
    while True:
        # As in build_graph, the slack only widens the candidate set and
        # the distance test decides every pair.
        pairs = tree.query_pairs(radius * (1 + 1e-12), output_type="ndarray")
        dist = _pair_distances(points, pairs[:, 0], pairs[:, 1])
        within = dist <= radius
        pairs, dist = pairs[within], dist[within]
        order = np.argsort(dist, kind="stable")
        ranks = np.empty(dist.size)
        ranks[order] = np.arange(1, dist.size + 1)
        spanning = minimum_spanning_tree(
            csr_matrix((ranks, (pairs[:, 0], pairs[:, 1])), shape=(n, n)))
        if spanning.nnz == n - 1:
            return float(dist[order[int(spanning.data.max()) - 1]])
        radius *= 2.0


def connectivity_scale(n: int, d: int) -> float:
    """The (log n / n)^(1/d) scale where random geometric graphs connect."""
    return (math.log(n) / n) ** (1.0 / d)


def connected_at(profile: kernels.KernelProfile, eps: float, distance: float,
                 d: int) -> bool:
    """Whether ``build_graph`` at eps connects a cloud of this connection distance.

    It applies build_graph's keep rule to the one pair at the connection
    distance; the module docstring says why that decides connectivity.
    """
    if distance == -math.inf:
        return True
    eps = float(eps)
    dist = np.array([distance])
    weight = kernels.scaled_from_distance(profile, eps, dist, d)
    return bool(_kept(dist, weight, eps * kernels.effective_support(profile, d))[0])


def _as_values(graph: WeightedGraph, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} vertex values, got shape {u.shape}")
    return u


def _as_mask(graph: WeightedGraph, subset: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    subset = np.asarray(subset)
    if subset.dtype == bool:
        if subset.shape != (graph.n,):
            raise ValueError("boolean subset mask must have one entry per vertex")
        return subset
    mask = np.zeros(graph.n, dtype=bool)
    mask[subset] = True
    return mask


def graph_total_variation(graph: WeightedGraph, u) -> float:
    """Scaled graph total variation of vertex values u."""
    u = _as_values(graph, u)
    total = float(np.sum(graph.ww * np.abs(u[graph.ii] - u[graph.jj])))
    return 2.0 * total / (graph.eps * graph.n ** 2)


def graph_perimeter(graph: WeightedGraph, subset) -> float:
    """GPer(A) = 2 * total weight of edges crossing the subset boundary."""
    mask = _as_mask(graph, subset)
    cross = mask[graph.ii] != mask[graph.jj]
    return 2.0 * float(np.sum(graph.ww[cross]))


def component_labels(graph: WeightedGraph) -> np.ndarray:
    """Connected component index per vertex, labeled 0, 1, ... in order.

    Components are numbered by their smallest vertex.
    """
    n = graph.n
    adjacency = csr_matrix((np.ones(graph.edge_count, dtype=bool),
                            (graph.ii, graph.jj)), shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def is_connected(graph: WeightedGraph) -> bool:
    """Whether the positive-weight edges connect all vertices."""
    n = graph.n
    if n <= 1:
        return True
    if graph.edge_count == 0:
        return False
    deg = np.bincount(graph.ii, minlength=n) + np.bincount(graph.jj, minlength=n)
    if np.any(deg == 0):
        return False
    return int(component_labels(graph).max()) == 0


@dataclass(frozen=True)
class CoareaLayer:
    """One threshold contribution to the coarea decomposition."""

    threshold: float
    gap: float
    gtv: float


def coarea_decompose(graph: WeightedGraph, u) -> List[CoareaLayer]:
    """Layer cake decomposition of GTV(u) across the levels of u.

    For piecewise constant u with levels s_1 < ... < s_m,

        GTV(u) = sum over k of (s_{k+1} - s_k) * GTV(indicator of u > s_k),

    exactly: every pair contributes |u_i - u_j| in both expressions.
    """
    u = _as_values(graph, u)
    levels = np.unique(u)
    layers = []
    for k in range(levels.size - 1):
        upper = (u > levels[k]).astype(float)
        layers.append(CoareaLayer(
            threshold=float(levels[k]),
            gap=float(levels[k + 1] - levels[k]),
            gtv=graph_total_variation(graph, upper),
        ))
    return layers


def coarea_reconstruct(layers: Iterable[CoareaLayer]) -> float:
    return float(sum(layer.gap * layer.gtv for layer in layers))


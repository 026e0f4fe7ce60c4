"""Weighted neighborhood graphs on point clouds and their total variation.

For a cloud X_1, ..., X_n and a kernel profile eta at scale eps the
edge weights are W_ij = eps^(-d) * eta(|X_i - X_j| / eps).  The scaled
graph total variation of vertex values u is

    GTV(u) = (1 / eps) * (1 / n^2) * sum over all ordered pairs of
             W_ij * |u_i - u_j|,

and the graph perimeter of a vertex subset A is

    GPer(A) = 2 * sum over i in A, j not in A of W_ij,

so GTV of the indicator of A equals GPer(A) / (n^2 * eps) exactly.  For
u with levels s_1 < ... < s_m the coarea formula

    GTV(u) = sum over k of (s_(k+1) - s_k) * GTV(indicator of u > s_k)

is exact too: every pair contributes |u_i - u_j| to both sides.  Only
the scaled GTV is exposed; GPer(A) and the unscaled sum are n^2 * eps
times it.

Candidate pairs come from a kd-tree range search at eps times the
profile's effective support.  Each pair's distance is then computed
from its two points and tested against that radius, so the tree only
proposes pairs and never decides one.  For compactly supported profiles
this finds exactly the pairs with positive weight.  A distance is summed
one coordinate at a time in axis order, ((0 + dx^2) + dy^2) + dz^2, and
that order fixes its bits, so the pairs kept at the radius and every
weight are reproducible to the last bit.

The candidate pairs are sorted once, as the int64 keys i*n + j, and then
handled in blocks of BLOCK consecutive keys: each block is split into
(i, j), its distances, weights and keep mask are computed, and its kept
edges are written at a running offset.  A block's float64 temporaries
take 512 KB and stay in cache, so only the keys and the three outputs
span all edges.  Every step is elementwise, so the edges and their bits
do not depend on BLOCK; graph_total_variation fills its terms the same
way and sums them in one call, in numpy's pairwise order.

Connectivity at any eps is decided by one number per cloud, without
building the graph: the connection distance b, the smallest distance t
at which the pairs with distance <= t connect the cloud.  It is the
longest edge of the cloud's Euclidean minimum spanning tree (Penrose,
"The longest edge of the random minimal spanning tree", Ann. Appl.
Probab. 1997, gives its law for random clouds), which scipy's
minimum_spanning_tree finds over the pair distances of a kd-tree range
search.  A pair is kept when its distance is at most the radius and its
weight reaches WEIGHT_FLOOR.  The profile never increases (kernel
condition K2), so at a fixed eps the kept pairs form a down-set in
distance: with a pair, every shorter pair is kept too.  The eps-graph is
therefore connected exactly when the pair at distance b is kept, which
``connected_at`` tests on the same distance bits that ``build_graph``
computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from . import kernels
from .geometry import PointCloud

WEIGHT_FLOOR = 1e-15
BLOCK = 1 << 16  # edges per block: a float64 temporary takes 512 KB


@dataclass(frozen=True)
class WeightedGraph:
    """Sparse symmetric weight matrix stored once per pair with i < j."""

    n: int
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
    # The pairs are dropped once keyed: dense graphs hold millions of them.
    key = pairs[:, 0] * np.int64(n)
    key += pairs[:, 1]
    del pairs
    key.sort()
    ii = np.empty(key.size, dtype=np.int32)
    jj = np.empty(key.size, dtype=np.int32)
    ww = np.empty(key.size)
    kept = 0
    # Column-major, so that no block copies a coordinate column.
    columns = np.asfortranarray(points)
    # At least one block, so that an eps the kernel cannot scale raises
    # even when the graph has no candidate pairs.
    for start in range(0, max(key.size, 1), BLOCK):
        bi, bj = np.divmod(key[start:start + BLOCK], n)
        dist = _pair_distances(columns, bi, columns, bj)
        weights = kernels.scaled_from_distance(profile, eps, dist, d)
        keep = _kept(dist, weights, radius)
        end = kept + int(np.count_nonzero(keep))
        ii[kept:end] = bi[keep]
        jj[kept:end] = bj[keep]
        ww[kept:end] = weights[keep]
        kept = end
    return WeightedGraph(n=n, eps=eps, ii=ii[:kept], jj=jj[:kept], ww=ww[:kept])


def _pair_distances(x: np.ndarray, ii: np.ndarray, y: np.ndarray,
                    jj: np.ndarray) -> np.ndarray:
    """Distance of each pair (x[ii[k]], y[jj[k]]), summed in axis order.

    One coordinate column at a time, so every temporary is one (m,)
    array; the axis order fixes the bits of each distance.  Each column
    of a row-major cloud is copied once per call; a column-major
    (Fortran-ordered) cloud is read in place.
    """
    dist = np.zeros(ii.size)
    for axis in range(x.shape[1]):
        delta = np.ascontiguousarray(x[:, axis]).take(ii)
        delta -= np.ascontiguousarray(y[:, axis]).take(jj)
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
    when the bound is 0) and grows its radius by 2^(1/d), which about
    doubles the pairs it finds, until they span the cloud.  The spanning
    tree is taken over the candidate distances themselves, each 0 raised
    to the smallest normal float, which is below every positive pair
    distance: the order and the ties stay as they were, coincident
    points keep their edge, and the tree's longest edge is the exact
    bottleneck distance.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n <= 1:
        return -math.inf
    tree = cKDTree(points)
    lb = float(tree.query(points, k=2)[0][:, 1].max())
    radius = lb * (1 + 1e-9) if lb > 0 else 4.0 * n ** (-1.0 / d)
    tiny = np.finfo(float).tiny
    while True:
        # As in build_graph, the slack only widens the candidate set and
        # the distance test decides every pair.
        pairs = tree.query_pairs(radius * (1 + 1e-12), output_type="ndarray")
        dist = _pair_distances(points, pairs[:, 0], points, pairs[:, 1])
        within = dist <= radius
        pairs, dist = pairs[within], np.maximum(dist[within], tiny)
        spanning = minimum_spanning_tree(
            csr_matrix((dist, (pairs[:, 0], pairs[:, 1])), shape=(n, n)))
        if spanning.nnz == n - 1:
            longest = float(spanning.data.max())
            return 0.0 if longest == tiny else longest
        radius *= 2.0 ** (1.0 / d)


def connectivity_scale(n: int, d: int) -> float:
    """The (log n / n)^(1/d) scale where random geometric graphs connect."""
    return (math.log(n) / n) ** (1.0 / d)


def critical_rate(n: int, d: int) -> float:
    """Largest graph scale rate with a consistency guarantee.

    In the plane the rate is (log n)^(3/4)/sqrt(n); in dimension three
    and up it is the connectivity scale.
    """
    if d == 2:
        return math.log(n) ** 0.75 / math.sqrt(n)
    return connectivity_scale(n, d)


# The eps(n) rule of each config kind, built from the dimension d and the
# spec's other keys.  ``admissible`` is c * rate^gamma with gamma < 1,
# which decays slower than the critical rate; ``borderline`` is c * rate
# exactly; ``sub-connectivity`` is factor * (log n/n)^(1/d), below the
# connectivity scale when factor < 1; ``fixed`` ignores n.
EPS_RULES = {
    "admissible": lambda d, /, c=1.0, gamma=0.9: lambda n: c * critical_rate(n, d) ** gamma,
    "borderline": lambda d, /, c=1.0: lambda n: c * critical_rate(n, d),
    "sub-connectivity": lambda d, /, factor=0.3: lambda n: factor * connectivity_scale(n, d),
    "fixed": lambda d, /, value: lambda n: value,
}


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


def graph_total_variation(graph: WeightedGraph, u) -> float:
    """Scaled graph total variation of vertex values u."""
    u = _as_values(graph, u)
    terms = np.empty(graph.edge_count)
    for start in range(0, terms.size, BLOCK):
        block = slice(start, start + BLOCK)
        out = terms[block]
        np.subtract(u.take(graph.ii[block]), u.take(graph.jj[block]), out=out)
        np.abs(out, out=out)
        out *= graph.ww[block]
    return 2.0 * float(terms.sum()) / (graph.eps * graph.n ** 2)


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
    return graph.n <= 1 or int(component_labels(graph).max()) == 0

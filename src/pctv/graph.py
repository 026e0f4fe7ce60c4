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

One pipeline, _edge_blocks, yields every eps-graph's edges.  The
candidate pairs are sorted once, as the keys i*n + j in the narrowest
unsigned type that holds n^2 - 1 (uint32 up to n = 65536), and the
start of each row i in the sorted keys is found by one binary search.
The keys are then handled in blocks of BLOCK consecutive keys: a block
takes i from the row starts and j = key - i*n, computes its distances,
weights and keep mask, and yields its kept edges, with no copy when it
keeps them all.  A block's float64 temporaries take 512 KB and stay in
cache, so only the keys span all candidates.  Two consumers take the
blocks: build_graph writes them into the graph's arrays, and
cloud_total_variation writes only the terms W_ij |u_i - u_j|, never
holding the graph.  graph_total_variation fills the same terms from a
built graph, and both sum them in one call, in numpy's pairwise order.
Every step is elementwise, so the edges and the sum's bits do not depend
on BLOCK or on which consumer ran.  When eps^-d eta(0) is below
WEIGHT_FLOOR no pair can be kept, as the profile never increases
(kernel condition K2), and no pair is searched.  candidate_pair_bound
bounds the pairs a graph searches, so that a config can be refused
before its run builds one.

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
from .geometry import PointCloud, _as_points

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
    size, blocks = _edge_blocks(cloud, profile, eps)
    ii = np.empty(size, dtype=np.int32)
    jj = np.empty(size, dtype=np.int32)
    ww = np.empty(size)
    kept = 0
    for bi, bj, bw in blocks:
        end = kept + bi.size
        ii[kept:end] = bi
        jj[kept:end] = bj
        ww[kept:end] = bw
        kept = end
    return WeightedGraph(n=cloud.n, eps=float(eps), ii=ii[:kept], jj=jj[:kept],
                         ww=ww[:kept])


def _key_dtype(n: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every key i*n + j < n^2."""
    return np.min_scalar_type(max(n * n - 1, 0))


def _edge_blocks(cloud: PointCloud, profile: kernels.KernelProfile, eps: float):
    """The edges of the eps-graph as (i, j, w) blocks, in (i, j) order.

    Returns the number of candidate pairs, which bounds the edge count,
    and an iterator over blocks of at most BLOCK edges: their endpoints
    as intp arrays and their weights.  Raises ValueError as
    _search_radius does, whether or not the cloud has candidate pairs.
    """
    points = np.asarray(cloud.points, dtype=float)
    n, d = points.shape
    eps = float(eps)
    radius = _search_radius(profile, eps, d)
    if radius is None:
        return 0, iter(())

    # The slack only widens the candidate set; the distance test below
    # decides every pair, including those on the boundary.
    pairs = cKDTree(points).query_pairs(radius * (1 + 1e-12),
                                        output_type="ndarray")
    # The pairs are dropped once keyed: dense graphs hold millions of them.
    key_type = _key_dtype(n)
    key = np.multiply(pairs[:, 0], n, dtype=key_type, casting="unsafe")
    np.add(key, pairs[:, 1], out=key, dtype=key_type, casting="unsafe")
    del pairs
    key.sort()
    # starts[i] is the position of row i's first key.  The last row
    # holds no key (j > i), so starts[n - 1] = key.size ends the others.
    # Needles of the keys' own type keep searchsorted from converting them.
    starts = np.searchsorted(key, np.arange(n, dtype=key_type) * key_type.type(n))
    # Column-major, so that no block copies a coordinate column.
    columns = np.asfortranarray(points)

    def blocks():
        for start in range(0, key.size, BLOCK):
            stop = min(start + BLOCK, key.size)
            # Rows first .. last - 1 meet the block, and their starts,
            # clipped to it, count each one's keys in it.
            first = int(np.searchsorted(starts, start, side="right")) - 1
            last = int(np.searchsorted(starts, stop, side="left"))
            counts = np.diff(np.clip(starts[first:last + 1], start, stop))
            bi = np.repeat(np.arange(first, last), counts)
            bj = key[start:stop].astype(np.intp)
            bj -= bi * n
            dist = _pair_distances(columns, bi, columns, bj)
            weights = kernels.scaled_from_distance(profile, eps, dist, d)
            keep = _kept(dist, weights, radius)
            if not keep.all():
                bi, bj, weights = bi[keep], bj[keep], weights[keep]
            yield bi, bj, weights

    return key.size, blocks()


def _search_radius(profile: kernels.KernelProfile, eps: float, d: int) -> float | None:
    """Radius of the eps-graph's candidate search, or None when no pair can be kept.

    Raises ValueError when eps is not positive or eps^-d times eta(0)
    overflows.  The profile never increases (K2), so when even a pair at
    distance 0 falls below WEIGHT_FLOOR, every pair does.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    radius = eps * kernels.effective_support(profile, d)
    peak = kernels.scaled_from_distance(profile, eps, 0.0, d)
    return radius if _kept(0.0, peak, radius) else None


def candidate_pair_bound(n: int, d: int, profile: kernels.KernelProfile, eps: float,
                         upper: float) -> float:
    """Bound on the expected candidate pairs of the eps-graph of n points
    drawn from a density of at most upper; 0 when no pair can be kept.

    A point has on average at most n |B_d| r^d upper others within the
    search radius r, so the pairs are at most n^2/2 |B_d| r^d upper, and
    never more than n^2/2.  Raises ValueError as _search_radius does.
    """
    radius = _search_radius(profile, float(eps), d)
    if radius is None:
        return 0.0
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    try:
        share = min(1.0, ball * upper * radius ** d)
    except OverflowError:  # a float's ** raises where * gives inf
        share = 1.0
    return n * n / 2 * share


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


def _radii(lb: float, n: int, d: int):
    """Radii of a threshold search over n points in d dimensions, whose
    caller proposes kd-tree pairs within radius (1 + 1e-12), keeps those
    _within the radius, and stops when they pass its test.

    The first radius is just above the lower bound lb, at lb (1 + 1e-9),
    or 4 n^(-1/d) when lb is 0; each next one is 2^(1/d) times larger,
    which about doubles the pairs in d dimensions, so the last round
    holds about twice the pairs within the threshold, not 2^d times.
    """
    radius = lb * (1 + 1e-9) if lb > 0 else 4.0 * n ** (-1.0 / d)
    while True:
        yield radius
        radius *= 2.0 ** (1.0 / d)


def _within(x: np.ndarray, ii: np.ndarray, y: np.ndarray, jj: np.ndarray,
            radius: float):
    """The proposed pairs (x[ii[k]], y[jj[k]]) within the radius, and
    their distances: as in build_graph, the distance test decides."""
    dist = _pair_distances(x, ii, y, jj)
    near = dist <= radius
    return ii[near], jj[near], dist[near]


def connection_distance(points) -> float:
    """Smallest distance t at which the pairs with distance <= t connect the cloud.

    This is the longest edge of the Euclidean minimum spanning tree, with
    the distance bits of ``build_graph``.  A cloud of at most one point
    is connected by no pair at all; it reports -inf.

    The largest nearest-neighbour distance bounds t from below for the
    search of _radii.  The spanning tree is taken over the candidate
    distances themselves, each 0 raised to the smallest normal float,
    which is below every positive pair distance: the order and the ties
    stay as they were, coincident points keep their edge, and the tree's
    longest edge is the exact bottleneck distance.
    """
    points = _as_points(points)
    n, d = points.shape
    if n <= 1:
        return -math.inf
    tree = cKDTree(points)
    lb = float(tree.query(points, k=2)[0][:, 1].max())
    tiny = np.finfo(float).tiny
    for radius in _radii(lb, n, d):
        pairs = tree.query_pairs(radius * (1 + 1e-12), output_type="ndarray")
        ii, jj, dist = _within(points, pairs[:, 0], points, pairs[:, 1], radius)
        spanning = minimum_spanning_tree(
            csr_matrix((np.maximum(dist, tiny), (ii, jj)), shape=(n, n)))
        if spanning.nnz == n - 1:
            longest = float(spanning.data.max())
            return 0.0 if longest == tiny else longest


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


@dataclass(frozen=True)
class EpsRule:
    """The eps(n) rule of a config kind in dimension d, with coefficient c,
    factor or value; EPS_RULES builds it from d and the spec's other keys.
    ``admissible`` is c * rate^gamma with gamma < 1, which decays slower
    than the critical rate; ``borderline`` is c * rate exactly;
    ``sub-connectivity`` is factor * (log n/n)^(1/d), below the
    connectivity scale when factor < 1; ``fixed`` ignores n."""

    kind: str
    d: int
    coefficient: float
    gamma: float | None = None

    def __call__(self, n: int) -> float:
        if self.kind == "fixed":
            return self.coefficient
        formula = connectivity_scale if self.kind == "sub-connectivity" else critical_rate
        rate = formula(n, self.d)
        return self.coefficient * (rate if self.gamma is None else rate ** self.gamma)


EPS_RULES = {
    "admissible": lambda d, /, c=1.0, gamma=0.9: EpsRule("admissible", d, c, gamma),
    "borderline": lambda d, /, c=1.0: EpsRule("borderline", d, c),
    "sub-connectivity": lambda d, /, factor=0.3: EpsRule("sub-connectivity", d, factor),
    "fixed": lambda d, /, value: EpsRule("fixed", d, value),
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


def _vertex_values(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"expected {n} vertex values, got shape {u.shape}")
    return u


def _total_variation(u: np.ndarray, eps: float, size: int, blocks):
    """Scaled graph total variation of u over the (i, j, w) edge blocks,
    at most size edges in all, and the number of edges.

    The terms W_ij |u_i - u_j| fill one array, block by block, which is
    summed in one call, so the sum's bits do not depend on the blocks.
    """
    terms = np.empty(size)
    filled = 0
    for bi, bj, bw in blocks:
        out = terms[filled:filled + bi.size]
        np.subtract(u.take(bi), u.take(bj), out=out)
        np.abs(out, out=out)
        out *= bw
        filled += bi.size
    return 2.0 * float(terms[:filled].sum()) / (eps * u.size ** 2), filled


def graph_total_variation(graph: WeightedGraph, u) -> float:
    """Scaled graph total variation of vertex values u."""
    u = _vertex_values(u, graph.n)
    blocks = ((graph.ii[start:start + BLOCK], graph.jj[start:start + BLOCK],
               graph.ww[start:start + BLOCK]) for start in range(0, graph.edge_count, BLOCK))
    return _total_variation(u, graph.eps, graph.edge_count, blocks)[0]


def cloud_total_variation(cloud: PointCloud, profile: kernels.KernelProfile,
                          eps: float, u) -> tuple[float, int]:
    """Scaled graph total variation of vertex values u on the eps-graph of
    the cloud, and the graph's edge count, without building the graph.

    Equal, bit for bit, to graph_total_variation of build_graph's graph.
    """
    u = _vertex_values(u, cloud.n)
    size, blocks = _edge_blocks(cloud, profile, eps)
    return _total_variation(u, float(eps), size, blocks)


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

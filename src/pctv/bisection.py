"""Balanced graph bisection by cut energy.

A bisection splits the vertices of a weighted graph into two classes of
equal size.  Its energy is the graph total variation of the class
indicator, so minimizing it means cutting as little weight as possible
while keeping the halves balanced.  This module provides a swap-based
local search, and helpers that compare computed bisections against the
flat interfaces they approximate on simple domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from .errors import UnsupportedConfigurationError
from .geometry import BoxUnion, Domain, fills_bounding_box, sample_iid
from .graph import (
    WeightedGraph,
    build_graph,
    component_labels,
    graph_total_variation,
    is_connected,
)
from .transport import tlp_distance

GAIN_TOL = 1e-12


@dataclass(frozen=True)
class Bisection:
    """A balanced two-class vertex partition and its cut energy.

    labels[v] is True when vertex v belongs to class A.  Partitions are
    canonical: vertex 0 always lies in class A, so complementary label
    vectors describe the same bisection exactly once.
    """

    labels: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=bool)
        object.__setattr__(self, "labels", labels)
        n = labels.size
        if n == 0 or n % 2:
            raise UnsupportedConfigurationError(
                "a bisection needs an even, positive number of vertices"
            )
        if int(labels.sum()) != n // 2:
            raise UnsupportedConfigurationError("bisection classes must have equal size")
        if not labels[0]:
            raise UnsupportedConfigurationError("canonical bisections keep vertex 0 in class A")

    @property
    def n(self) -> int:
        return self.labels.size


def _canonical(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=bool)
    return labels if labels[0] else ~labels


def bisection_energy(graph: WeightedGraph, labels: np.ndarray) -> float:
    """Cut energy of a labeling: the graph total variation of its indicator."""
    return graph_total_variation(graph, np.asarray(labels, dtype=float))


def _zero_energy_start(graph: WeightedGraph) -> np.ndarray | None:
    """Balanced union of whole components, when one exists.

    On a disconnected graph a bisection that never splits a component
    cuts no weight at all.  Subset-sum over the component sizes decides
    whether some components add up to exactly half the vertices; the
    reachable sums are tracked as bits of a single integer.
    """
    comps = component_labels(graph)
    sizes = np.bincount(comps)
    if sizes.size < 2:
        return None
    half = graph.n // 2
    reachable = [1]
    for size in sizes:
        reachable.append(reachable[-1] | (reachable[-1] << int(size)))
    if not (reachable[-1] >> half) & 1:
        return None
    chosen = np.zeros(sizes.size, dtype=bool)
    remaining = half
    for k in range(sizes.size - 1, -1, -1):
        take = int(sizes[k])
        if take <= remaining and (reachable[k] >> (remaining - take)) & 1:
            chosen[k] = True
            remaining -= take
    assert remaining == 0
    return chosen[comps]


def _swap_descent(
    weights: csr_matrix, labels: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-improvement swap descent from several balanced labelings at once.

    Row s of ``labels`` is one start and ``cuts[s]`` its cut weight.  All
    starts descend together, one swap each per step, and a start leaves
    the batch when no swap improves it.  Each step exchanges the pair
    whose swap lowers that start's cut weight the most; the gain of
    swapping a in A with b in B is D[a] + D[b] - 2 W[a, b], where D is
    external minus internal degree.  Ties go to the first maximal pair
    with a, then b, ascending.  The weights stay sparse, so there is no
    size cap: the pair of largest D on each side bounds the best gain
    from below, and only vertices whose D can reach that bound enter the
    gain block.  Weights are non-negative, so no other vertex can be part
    of a best pair.  The candidate sets are ragged: each start forms
    gains over its own candidate pairs only.
    """
    labels = labels.copy()
    cuts = np.array(cuts, dtype=float)
    n = labels.shape[1]
    indptr, indices, data = weights.indptr, weights.indices, weights.data
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    # Implicit zeros count, so this is each row's largest weight or 0.
    heaviest = weights.max(axis=1).toarray().ravel()
    # Candidate b -> its position among its start's candidates, flat over (start, vertex).
    column = np.full(labels.size, -1)
    # pen_a is 0 on A and -inf on B, pen_b the reverse: adding one to D
    # masks the other side.  D is never -0.0, so adding +0.0 keeps its bits.
    pen_a = np.where(labels, 0.0, -np.inf)
    pen_b = np.where(labels, -np.inf, 0.0)
    active = np.arange(labels.shape[0])
    for _ in range(10 * n):
        if active.size == 0:
            break
        twice = np.ascontiguousarray(2.0 * (weights @ labels[active].T.astype(float)).T)
        diff_a = (degrees - twice) + pen_a[active]
        diff_b = (twice - degrees) + pen_b[active]
        a0 = diff_a.argmax(axis=1)
        top_a = diff_a[np.arange(active.size), a0]
        top_b = diff_b.max(axis=1)
        tol = GAIN_TOL * np.maximum(cuts[active], 1.0)
        reach = 2.0 * heaviest[a0]
        # The slack covers rounding only; the gain block decides every pair.
        slack = 1e-9 * (np.abs(top_a) + np.abs(top_b) + reach)
        # No pair can gain more than its two D values: such a start gets no candidates.
        live = top_a + top_b > tol
        floor_a = np.where(live, top_a - reach - slack, np.inf)
        floor_b = np.where(live, top_b - reach - slack, np.inf)
        # Flat indices are row-major, so each start's candidates come out ascending.
        near_a = (diff_a >= floor_a[:, None]).ravel().nonzero()[0]
        near_b = (diff_b >= floor_b[:, None]).ravel().nonzero()[0]
        row_a, idx_a = np.divmod(near_a, n)
        row_b, idx_b = np.divmod(near_b, n)
        count_b = np.bincount(row_b, minlength=active.size)
        first_b = count_b.cumsum() - count_b
        width = count_b[row_a]
        first_pair = width.cumsum() - width
        # Gain p pairs an a candidate with B candidate pair_b[p] of the same start.
        pair_b = (first_b[row_a] - first_pair).repeat(width)
        pair_b += np.arange(pair_b.size)
        gains = diff_a.take(near_a).repeat(width) + diff_b.take(near_b)[pair_b]
        # W[a, b] comes from the raw CSR arrays: scipy indexing per step costs more than the step.
        starts = indptr[idx_a]
        counts = indptr[idx_a + 1] - starts
        rows = np.arange(near_a.size).repeat(counts)
        entries = (starts - counts.cumsum() + counts).repeat(counts) + np.arange(rows.size)
        column[near_b] = np.arange(near_b.size) - first_b[row_b]
        cols = column[row_a[rows] * n + indices[entries]]
        column[near_b] = -1
        inside = cols >= 0
        gains[first_pair[rows[inside]] + cols[inside]] -= 2.0 * data[entries[inside]]
        # Each live start owns one contiguous run of gains; take its first maximum.
        sizes = (np.bincount(row_a, minlength=active.size) * count_b)[live]
        offsets = sizes.cumsum() - sizes
        best = np.maximum.reduceat(gains, offsets)
        hits = (gains == best.repeat(sizes)).nonzero()[0]
        pick = hits[hits.searchsorted(offsets)]
        better = best > tol[live]
        pick = pick[better]
        active = active[live][better]
        a = idx_a[first_pair.searchsorted(pick, "right") - 1]
        b = idx_b[pair_b[pick]]
        labels[active, a] = False
        labels[active, b] = True
        pen_a[active, a] = pen_b[active, b] = -np.inf
        pen_a[active, b] = pen_b[active, a] = 0.0
        cuts[active] -= best[better]
    return labels, cuts


def local_search_bisection(graph: WeightedGraph, seed: int, restarts: int = 32) -> Bisection:
    """Swap-based local search over balanced partitions.

    Runs a best-improvement descent on the sparse weights from several
    starting partitions, all descending together, and keeps the
    lowest-energy result.  Starts are: a cut-free union of whole
    components when the graph is disconnected in a balanced way, and
    ``restarts`` random balanced splits drawn from independent streams
    spawned off ``seed``.  Ties resolve to the lexicographically smallest
    canonical label vector.  Memory grows with the edge count plus n
    times the number of starts, so any even n is accepted.
    """
    n = graph.n
    if n % 2 or n == 0:
        raise UnsupportedConfigurationError("bisection needs an even, positive vertex count")
    if restarts < 1:
        raise UnsupportedConfigurationError("need at least one restart")
    half = n // 2
    upper = csr_matrix((graph.ww, (graph.ii, graph.jj)), shape=(n, n))
    weights = (upper + upper.T).tocsr()

    starts: list[np.ndarray] = []
    packed = _zero_energy_start(graph)
    if packed is not None:
        starts.append(packed)
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        labels = np.zeros(n, dtype=bool)
        labels[rng.permutation(n)[:half]] = True
        starts.append(labels)
    cuts = [float(graph.ww[start[graph.ii] != start[graph.jj]].sum()) for start in starts]
    found, found_cuts = _swap_descent(weights, np.array(starts), np.array(cuts))

    best_labels: tuple[bool, ...] | None = None
    best_cut = np.inf
    for labels, cut in zip(found, found_cuts.tolist()):
        key = tuple(_canonical(labels))
        if cut < best_cut - GAIN_TOL * max(best_cut, 1.0) or (
            cut <= best_cut + GAIN_TOL * max(best_cut, 1.0)
            and (best_labels is None or key < best_labels)
        ):
            best_cut = cut
            best_labels = key
    assert best_labels is not None
    final = np.array(best_labels, dtype=bool)
    return Bisection(final, bisection_energy(graph, final))


def agreement(labels: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of vertices on which two partitions agree.

    Class names carry no meaning, so the score is the better of the two
    ways of identifying the classes with each other.
    """
    labels = np.asarray(labels, dtype=bool)
    reference = np.asarray(reference, dtype=bool)
    match = float(np.mean(labels == reference))
    return max(match, 1.0 - match)


def reference_partitions(domain: Domain, points: np.ndarray) -> list[np.ndarray]:
    """Label vectors induced by the flat minimal interfaces of a domain.

    A cube, a domain that fills its bounding box with equal sides, admits
    one straight halving cut per axis; any other union of boxes, such as
    the dumbbell, is cut across the middle of its x_0 extent.  Other
    domains are not covered.
    """
    points = np.asarray(points, dtype=float)
    lo, hi = domain.bounding_box()
    if fills_bounding_box(domain):
        edges = hi - lo
        if np.allclose(edges, edges[0]):
            mid = 0.5 * (lo + hi)
            return [points[:, axis] < mid[axis] for axis in range(domain.dimension)]
    elif isinstance(domain, BoxUnion):
        return [points[:, 0] < 0.5 * (lo[0] + hi[0])]
    raise UnsupportedConfigurationError(
        "reference interfaces are available for cubes and dumbbell shapes only"
    )


@dataclass(frozen=True)
class SweepRecord:
    """One bisection run inside a consistency sweep."""

    n: int
    eps: float
    seed: int
    energy: float
    connected: bool
    agreement: float
    tl1_distance: float


@dataclass(frozen=True)
class SweepRun:
    """A sweep record together with the cloud and labels that produced it."""

    record: SweepRecord
    points: np.ndarray
    labels: np.ndarray


def sweep_reference(domain: Domain, density, reference_size: int):
    """Fixed discretization of the continuum minimizers for TL1 scoring.

    Returns the reference points and the indicator label vectors of
    each flat interface over them.  The reference cloud uses a
    fixed internal seed so every sweep scores against the same points.
    """
    reference = sample_iid(domain, density, reference_size, seed=715517)
    partitions = reference_partitions(domain, reference.points)
    return reference.points, partitions


def _tl1_lower_bounds(points, labels, ref_points, ref_partitions):
    """Lower bounds on the TL1 distance of each interface and identification.

    Every atom of either cloud sends or receives all its mass at no less
    than its cheapest cost, so the larger of the mean row minimum and
    the mean column minimum of the cost |x - y| + |f - g| bounds TL1
    from below.  Returns (bound, partition, values) triples, one per
    reference partition and label identification, by increasing bound.
    """
    dist = cdist(points, ref_points)
    bounds = []
    for part in ref_partitions:
        # negating the labels swaps which cloud class carries value 1
        for values in (labels, ~labels):
            cost = dist + (values[:, None] != part[None, :])
            bounds.append((max(cost.min(axis=1).mean(), cost.min(axis=0).mean()), part, values))
    return sorted(bounds, key=lambda bound: bound[0])


def sweep_run(
    domain: Domain,
    density,
    profile,
    n: int,
    eps: float,
    seed: int,
    reference,
    restarts: int,
) -> SweepRun:
    """Sample one cloud, bisect it, and score it against the reference.

    Records the cut energy, graph connectivity, the best label agreement
    with a flat interface, and the smallest TL1 distance between the
    computed indicator and a reference interface indicator over all
    interface choices and label identifications.  Those are solved in
    order of a lower bound, and the ones whose bound exceeds the best
    distance found cannot hold the minimum and are skipped.
    """
    ref_points, ref_partitions = reference
    cloud = sample_iid(domain, density, n, seed=seed)
    graph = build_graph(cloud, profile, eps)
    result = local_search_bisection(graph, seed=seed, restarts=restarts)
    score = max(
        agreement(result.labels, part)
        for part in reference_partitions(domain, cloud.points)
    )
    best_tl1 = np.inf
    # the bounds hold to rounding, so a solve is skipped only when its
    # bound clears the best distance by a relative margin
    for bound, part, values in _tl1_lower_bounds(
            cloud.points, result.labels, ref_points, ref_partitions):
        if bound > best_tl1 * (1 + 1e-9):
            break
        dist = tlp_distance(cloud.points, values.astype(float),
                            ref_points, part.astype(float), p=1)
        best_tl1 = min(best_tl1, dist)
    record = SweepRecord(
        n=n,
        eps=eps,
        seed=seed,
        energy=result.energy,
        connected=is_connected(graph),
        agreement=score,
        tl1_distance=float(best_tl1),
    )
    return SweepRun(record=record, points=cloud.points, labels=result.labels)


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
# A descent makes at most SWAPS_PER_VERTEX * n swaps from each start.
SWAPS_PER_VERTEX = 10


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


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the given CSR rows' entries, row after row, and for
    each entry the position in ``rows`` of the row that holds it."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    owner = np.arange(rows.size).repeat(counts)
    return (starts - counts.cumsum() + counts)[owner] + np.arange(owner.size), owner


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

    The weights meet the labels once.  G = 2 W L^T - degree, which is D
    on side B and -D on side A, is formed at the start and then kept by
    the swaps: swapping a into B and b into A adds 2 (W[b] - W[a]) to
    that start's row of G.  So a step costs O(starts * n) for the
    candidate scan, plus the degrees of the swapped vertices and the gain
    block, where recomputing W @ labels cost O(edges) per start.  A start
    still improving after SWAPS_PER_VERTEX * n swaps is refused.
    """
    labels = labels.copy()
    cuts = np.array(cuts, dtype=float)
    n = labels.shape[1]
    cap = SWAPS_PER_VERTEX * n
    indptr, indices, data = weights.indptr, weights.indices, weights.data
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    # Implicit zeros count, so this is each row's largest weight or 0.
    heaviest = weights.max(axis=1).toarray().ravel()
    # Candidate b -> its position among its start's candidates, flat over (start, vertex).
    column = np.full(labels.size, -1)
    # G split by side: diff_a holds -G = D on A and -inf on B, diff_b
    # holds G = D on B and -inf on A, so each masks the other side.
    signed = np.ascontiguousarray(2.0 * (weights @ labels.T.astype(float)).T) - degrees
    diff_a = np.where(labels, -signed, -np.inf)
    diff_b = np.where(labels, -np.inf, signed)
    del signed
    # Row r of diff_a and diff_b descends start active[r].
    active = np.arange(labels.shape[0])
    swaps = 0
    while active.size:
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
        entries, rows = _row_entries(indptr, idx_a)
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
        keep = live.nonzero()[0][better]
        if keep.size and swaps == cap:
            raise UnsupportedConfigurationError(
                f"the swap descent still lowers a cut after {cap} swaps "
                f"({SWAPS_PER_VERTEX} per vertex)")
        swaps += 1
        a = idx_a[first_pair.searchsorted(pick, "right") - 1]
        b = idx_b[pair_b[pick]]
        labels[active[keep], a] = False
        labels[active[keep], b] = True
        cuts[active[keep]] -= best[better]
        # a left A, so its weights leave G = diff_b, and b joined A, so its
        # weights enter; the mirrored updates keep diff_a exactly -G.  -inf
        # absorbs the updates on the other side.
        entries, owner = _row_entries(indptr, np.concatenate([a, b]))
        flat = np.concatenate([keep, keep])[owner] * n + indices[entries]
        step = np.where(owner < keep.size, -2.0, 2.0) * data[entries]
        flat_a, flat_b = diff_a.reshape(-1), diff_b.reshape(-1)
        np.add.at(flat_b, flat, step)
        np.subtract.at(flat_a, flat, step)
        # The swapped pair changes sides.
        at_a, at_b = keep * n + a, keep * n + b
        flat_b[at_a] = -flat_a[at_a]
        flat_a[at_b] = -flat_b[at_b]
        flat_a[at_a] = flat_b[at_b] = -np.inf
        if keep.size < active.size:
            active, diff_a, diff_b = active[keep], diff_a[keep], diff_b[keep]
    return labels, cuts


def local_search_bisection(graph: WeightedGraph, seed: int, restarts: int = 32) -> Bisection:
    """Swap-based local search over balanced partitions.

    Runs a best-improvement descent on the sparse weights from several
    starting partitions, all descending together, and keeps the
    lowest-energy result.  Starts are: a cut-free union of whole
    components when the graph is disconnected in a balanced way, and
    ``restarts`` random balanced splits drawn from independent streams
    spawned off ``seed``.  Every cut within GAIN_TOL * max(low, 1) of the
    lowest cut low counts as a tie, whatever the order of the starts,
    and ties go to the lexicographically smallest canonical label
    vector.  Memory grows with the edge count plus n times the number of
    starts, so any even n is accepted.  The descent forms W @ labels once
    and updates the gains from the swapped vertices' edges, so a swap
    step costs O(n) per start plus the swapped vertices' degrees and the
    gain block, not O(edges) per start.
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

    # Flip each row so that vertex 0 lies in class A; near-lowest cuts tie.
    found ^= ~found[:, :1]
    low = float(found_cuts.min())
    final = min(found[found_cuts <= low + GAIN_TOL * max(low, 1.0)], key=tuple)
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

    The cost never needs forming: rounding is monotone, so the least
    distance plus one is the least of the distances plus one, and each
    row or column minimum is the nearest distance to the same class or
    one more than the nearest to the other class, whichever is smaller.
    """
    dist = cdist(points, ref_points)
    # nearest cloud point of class A, and of class B, to each reference point
    near = [dist[side].min(axis=0, initial=np.inf) for side in (labels, ~labels)]
    bounds = []
    for part in ref_partitions:
        inside = dist[:, part].min(axis=1, initial=np.inf)
        outside = dist[:, ~part].min(axis=1, initial=np.inf)
        # negating the labels swaps which cloud class carries value 1
        for values, (same, other) in ((labels, near), (~labels, near[::-1])):
            rows = np.where(values, np.minimum(inside, outside + 1),
                            np.minimum(outside, inside + 1))
            cols = np.where(part, np.minimum(same, other + 1), np.minimum(other, same + 1))
            bounds.append((max(rows.mean(), cols.mean()), part, values))
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


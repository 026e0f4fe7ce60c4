"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from first principles: plain
quadrature, Monte Carlo, full pairwise loops, and exhaustive
enumeration.  The imports from the package under test are the
sampler and the scaled kernel that the Monte Carlo nonlocal TV draws
its pairs with, and the profile base that two test-only kinds extend.
Slow is fine; these only run at test time on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from pctv.geometry import sample_iid
from pctv.kernels import KernelProfile, scaled_from_distance


@dataclass(frozen=True)
class ClosedIndicator(KernelProfile):
    """1 on [0, 1] and 0 past it: closed at its radius, unlike the indicator."""

    name = "closed"
    support_radius = 1.0
    breakpoints = (1.0,)

    def __call__(self, r):
        return np.where(np.asarray(r, dtype=float) <= 1.0, 1.0, 0.0)


@dataclass(frozen=True)
class HeavyTail(KernelProfile):
    """1 / (1 + r): its moment integrand eta(r) r^d never decays (no K3)."""

    name = "slow"

    def __call__(self, r):
        return 1.0 / (1.0 + np.asarray(r, dtype=float))


def surface_tension_grid_2d(profile_fn, support: float, cells: int = 2048) -> float:
    """sigma = integral over R^2 of eta(|z|) |z1| dz by midpoint quadrature.

    Uses the quadrant symmetry of the integrand: four times the integral
    over [0, R]^2.
    """
    h = support / cells
    centers = (np.arange(cells) + 0.5) * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    rr = np.hypot(xx, yy)
    values = profile_fn(rr) * xx
    return float(4.0 * values.sum() * h * h)


def surface_tension_mc_3d(profile_fn, support: float, samples: int = 10_000_000,
                          seed: int = 314159) -> tuple[float, float]:
    """sigma in d=3 by Monte Carlo over the bounding cube, with a stderr."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    chunk = 1_000_000
    done = 0
    volume = (2.0 * support) ** 3
    while done < samples:
        m = min(chunk, samples - done)
        z = rng.uniform(-support, support, size=(m, 3))
        values = profile_fn(np.linalg.norm(z, axis=1)) * np.abs(z[:, 0])
        total += float(values.sum())
        total_sq += float((values ** 2).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = volume * math.sqrt(var / samples)
    return volume * mean, stderr


def nonlocal_tv_monte_carlo(u, density, domain, profile, eps: float, samples: int,
                            seed: int) -> tuple[float, float]:
    """TV_eps(u; rho) as a mean over pairs drawn i.i.d. from the density.

    The density must integrate to 1 over the domain.  Returns the mean
    over `samples` pairs and its standard error.
    """
    seeds = np.random.SeedSequence(seed).spawn(2)
    x = sample_iid(domain, density, samples, seed=seeds[0]).points
    y = sample_iid(domain, density, samples, seed=seeds[1]).points
    kv = scaled_from_distance(profile, eps, np.linalg.norm(x - y, axis=1),
                              domain.dimension)
    terms = kv * np.abs(u(x) - u(y)) / eps
    return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(samples))


def integrate_density(density, domain, resolution: int = 512) -> float:
    """Midpoint quadrature of the density over the domain.

    density maps an (m, d) array to (m,) values; domain provides
    dimension, bounding_box() and contains().
    """
    lo, hi = domain.bounding_box()
    d = domain.dimension
    axes = [lo[ax] + (hi[ax] - lo[ax]) * (np.arange(resolution) + 0.5) / resolution
            for ax in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    cell = float(np.prod((hi - lo) / resolution))
    idx = np.nonzero(domain.contains(pts))[0]
    total = 0.0
    chunk = 1 << 18
    for start in range(0, idx.size, chunk):
        total += float(np.sum(density(pts[idx[start:start + chunk]])))
    return total * cell


def pairwise_edges(points: np.ndarray, profile_fn, eps: float, d: int,
                   cutoff: float, floor: float = 1e-15):
    """Every pair within the cutoff radius, by a full O(n^2) loop.

    Returns (i, j, w) arrays sorted lexicographically by (i, j) with
    i < j, mirroring the library's edge ordering contract.
    """
    n = len(points)
    ii, jj, ww = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = float(np.linalg.norm(points[i] - points[j]))
            if r > cutoff:
                continue
            w = eps ** (-d) * float(profile_fn(np.array([r / eps]))[0])
            if w >= floor:
                ii.append(i)
                jj.append(j)
                ww.append(w)
    order = np.lexsort((np.array(jj, dtype=int), np.array(ii, dtype=int))) if ii else []
    ii = np.array(ii, dtype=int)[order] if len(ii) else np.zeros(0, dtype=int)
    jj = np.array(jj, dtype=int)[order] if len(jj) else np.zeros(0, dtype=int)
    ww = np.array(ww, dtype=float)[order] if len(ww) else np.zeros(0)
    return ii, jj, ww


def exact_edges(points: np.ndarray, profile_fn, eps: float, d: int,
                radius: float, floor: float = 1e-15):
    """Every pair within the radius, with distances bit for bit fixed.

    Loops over i and takes the distances to all later points as the row
    sums np.sqrt(np.sum(diff * diff, axis=1)) of diff = X_i - X_j.  A
    pair is kept when its distance is at most the radius and its weight
    eps^(-d) * eta(r / eps) is at least the floor.  Returns (i, j, w)
    sorted by (i, j) with i < j, for comparison with array_equal.
    """
    n = len(points)
    ii, jj, ww = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for i in range(n):
        diff = points[i] - points[i + 1:]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        w = eps ** (-d) * np.asarray(profile_fn(dist / eps), dtype=float)
        keep = (dist <= radius) & (w >= floor)
        ii.append(np.full(int(keep.sum()), i))
        jj.append(i + 1 + np.flatnonzero(keep))
        ww.append(w[keep])
    return np.concatenate(ii), np.concatenate(jj), np.concatenate(ww)


def bfs_component_labels(n: int, ii, jj) -> np.ndarray:
    """Component labels by breadth-first search from vertices 0, 1, ...

    Components are numbered in the order their smallest vertex is met.
    """
    neighbours = [[] for _ in range(n)]
    for i, j in zip(ii, jj):
        neighbours[int(i)].append(int(j))
        neighbours[int(j)].append(int(i))
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = [start]
        for v in queue:
            for w in neighbours[v]:
                if labels[w] < 0:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return labels


def exhaustive_connection_distance(points: np.ndarray) -> float:
    """Longest edge of a minimum spanning tree over all pairs, by Kruskal.

    Every pair's distance is summed one coordinate at a time in axis
    order, the pairs are taken in sorted order, and a union-find joins
    their ends; pairs at distance 0 are edges like any other.  A cloud
    of at most one point reports -inf.
    """
    n, d = points.shape
    ii, jj = np.triu_indices(n, k=1)
    dist = np.zeros(ii.size)
    for axis in range(d):
        delta = points[ii, axis] - points[jj, axis]
        dist += delta * delta
    dist = np.sqrt(dist)
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    longest, joined = -math.inf, 1
    for k in np.argsort(dist, kind="stable"):
        a, b = root(int(ii[k])), root(int(jj[k]))
        if a != b:
            parent[a] = b
            longest = float(dist[k])
            joined += 1
            if joined == n:
                break
    return longest


def bipartite_pairs(x: np.ndarray, y: np.ndarray, radius: float):
    """Every cross pair (i, j) with |x_i - y_j| <= radius, by a dense scan.

    Returns (i, j, distance) sorted by (i, j); the distance is the
    Euclidean norm of x_i - y_j.
    """
    dist = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    ii, jj = np.nonzero(dist <= radius)
    return ii, jj, dist[ii, jj]


def gtv_reference(ii, jj, ww, values, n: int, eps: float) -> float:
    """Graph total variation by direct summation over the ordered pairs."""
    total = 0.0
    for i, j, w in zip(ii, jj, ww):
        total += 2.0 * w * abs(values[i] - values[j])
    return total / (eps * n * n)


def gtv_whole_array(ii, jj, ww, values, n: int, eps: float) -> float:
    """Graph total variation as one expression over the whole edge arrays.

    The products are elementwise and np.sum adds them in numpy's pairwise
    order, so a blocked evaluation that fills the same terms and sums
    them in one call must agree with this bit for bit.
    """
    values = np.asarray(values, dtype=float)
    return 2.0 * float(np.sum(ww * np.abs(values[ii] - values[jj]))) / (eps * n ** 2)


def cut_weight(ii, jj, ww, mask) -> float:
    """Graph perimeter GPer(A) = 2 * total weight of the edges leaving A."""
    mask = np.asarray(mask, dtype=bool)
    return 2.0 * float(np.sum(ww[mask[ii] != mask[jj]]))


def coarea_terms(u, gtv) -> list[float]:
    """Layer-cake terms (s_(k+1) - s_k) * gtv(indicator of u > s_k).

    s_1 < ... < s_m are the levels of u, and gtv is the total variation
    under test.  The terms sum to gtv(u) up to rounding: every pair
    contributes |u_i - u_j| to both.
    """
    u = np.asarray(u, dtype=float)
    levels = np.unique(u)
    return [float(hi - lo) * gtv((u > lo).astype(float))
            for lo, hi in zip(levels[:-1], levels[1:])]


def exhaustive_tlp(x: np.ndarray, f: np.ndarray, y: np.ndarray, g: np.ndarray,
                   p: float) -> float:
    """Optimal TL^p distance between functions on two n-point clouds, n <= 8.

    Tries every bijection between points and keeps the cheapest mean
    ground cost |x - y|^p + |f - g|^p.
    """
    n = len(x)
    assert len(y) == n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = 0.0
        for i, j in enumerate(perm):
            cost += float(np.linalg.norm(x[i] - y[j]) ** p) + abs(f[i] - g[j]) ** p
        best = min(best, cost / n)
    return best ** (1.0 / p)


def exhaustive_bottleneck(x: np.ndarray, y: np.ndarray) -> float:
    """Min over bijections of the maximum displacement, n <= 8."""
    n = len(x)
    dist = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        worst = max(dist[i, perm[i]] for i in range(n))
        best = min(best, worst)
    return best


def threshold_bottleneck(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest pairwise distance whose threshold graph has a perfect matching.

    Scans the sorted unique entries of the dense distance matrix upward
    and tests each with a plain augmenting-path matcher started from
    scratch.  Slow (quadratic memory, one matching per level), so small
    instances only.
    """
    dist = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    for level in np.unique(dist):
        if matching_size(dist <= level) == len(x):
            return float(level)
    raise AssertionError("the complete bipartite graph has a perfect matching")


def matching_size(allowed: np.ndarray) -> int:
    """Size of a maximum matching of a boolean row-by-column matrix.

    Kuhn's augmenting-path search from every row in turn.
    """
    adjacency = [np.flatnonzero(row).tolist() for row in allowed]
    owner = [-1] * allowed.shape[1]

    def augment(i, seen):
        for j in adjacency[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, [False] * len(owner)) for i in range(len(adjacency)))


def exhaustive_bisection(n: int, ii, jj, ww, eps: float) -> tuple[float, np.ndarray]:
    """Minimum balanced cut energy and its labels, by enumeration.

    Vertex 0 is pinned to class A, so each bisection is enumerated once.
    Exactly tied minima resolve to the lexicographically smallest label
    vector, False before True.
    """
    half = n // 2
    combos = np.array(list(itertools.combinations(range(1, n), half - 1)), dtype=np.intp)
    labels = np.zeros((len(combos), n), dtype=bool)
    labels[:, 0] = True
    np.put_along_axis(labels, combos, True, axis=1)
    energies = 2.0 / (n * n * eps) * ((labels[:, ii] != labels[:, jj]) @ ww)
    low = energies.min()
    return float(low), np.array(min(labels[energies == low].tolist()))


GAIN_TOL = 1e-12


def dense_swap_descent(
    weights: np.ndarray, labels: np.ndarray, cut: float, max_iters: int
) -> tuple[np.ndarray, float]:
    """Best-improvement swap descent on a dense n x n weight matrix.

    Each step exchanges the pair whose swap lowers the cut weight the
    most; the gain of swapping a in A with b in B is
    D[a] + D[b] - 2 W[a, b], where D is external minus internal degree.
    Every gain is formed, so ties go to the first maximal pair with a,
    then b, ascending.
    """
    labels = labels.copy()
    degrees = weights.sum(axis=1)
    for _ in range(max_iters):
        to_a = weights @ labels
        diff = np.where(labels, degrees - 2.0 * to_a, 2.0 * to_a - degrees)
        idx_a = np.flatnonzero(labels)
        idx_b = np.flatnonzero(~labels)
        gains = diff[idx_a][:, None] + diff[idx_b][None, :] - 2.0 * weights[np.ix_(idx_a, idx_b)]
        flat = int(np.argmax(gains))
        best = gains.flat[flat]
        if best <= GAIN_TOL * max(cut, 1.0):
            break
        a = idx_a[flat // idx_b.size]
        b = idx_b[flat % idx_b.size]
        labels[a] = False
        labels[b] = True
        cut -= float(best)
    return labels, cut


def unit_box_nonlocal_tv(profile, eps: float, d: int) -> float:
    """Nonlocal TV of u(x) = x1 on the unit box [0, 1]^d, uniform density.

    Valid while the kernel vanishes past |z| = 1.  There the box overlaps
    its translate by z in volume prod_k (1 - |z_k|), so

        TV_eps = (1/eps) * integral of eta_eps(|z|) |z_1| prod_k (1 - |z_k|) dz
               = (1/eps) * sum over S of (-1)^|S| A_S M_(d+|S|),

    expanding the product over the subsets S of the axes.  In polar
    coordinates |z_1| prod_(k in S) |z_k| = r^(1+|S|) prod_j |omega_j|^(p_j)
    with p_j = [j = 1] + [j in S], and the sphere moment of that monomial
    is A_S = 2 prod_j Gamma((p_j + 1)/2) / Gamma((d + sum p)/2).  The
    radial moments M_k = integral of eta_eps(r) r^k dr over [0, 1] are
    taken by scipy's quad, split at the profile's jump radii.
    """
    cuts = sorted({0.0, 1.0, *(eps * b for b in profile.breakpoints if eps * b < 1.0)})

    def moment(k):
        return sum(integrate.quad(lambda r: eps ** -d * float(profile(r / eps)) * r ** k,
                                  lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(cuts[:-1], cuts[1:]))

    total = 0.0
    for size in range(d + 1):
        for subset in itertools.combinations(range(d), size):
            p = [(j == 0) + (j in subset) for j in range(d)]
            sphere = 2.0 * math.prod(math.gamma((pj + 1) / 2.0) for pj in p) \
                / math.gamma((d + sum(p)) / 2.0)
            total += (-1) ** size * sphere * moment(d + size)
    return total / eps


def weighted_tv_whole_grid(u, density, domain, resolution: int = 256) -> float:
    """TV(u; rho^2) by the midpoint rule on resolution cells per axis.

    The cells tile the domain's bounding box; those whose midpoint lies in
    the domain count.
    """
    lo, hi = domain.bounding_box()
    axes = [lo[ax] + (hi[ax] - lo[ax]) * (np.arange(resolution) + 0.5) / resolution
            for ax in range(domain.dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[domain.contains(pts)]
    slope = float(np.linalg.norm(u.coeffs))
    return slope * float(np.sum(density(pts) ** 2)) * float(np.prod((hi - lo) / resolution))

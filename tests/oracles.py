"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from first principles: plain
quadrature, Monte Carlo, full pairwise loops, and exhaustive
enumeration.  The one import from the package under test is the
sampler and the scaled kernel that the Monte Carlo nonlocal TV draws
its pairs with.  Slow is fine; these only run at test time on small
instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pctv.geometry import sample_iid
from pctv.kernels import scaled_from_distance


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


def exhaustive_bisection_energy(n: int, ii, jj, ww, eps: float) -> float:
    """Minimum balanced cut energy by enumerating all subsets with vertex 0."""
    half = n // 2
    best = math.inf
    for combo in itertools.combinations(range(1, n), half - 1):
        side = {0, *combo}
        cut = 0.0
        for i, j, w in zip(ii, jj, ww):
            if (i in side) != (j in side):
                cut += w
        best = min(best, 2.0 * cut / (n * n * eps))
    return best


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


def halfplane_tv_expansion(eps: float) -> float:
    """Nonlocal TV of u(x) = x1 on the unit square, indicator kernel.

    Closed-form first-order expansion: the bulk value 4/3 minus the
    boundary deficit.  Integrating the kernel moment over the strip of
    width eps along each vertical edge gives a (pi/4 + 1/2) eps
    correction; horizontal edges contribute at higher order only through
    the corner overlap, which is O(eps^2).
    """
    return 4.0 / 3.0 - (math.pi / 4.0 + 0.5) * eps


def weighted_tv_whole_grid(u, density, domain, resolution: int = 256) -> float:
    """TV(u; rho^2) by the midpoint rule, with the whole grid built at once.

    The same midpoints and the same 2^18-point blocks as
    ``weighted_tv_smooth``, so the two agree to the last bit.
    """
    lo, hi = domain.bounding_box()
    axes = [lo[ax] + (hi[ax] - lo[ax]) * (np.arange(resolution) + 0.5) / resolution
            for ax in range(domain.dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[domain.contains(pts)]
    total = 0.0
    chunk = 1 << 18
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        grad_norm = np.linalg.norm(u.grad(block), axis=1)
        total += float(np.sum(grad_norm * density(block) ** 2))
    return total * float(np.prod((hi - lo) / resolution))

"""Weighted total variation, perimeter and nonlocal total variation.

Continuum counterparts of the graph quantities: for a density rho on a
domain D the relevant functionals are

    TV(u; rho^2)   = integral over D of |grad u| * rho^2     (smooth u)
    Per(E; rho^2)  = integral over boundary of E inside D of rho^2
    TV_eps(u; rho) = (1/eps) * double integral of
                     eta_eps(x - y) |u(x) - u(y)| rho(x) rho(y)

The first two are sums over the domain's own quadrature nodes, and E
is a half-space {x_axis < t}, so its boundary in D is a cross-section
of D.  Configs allow only affine u and affine rho, so |grad u| rho^2
and rho^2 are quadratics on every box cell, triangle and section, and
both rules give them exactly.

For u = a.x + c the difference u(x + z) - u(x) is a.z, so

    TV_eps = (1/eps) * integral of eta_eps(z) |a.z| g(z) dz,

where g(z) sums, over pairs of convex pieces P, Q of D (box cells, or
triangles of a polygon), the integral G_PQ(z) of rho(x) rho(x + z) over
P and Q - z.  That overlap is a box or a convex polygon and the
integrand a quadratic, so the pieces' own rules give G_PQ exactly.  z
runs in polar (d = 2) or spherical (d = 3) coordinates.  Along a ray
G_PQ is a polynomial between the radii where a vertex of one piece
crosses a face of the other, so Gauss-Legendre between those radii and
the kernel's jump radii is exact for step profiles.  The angles are
cut wherever the order of those radii changes, so the integrand is
smooth on each angular piece.

As eps -> 0, TV_eps(u; rho) converges to sigma * TV(u; rho^2) with
sigma the surface tension of the kernel profile; points near the
boundary of D see less than a full kernel ball, so at finite eps the
value sits a little below the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import UnsupportedConfigurationError
from .geometry import MAX_GRID_POINTS, ConvexPolygon, Density, Domain, _gauss_cells

RADIAL_NODES = 5  # Gauss-Legendre nodes on each radial piece, exact to degree 9
ANGULAR_NODES = 24  # Gauss-Legendre nodes on a quarter turn
MIN_NODES = 10  # the fewest on any angular piece
SMOOTH_PIECES = 12  # equal radial pieces for a profile without a jump radius
CHUNK = 2048  # offsets whose overlaps are evaluated at once


@dataclass(frozen=True)
class AffineFunction:
    """u(x) = coeffs . x + offset, vectorized over the rows of points."""

    coeffs: np.ndarray
    offset: float = 0.0

    def __call__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(points @ self.coeffs + self.offset, dtype=float)


def affine_function(coeffs, offset: float = 0.0) -> AffineFunction:
    return AffineFunction(np.asarray(coeffs, dtype=float), offset)


def weighted_tv_smooth(u: AffineFunction, density: Density, domain: Domain) -> float:
    """TV(u; rho^2) by the domain's quadrature rule.

    The rule is exact for quadratics, so the value is exact for affine u
    and affine rho: |grad u| rho^2 is then a quadratic on every piece.
    """
    points, weights = domain.quadrature()
    # the row-wise norm, so the value keeps the bits of a per-point gradient
    slope = np.linalg.norm(u.coeffs[None, :], axis=1)
    return float(np.sum(weights * slope * density(points) ** 2))


def weighted_perimeter(density: Density, domain: Domain, axis: int,
                       threshold: float) -> float:
    """Per(E; rho^2) of the half-space E = {x_axis < threshold}.

    The boundary of E inside D is D's open cross-section at the
    threshold, integrated by the domain's section rule: exact for affine
    rho, and 0 where the plane misses D's interior.
    """
    points, weights = domain.section(axis, threshold)
    return float(np.sum(weights * density(points) ** 2))


def _gauss(n: int, lo, hi):
    """n Gauss-Legendre nodes and weights on each interval [lo_i, hi_i], row-wise."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    return lo + (hi - lo) * (x + 1.0) / 2.0, (hi - lo) * w / 2.0


def _share(lo, hi, graded=False):
    """Gauss nodes on the pieces [lo_i, hi_i] of a range of angles.

    A piece takes its share of ANGULAR_NODES a quarter turn, but at least
    MIN_NODES.  Returns the piece of each node, the nodes and their
    weights.  On a piece flagged in graded the rule maps u to 3u^2 - 2u^3,
    which makes a square root at either end smooth.
    """
    counts = np.maximum(MIN_NODES, np.ceil(ANGULAR_NODES * (hi - lo) * 2.0 / math.pi)).astype(int)
    graded = np.broadcast_to(graded, counts.shape)[:, None]
    owner, nodes, weights = [], [], []
    for m in np.unique(counts):
        which = np.nonzero(counts == m)[0]
        u, wu = _gauss(m, 0.0, 1.0)
        u, wu = (np.where(graded[which], u * u * (3.0 - 2.0 * u), u),
                 np.where(graded[which], wu * 6.0 * u * (1.0 - u), wu))
        owner.append(np.repeat(which, m))
        nodes.append((lo[which, None] + (hi - lo)[which, None] * u).ravel())
        weights.append(((hi - lo)[which, None] * wu).ravel())
    return np.concatenate(owner), np.concatenate(nodes), np.concatenate(weights)


def _pieces(domain: Domain):
    """The domain's convex pieces: the polygon's fan of triangles, or its
    box cells merged, axis after axis, where two meet face to face with
    equal extents on the other axes.  Planar boxes come as rectangles."""
    if isinstance(domain, ConvexPolygon):
        v = domain.vertices
        return [np.array([v[0], b, c]) for b, c in zip(v[1:-1], v[2:])]
    pieces = list(domain.cells)
    for axis in reversed(range(domain.dimension)):
        rest = [k for k in range(domain.dimension) if k != axis]
        pieces.sort(key=lambda box: (*box[0][rest], *box[1][rest], box[0][axis]))
        merged = pieces[:1]
        for lo, hi in pieces[1:]:
            last_lo, last_hi = merged[-1]
            if (last_hi[axis] == lo[axis] and np.array_equal(last_lo[rest], lo[rest])
                    and np.array_equal(last_hi[rest], hi[rest])):
                lo = merged.pop()[0]
            merged.append((lo, hi))
        pieces = merged
    if domain.dimension == 2:
        return [np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]]) for lo, hi in pieces]
    return pieces


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _planar_rule(p, q, radii, coeffs, top: float):
    """Directions on [0, top] with their weights, and the contact lines
    n.z = c, for the polygons p and q.

    A vertex v of p lies on an edge F of q - z when z is on the segment
    F - v, and a vertex w - z of q - z on an edge E of p when z is on
    w - E.  Between two cuts in angle a ray meets the same segments in
    the same order, on the same side of every kernel radius, and a.omega
    keeps its sign: the cuts are the directions of the segments' ends,
    of their crossings with each other and with the kernel circles, and
    of the normals to a.
    """
    p_next, q_next = np.roll(p, -1, axis=0), np.roll(q, -1, axis=0)
    a = np.concatenate([(q[None] - p[:, None]).reshape(-1, 2),
                        (q[:, None] - p[None]).reshape(-1, 2)])
    d = np.concatenate([(q_next[None] - p[:, None]).reshape(-1, 2),
                        (q[:, None] - p_next[None]).reshape(-1, 2)]) - a
    points = [a, a + d]
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel or empty segments
        den = _cross(d[:, None], d[None])
        s = _cross(a[None] - a[:, None], d[None]) / den
        t = _cross(a[None] - a[:, None], d[:, None]) / den
        row = np.nonzero((s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0))
        points.append(a[row[0]] + s[row][:, None] * d[row[0]])
        dd, ad, aa = np.sum(d * d, axis=1), np.sum(a * d, axis=1), np.sum(a * a, axis=1)
        for rho in radii:  # |a + s d| = rho
            root = np.sqrt(ad ** 2 - dd * (aa - rho ** 2))[:, None] * np.array([-1.0, 1.0])
            s = (root - ad[:, None]) / dd[:, None]
            row = np.nonzero((s >= 0.0) & (s <= 1.0))
            points.append(a[row[0]] + s[row][:, None] * d[row[0]])
    points = np.concatenate(points)
    norms = np.hypot(points[:, 0], points[:, 1])
    points = points[(norms > 0.0) & (norms <= radii[-1] * (1.0 + 1e-9))]  # circle points round
    angles = np.concatenate([np.arctan2(points[:, 1], points[:, 0]),
                             math.atan2(coeffs[0], -coeffs[1]) + np.array([0.0, math.pi])])
    cuts = np.unique(np.mod(angles, 2.0 * math.pi))
    cuts = np.concatenate([[0.0], cuts[(cuts > 0.0) & (cuts < top)], [top]])
    _, theta, weights = _share(cuts[:-1], cuts[1:])
    normals = np.stack([-d[:, 1], d[:, 0]], axis=1)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1), weights, normals, _cross(d, a)


def _spatial_rule(events, window, radii, coeffs, top: float, grow):
    """Directions with theta in [0, top] with their weights, for boxes
    whose contact planes are z_k = events[k].

    The integrand has a kink wherever the order of the radii along a ray
    changes, and each such set is a circle n.omega = c on the sphere:
    the axis planes and a.omega = 0; beta omega_j = alpha omega_k, where
    the contact planes z_j = alpha and z_k = beta meet a ray at one
    radius; and omega_k = alpha / rho, where z_k = alpha meets a kernel
    sphere.  Only those meeting the window, the bounding box of Q - P,
    inside the kernel radius count.  At each theta the azimuth is cut
    at every circle; theta is cut where a circle touches a circle of
    latitude, and the rule graded toward that square root, and where two
    circles cross.  grow(m) is told of each table of m numbers before it
    is built.
    """
    near = np.maximum(0.0, np.maximum(window[0], -window[1]))  # distance of 0 from the window
    far = np.maximum(np.abs(window[0]), np.abs(window[1]))
    # rows n, c, and the plane z_k = alpha whose kink it is (k = -1: always one)
    circles = [(*axis, 0.0, -1, 0.0) for axis in np.eye(3)]
    circles += [(*coeffs, 0.0, -1, 0.0)] * bool(np.any(coeffs))
    for k in range(3):
        j, l = (k + 1) % 3, (k + 2) % 3
        for alpha in events[k][events[k] != 0.0]:
            for beta in events[j][events[j] != 0.0]:
                if alpha ** 2 + beta ** 2 + near[l] ** 2 <= radii[-1] ** 2:
                    circles.append((*np.eye(3)[j] * alpha - np.eye(3)[k] * beta, 0.0, k, alpha))
            for rho in radii[np.abs(alpha) < radii]:
                if math.hypot(near[j], near[l]) <= math.sqrt(rho ** 2 - alpha ** 2) \
                        <= math.hypot(far[j], far[l]):
                    circles.append((*np.eye(3)[k], alpha / rho, k, alpha))
    circles = np.array(circles)
    norm = np.linalg.norm(circles[:, :3], axis=1)
    circles, norm = circles[norm > 0.0], norm[norm > 0.0]  # a tiny a's norm underflows to 0
    n, c = circles[:, :3] / norm[:, None], circles[:, 3] / norm
    k, alpha = circles[:, 4].astype(int), circles[:, 5]

    def kink(omega, which):  # is circle `which` a kink at omega: its plane met in the window?
        # a tiny omega_k gives r = +-inf, outside the kernel radius as a zero one does
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = alpha[which] / omega[np.arange(len(omega)), k[which]]
            point = r[:, None] * omega
        slack = 1e-9 * radii[-1]
        return (k[which] < 0) | ((r > 0.0) & (r <= radii[-1] + slack) & np.all(
            (point >= window[0] - slack) & (point <= window[1] + slack), axis=1))

    polar, spread = np.arccos(np.clip(n[:, 2], -1.0, 1.0)), np.arccos(np.clip(c, -1.0, 1.0))
    touch = np.concatenate([np.abs(polar - spread), math.pi - np.abs(math.pi - polar - spread)])
    cuts = [touch]
    touch = touch[np.tile(np.abs(n[:, 2]) < 1.0, 2)]  # a latitude is a cut with no square root
    grow(len(c) ** 2)
    i, j = np.triu_indices(len(c), 1)  # where circles i and j cross, both as kinks
    line, cos = np.cross(n[i], n[j]), np.sum(n[i] * n[j], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel circles never cross
        foot = (((c[i] - c[j] * cos) / (1.0 - cos ** 2))[:, None] * n[i]
                + ((c[j] - c[i] * cos) / (1.0 - cos ** 2))[:, None] * n[j])
        reach = np.sqrt((1.0 - np.sum(foot * foot, axis=1)) / (1.0 - cos ** 2))
        for sign in (1.0, -1.0):
            point = foot + sign * reach[:, None] * line
            cross = kink(point, i) & kink(point, j)
            cuts.append(np.arccos(np.clip(point[cross, 2], -1.0, 1.0)))
    cuts = np.concatenate(cuts)
    cuts = np.unique(np.concatenate([[0.0, top], cuts[(cuts > 0.0) & (cuts < top)]]))
    graded = np.isin(cuts[:-1], touch) | np.isin(cuts[1:], touch)
    _, theta, w_theta = _share(cuts[:-1], cuts[1:], graded)
    grow(6 * len(theta) * len(c))
    sin, cos = np.sin(theta)[:, None], np.cos(theta)[:, None]
    # n1 sin cos(phi) + n2 sin sin(phi) = c - n3 cos at each theta; a latitude
    # that misses a circle, by a zero or a tiny denominator, gives nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        width = np.arccos((c - n[:, 2] * cos) / (sin * np.hypot(n[:, 0], n[:, 1])))
    base = np.arctan2(n[:, 1], n[:, 0])
    phis = np.nan_to_num(np.mod(np.concatenate([base - width, base + width], axis=1),
                                2.0 * math.pi))
    at = np.stack([sin * np.cos(phis), sin * np.sin(phis), np.broadcast_to(cos, phis.shape)],
                  axis=2).reshape(-1, 3)
    phis[~kink(at, np.tile(np.arange(len(c)), 2 * len(theta))).reshape(phis.shape)] = 0.0
    ends = np.sort(np.concatenate([np.zeros((len(theta), 1)), phis,
                                   np.full((len(theta), 1), 2.0 * math.pi)], axis=1), axis=1)
    row, piece = np.nonzero(np.diff(ends, axis=1) > 0.0)
    owner, phi, w_phi = _share(ends[row, piece], ends[row, piece + 1])
    row = row[owner]
    omega = np.stack([sin[row, 0] * np.cos(phi), sin[row, 0] * np.sin(phi), cos[row, 0]], axis=1)
    return omega, w_theta[row] * sin[row, 0] * w_phi


def _radial(omega, normals, offsets, window, radius, steps):
    """Radial nodes and weights on every ray, cut at the contact planes.

    A contact plane n.z = c meets the ray r omega at r = c / (n.omega).
    The cuts are clipped to the window [r_in, r_out] where the ray is in
    the bounding box of Q - P and inside the kernel radius; pieces of no
    length carry no nodes.
    """
    lo, hi = window
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # slab entry and exit per axis; a ray along a slab's face (0 / 0) never
        # enters it, and a tiny omega_k puts the slab at +-inf as 0 would
        r_in = np.max(np.fmin(lo / omega, hi / omega), axis=1, initial=0.0)
        r_out = np.min(np.fmax(lo / omega, hi / omega), axis=1, initial=radius)
        lines = offsets / (omega @ normals.T)
    lines[np.isnan(lines)] = 0.0  # a plane through the ray cuts nothing
    r_out = np.maximum(r_in, r_out)[:, None]
    cuts = np.concatenate([lines, np.broadcast_to(steps, (len(omega), len(steps)))], axis=1)
    cuts = np.sort(np.clip(cuts, r_in[:, None], r_out), axis=1)
    cuts = np.concatenate([r_in[:, None], cuts, r_out], axis=1)
    with np.errstate(invalid="ignore"):  # a ray that misses the window has cuts at inf
        piece = np.nonzero(np.diff(cuts, axis=1) > 0.0)
    r, w = _gauss(RADIAL_NODES, cuts[:, :-1][piece], cuts[:, 1:][piece])
    return np.repeat(piece[0], RADIAL_NODES), r.ravel(), w.ravel()


def _overlap_boxes(p, q, z, density):
    """G_pq(z) for two boxes: the Gauss rule on the box p & (q - z)."""
    lo = np.maximum(p[0], q[0] - z)
    points, weights = _gauss_cells(lo, np.maximum(lo, np.minimum(p[1], q[1] - z)))
    f = weights * density(points) * density(points + np.repeat(z, 8, axis=0))
    return f.reshape(len(z), 8).sum(axis=1)


def _overlap_polygons(p, q, z, density, tol=1e-12):
    """G_pq(z) for two convex polygons: the edge-midpoint fan on p & (q - z).

    The overlap's vertices are the vertices of p inside q - z, those of
    q - z inside p, and the crossings of their edges.  They are ordered
    by angle about their mean; a vertex found twice adds a triangle of
    no area.
    """
    m, moved = len(z), q[None] - z[:, None]
    edge_p, edge_q = np.roll(p, -1, axis=0) - p, np.roll(q, -1, axis=0) - q
    start = p[None, :, None] - moved[:, None]  # vertex i of p less vertex j of q - z
    den = _cross(edge_p[:, None], edge_q[None])
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel edges
        s = _cross(-start, edge_q) / den
        t = _cross(-start, edge_p[:, None]) / den
        crossing = (p[:, None] + s[..., None] * edge_p[:, None]).reshape(m, -1, 2)
    cand = np.concatenate([np.broadcast_to(p, (m, len(p), 2)), moved, crossing], axis=1)
    valid = np.concatenate([
        np.all(_cross(edge_q, start) >= -tol, axis=2),  # p's vertices in q - z
        np.all(_cross(edge_p, moved[:, :, None] - p) >= -tol, axis=2),
        ((s >= -tol) & (s <= 1.0 + tol) & (t >= -tol) & (t <= 1.0 + tol)).reshape(m, -1)],
        axis=1)
    count = valid.sum(axis=1)
    center = np.sum(np.where(valid[..., None], cand, 0.0), axis=1) / np.maximum(count, 1)[:, None]
    cand = np.where(valid[..., None], cand, center[:, None])
    angle = np.where(valid, np.arctan2(cand[..., 1] - center[:, None, 1],
                                       cand[..., 0] - center[:, None, 0]), np.inf)
    order = np.argsort(angle, axis=1)[:, :count.max()]  # the overlap's vertices come first
    ring = np.take_along_axis(cand, order[..., None], axis=1)
    a, b, c = ring[:, :1], ring[:, 1:-1], ring[:, 2:]
    area = 0.5 * _cross(b - a, c - a) * (np.arange(2, ring.shape[1]) < count[:, None])
    mids = np.stack([(a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0], axis=2)
    f = density(mids.reshape(-1, 2)) * density((mids + z[:, None, None]).reshape(-1, 2))
    return np.sum(area * f.reshape(mids.shape[:3]).sum(axis=2), axis=1) / 3.0


def nonlocal_rule(domain: Domain, profile: kernels.KernelProfile, eps: float, coeffs):
    """(p, q, z, weights) for each pair of pieces within the kernel radius.

    The weight of a node z = r omega is eta_eps(r) r^d |a.omega| / eps
    times its angular and radial weights: the r^(d-1) of the polar
    volume and the r of |a.z| make r^d.  A pair and its swap give equal
    integrals, so each unordered pair is taken once with weight 2, and a
    piece with itself, where G(-z) = G(z), on half the directions.  The
    rule is sized as it is built, and refused past MAX_GRID_POINTS
    numbers before any of it is evaluated.
    """
    d = domain.dimension
    if d not in (2, 3):
        raise UnsupportedConfigurationError(
            f"nonlocal TV integrates over circles and spheres; a {d}-d domain has neither")
    coeffs = np.asarray(coeffs, dtype=float)
    support = kernels.effective_support(profile, d)
    radius = eps * support
    steps = np.array([eps * b for b in profile.breakpoints if b < support])
    radii = np.append(steps, radius)  # where the kernel jumps or ends
    if not math.isfinite(profile.support_radius):  # a smooth profile: equal radial pieces
        steps = np.linspace(0.0, radius, SMOOTH_PIECES + 1)[1:-1]
    size = 0

    def grow(count):
        nonlocal size
        size += count
        if not size <= MAX_GRID_POINTS:
            raise UnsupportedConfigurationError(
                f"the nonlocal rule would build more than the {MAX_GRID_POINTS} "
                "numbers a quadrature may hold")

    pieces, rule = _pieces(domain), []
    for i, p in enumerate(pieces):
        for q in pieces[i:]:
            (plo, phi), (qlo, qhi) = [(v.min(axis=0), v.max(axis=0)) if d == 2 else v
                                      for v in (p, q)]
            window = (qlo - phi, qhi - plo)  # the bounding box of Q - P
            if not np.linalg.norm(np.maximum(0.0, np.maximum(window[0], -window[1]))) < radius:
                continue
            top = math.pi if p is q else 2.0 * math.pi
            if d == 2:
                grow(4 * (2 * len(p) * len(q)) ** 2)  # the table of contact crossings
                omega, w_dir, normals, offsets = _planar_rule(p, q, radii, coeffs, top)
                per_node = len(p) * len(q) + len(p) + len(q)  # candidate overlap vertices
            else:
                events = np.stack([qlo - plo, qlo - phi, qhi - plo, qhi - phi], axis=1)
                omega, w_dir = _spatial_rule(events, window, radii, coeffs, top / 2.0, grow)
                normals, offsets, per_node = np.repeat(np.eye(3), 4, axis=0), events.ravel(), 8
            grow(len(omega) * (len(offsets) + len(steps) + 2))  # the table of radial cuts
            ray, r, w = _radial(omega, normals, offsets, window, radius, steps)
            grow(len(r) * per_node)
            w = 2.0 * w * w_dir[ray] * r ** d * np.abs(omega[ray] @ coeffs)
            rule.append((p, q, r[:, None] * omega[ray],
                         w * kernels.scaled_from_distance(profile, eps, r, d) / eps))
    return rule


def nonlocal_tv(rule, density: Density) -> float:
    """TV_eps(u; rho) by the covariogram rule that nonlocal_rule built for u."""
    total = 0.0
    for p, q, z, w in rule:
        overlap = _overlap_polygons if z.shape[1] == 2 else _overlap_boxes
        for start in range(0, len(z), CHUNK):
            part = slice(start, start + CHUNK)
            total += float(np.sum(w[part] * overlap(p, q, z[part], density)))
    return total

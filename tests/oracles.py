"""Independent reference implementations used as test oracles.

Every function here is a direct transcription of a textbook formula or
a deliberate brute-force computation, sharing no code path with the
package: factorizations go through numpy.linalg.cholesky, GP equations
through explicit matrix inverses, log-likelihoods through slogdet,
point-in-polygon through winding angles, and ray crossings through
exact per-edge parameter solves. The one exception is transit_all_targets,
the planner's exhaustive transit search kept as the reference for its
pruned one: it runs the package's own grid and A* on purpose.
"""

import heapq
import math

import numpy as np


# ---------------------------------------------------------------- GP algebra


def se_matrix(a, b, sf2, ell):
    """Squared-exponential kernel matrix, no noise term."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return sf2 * np.exp(-d2 / (2.0 * ell * ell))


def noisy_kernel(x, sf2, sn2, ell):
    return se_matrix(x, x, sf2, ell) + sn2 * np.eye(len(x))


def upper_cholesky(k):
    """Upper-triangular factor with L^T L = k via numpy's lower factor."""
    return np.linalg.cholesky(k).T


def gp_predict(x, y, q, sf2, sn2, ell, y_mean=0.0):
    """GP posterior through the explicit inverse of the noisy kernel.

    Returns (mean, variance); the variance includes the noise floor, so
    far from data it tends to sf2 + sn2.
    """
    x = np.atleast_2d(x)
    q = np.atleast_2d(q)
    k_inv = np.linalg.inv(noisy_kernel(x, sf2, sn2, ell))
    ks = se_matrix(x, q, sf2, ell)
    mean = ks.T @ k_inv @ (np.asarray(y, dtype=float) - y_mean) + y_mean
    var = (sf2 + sn2) - np.einsum("ij,ik,kj->j", ks, k_inv, ks)
    return mean, var


def log_marginal(x, yc, sf2, sn2, ell):
    """LML via slogdet, independent of any triangular factorization."""
    k = noisy_kernel(x, sf2, sn2, ell)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    n = len(yc)
    return float(-0.5 * yc @ np.linalg.inv(k) @ yc - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi))


def fd_gradient(x, yc, theta, rel_step=1e-6):
    """Central finite differences of the LML in (sf2, sn2, ell)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(3)
    for i in range(3):
        h = rel_step * max(abs(theta[i]), 1e-8)
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (log_marginal(x, yc, *hi) - log_marginal(x, yc, *lo)) / (2.0 * h)
    return grad


def sample_gp(rng, x, sf2, sn2, ell, jitter=1e-10):
    """Draw one noisy sample path from the SE-kernel prior."""
    k = se_matrix(x, x, sf2, ell) + jitter * np.eye(len(x))
    f = np.linalg.cholesky(k) @ rng.standard_normal(len(x))
    return f + np.sqrt(sn2) * rng.standard_normal(len(x))


# ----------------------------------------------------------- plane geometry


def winding_inside(p, verts, tol=1e-9):
    """Point-in-polygon by summed winding angle; boundary counts inside."""
    v = np.asarray(verts, dtype=float) - np.asarray(p, dtype=float)
    r = np.hypot(v[:, 0], v[:, 1])
    if (r < tol).any():
        return True
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
    dot = (v * w).sum(axis=1)
    # collinear and bracketing the origin: on an edge
    if np.any((np.abs(cross) < tol * r * np.roll(r, -1)) & (dot < tol)):
        return True
    total = np.arctan2(cross, dot).sum()
    return bool(abs(total) > np.pi)


def ray_hits(origin, bearing, verts):
    """Exact forward crossings of a compass-bearing ray with polygon edges.

    Solves origin + t*d = a + s*(b-a) per edge and keeps t>0, 0<=s<1.
    Returns hit points sorted by distance.
    """
    o = np.asarray(origin, dtype=float)
    d = np.array([np.sin(bearing), np.cos(bearing)])
    pts = []
    v = np.asarray(verts, dtype=float)
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        e = b - a
        denom = d[0] * e[1] - d[1] * e[0]
        if abs(denom) < 1e-14:
            continue
        w = a - o
        # from t*d - s*e = w: cross with e gives t, cross with d gives s
        t = (w[0] * e[1] - w[1] * e[0]) / denom
        s = (w[0] * d[1] - w[1] * d[0]) / denom
        if t > 1e-12 and -1e-12 <= s < 1.0 - 1e-12:
            pts.append((t, o + t * d))
    pts.sort(key=lambda h: h[0])
    return [p for _, p in pts]


def grid_dijkstra(nodes, start, goal, spacing, clear):
    """Length of the shortest 8-connected path between grid nodes, or None.

    Plain Dijkstra without a heuristic: a move to any of the eight
    neighbouring index pairs costs `spacing` times its euclidean length
    in index units, and is allowed when the neighbour is in `nodes` and
    `clear(a, b)` says the edge between them is free.
    """
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == goal:
            return d
        done.add(node)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = (node[0] + di, node[1] + dj)
                if nb == node or nb not in nodes or nb in done or not clear(node, nb):
                    continue
                nd = d + spacing * math.hypot(di, dj)
                if nd < dist.get(nb, math.inf):
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, nb))
    return None


def transit_all_targets(position, targets, poly, delta, grid=None):
    """plan_transit as it was before its target pruning: A* to every target.

    Same contract as coverage.plan_transit, on the same transit grid: the
    straight leg to the nearest target when it stays inside, otherwise
    an A* route to every target, the shortest realized route winning
    and ties within 1e-12 m going to the lower target index.
    """
    from bathysurvey.coverage import _TransitGrid, _densify, _densify_path, _path_length
    from bathysurvey.errors import ConfigError, GeometryError
    from bathysurvey.geometry import points_in_polygon, segment_in_polygon

    pos = np.asarray(position, dtype=float)
    targets = [np.asarray(t, dtype=float) for t in targets]
    if not targets:
        raise ConfigError("plan_transit needs at least one target")
    dists = [float(np.hypot(*(t - pos))) for t in targets]
    nearest = min(range(len(targets)), key=lambda i: (dists[i], i))
    direct = _densify(pos, targets[nearest], delta)
    if segment_in_polygon(pos, targets[nearest], poly, step=delta / 4.0) and bool(
        points_in_polygon(direct, poly).all()
    ):
        return direct, nearest

    if grid is None:
        grid = _TransitGrid(poly, delta, 0.0)
    start = grid.reachable_node(pos)
    if start is None:
        raise GeometryError("transit start has no straight line to any grid node inside the polygon")
    best = None
    for i in range(len(targets)):
        goal = grid.reachable_node(targets[i])
        if goal is None:
            continue
        node_path = grid.astar(start, goal)
        if node_path is None:
            continue
        way = _densify_path(pos, [*(grid.to_world(n) for n in node_path), targets[i]], delta)
        if not bool(points_in_polygon(way, poly).all()):
            continue  # a grazing leg slipped outside between samples
        length = _path_length(way)
        if best is None or length < best[0] - 1e-12:
            best = (length, way, i)
    if best is None:
        raise GeometryError("no transit route reaches any target inside the polygon")
    return best[1], best[2]


def shoelace_area(verts):
    v = np.asarray(verts, dtype=float)
    w = np.roll(v, -1, axis=0)
    return 0.5 * abs(float((v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]).sum()))


def star_polygon(rng, n_verts, center=(0.0, 0.0), r_lo=20.0, r_hi=60.0):
    """Random star-shaped polygon: simple by construction, CCW order.

    Vertex angles are a jittered uniform grid, keeping every angular gap
    well inside (0, pi) so each edge stays in its own wedge around the
    center and no two edges can cross.
    """
    ang = 2.0 * np.pi * (np.arange(n_verts) + rng.uniform(0.15, 0.85, n_verts)) / n_verts
    rad = rng.uniform(r_lo, r_hi, n_verts)
    c = np.asarray(center, dtype=float)
    return c + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def circle_trace(n_points, radius, center=(0.0, 0.0)):
    """Closed-form discrete circle, first point at bearing east, CCW."""
    th = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    c = np.asarray(center, dtype=float)
    return c + radius * np.column_stack([np.cos(th), np.sin(th)])


def min_distance_to_polylines(points, polylines):
    """Per-point minimum distance to any segment of any polyline."""
    points = np.atleast_2d(points)
    best = np.full(len(points), np.inf)
    for line in polylines:
        line = np.asarray(line, dtype=float)
        for a, b in zip(line[:-1], line[1:]):
            e = b - a
            ee = float(e @ e)
            if ee == 0.0:
                d = np.hypot(*(points - a).T)
            else:
                t = np.clip((points - a) @ e / ee, 0.0, 1.0)
                proj = a + t[:, None] * e
                d = np.hypot(*(points - proj).T)
            best = np.minimum(best, d)
    return best


def hausdorff(a, b):
    """Symmetric Hausdorff distance between two point sets."""
    from scipy.spatial import cKDTree

    return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())


def densify_ring(verts, step=0.5):
    """Resample a closed polygon boundary at roughly `step` spacing."""
    v = np.asarray(verts, dtype=float)
    w = np.vstack([v, v[:1]])
    out = []
    for p, q in zip(w[:-1], w[1:]):
        k = max(int(np.hypot(*(q - p)) / step), 1)
        out.append(p + (q - p) * np.linspace(0.0, 1.0, k, endpoint=False)[:, None])
    return np.vstack(out)

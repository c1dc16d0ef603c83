"""Independent reference implementations used as test oracles.

Every function here is a direct transcription of a textbook formula or
a deliberate brute-force computation, sharing no code path with the
package: factorizations go through numpy.linalg.cholesky, GP equations
through explicit matrix inverses, log-likelihoods through slogdet,
point-in-polygon through winding angles, and polygon simplicity through a
scalar segment-pair test over every pair of edges. Shortest transits
come from Dijkstra over the visibility graph of every vertex, its
segments tested by sampled_segments_in_polygon. The
exceptions are earlier searches, kept as the references for what
replaced them, and they run the package's own helpers on purpose: the
planner's loops mow_per_leg (one densify per leg, one span read per hop
station) and flatten_plan (a plan's points kept one at a time),
sampled_segments_in_polygon (segments tested at evenly spaced samples,
which the exact contact test replaced), trace_boundary (a chain's
vertices found by locating each end on its nearest edge, which the
partition's own monotone chains replaced), and fit_three_hypers, the hyper fit over all three
parameters that the profile-likelihood fit replaced.
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


def variational_bound(x, z, yc, sf2, sn2, ell, jitter):
    """Titsias's (2009) collapsed bound with inducing inputs z, through
    the dense Nystrom matrix Q = K_xz (K_zz + sf2 jitter I)^-1 K_zx and
    slogdet: log N(yc | 0, Q + sn2 I) - tr(K_xx - Q) / (2 sn2)."""
    k_zz = se_matrix(z, z, sf2, ell) + sf2 * jitter * np.eye(len(z))
    k_zx = se_matrix(z, x, sf2, ell)
    q = k_zx.T @ np.linalg.solve(k_zz, k_zx)
    n = len(yc)
    k = q + sn2 * np.eye(n)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    fit = -0.5 * yc @ np.linalg.inv(k) @ yc - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
    return float(fit - (n * sf2 - np.trace(q)) / (2.0 * sn2))


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


def fit_three_hypers(model, max_iter=60):
    """gp.optimize_hypers as it searched (sigma_f2, sigma_n2, ell) by
    L-BFGS-B in raw log space, with the full likelihood as its objective,
    from the same warm start, with the same fallback triggers and bounds.
    Returns (theta, lml) of the best point it evaluated."""
    from scipy.optimize import minimize
    from scipy.spatial.distance import cdist

    from bathysurvey import gp

    st = model.snapshot()
    lo, hi = np.array(gp.DEFAULT_BOUNDS, dtype=float).T
    x, yc = st.X.copy(), st.y_centered.copy()
    d2 = cdist(x, x, "sqeuclidean")
    best = {"lml": -np.inf, "theta": None}

    def objective(log_theta):
        theta = np.exp(log_theta)
        try:
            value, grad = gp._lml_and_grad(gp.HyperParams.from_array(theta), yc, d2)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(3)
        if value > best["lml"]:
            best["lml"], best["theta"] = value, theta.copy()
        return -value, -(grad * theta)

    def run(theta0):
        x0 = np.log(np.clip(theta0, lo, hi))
        bounds = list(zip(np.log(lo), np.log(hi)))
        return minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds, options={"maxiter": max_iter})

    first = run(st.hypers.as_array())
    theta = best["theta"]
    if (
        theta is None
        or theta[0] < 1e-3 * max(float(np.var(yc)), 1e-12)
        or theta[2] > gp._data_extent(x)
        or not first.success
    ):
        run(gp._moment_start(x, yc, lo, hi))
    return best["theta"], best["lml"]


def fd_gradient_log(fun, log_x, step=1e-6):
    """Central finite differences of a scalar function of log parameters."""
    log_x = np.asarray(log_x, dtype=float)
    grad = np.empty(len(log_x))
    for i in range(len(log_x)):
        hi, lo = log_x.copy(), log_x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fun(hi) - fun(lo)) / (2.0 * step)
    return grad


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


def polygon_by_walk(verts):
    """Polygon construction with its duplicate removal as a walk over the
    vertices and its signed area through rolled copies. Returns the ccw
    vertices, the edge ends and the area, or raises GeometryError with a
    Polygon's text."""
    from bathysurvey.errors import GeometryError

    v = np.array(verts, dtype=float)
    if np.hypot(*(v[-1] - v[0])) <= 1e-9:
        v = v[:-1]
    keep = [0]
    for i in range(1, len(v)):
        if np.hypot(*(v[i] - v[keep[-1]])) > 1e-9:
            keep.append(i)
    v = v[keep]
    if len(v) < 3:
        raise GeometryError("polygon needs at least 3 distinct vertices")

    def area2(w):
        return float(np.dot(w[:, 0], np.roll(w[:, 1], -1)) - np.dot(np.roll(w[:, 0], -1), w[:, 1]))

    scale = max(1.0, float(np.abs(v).max()))
    if abs(area2(v)) <= 1e-12 * scale * scale:
        raise GeometryError("polygon has zero area")
    if area2(v) < 0.0:
        v = v[::-1].copy()
    crossing = first_crossing(v)
    if crossing is not None:
        raise GeometryError("polygon self-intersects: edge %d crosses edge %d" % crossing)
    return v, np.roll(v, -1, axis=0), 0.5 * area2(v)


def _locate_on_boundary(points, poly, snap):
    """(edge index, param in [0,1)) of each boundary point of an (m, 2) array, vertex -> (edge, 0)."""
    from bathysurvey.errors import GeometryError
    from bathysurvey.geometry import _closest_on_edges

    pts = np.asarray(points, dtype=float)
    closest, t = _closest_on_edges(pts, poly)
    diff = pts[:, None, :] - closest
    dist = np.hypot(diff[..., 0], diff[..., 1])
    lens = np.hypot(*(poly._edge_ends - poly.vertices).T)
    n = len(poly)
    out = []
    for p, d, tp in zip(pts, dist, t):
        cands = np.where(d <= snap)[0]
        if len(cands) == 0:
            raise GeometryError(f"point {tuple(p)} is not on the polygon boundary (snap {snap})")
        best = None
        for i in cands:
            ti = tp[i]
            ei = int(i)
            if ti * lens[i] >= lens[i] - snap:  # at the far vertex: belongs to the next edge
                ei, ti = (ei + 1) % n, 0.0
            elif ti * lens[i] <= snap:
                ti = 0.0
            key = (d[i], ti)
            if best is None or key < best[0]:
                best = (key, ei, ti)
        out.append(best[1:])
    return out


def trace_boundary(p_from, p_to, poly, snap=1e-6):
    """Polygon vertices strictly between two boundary points, walking ccw,
    each point located on the boundary by a search over every edge.

    Endpoints are excluded. Both points must lie on the boundary within
    `snap`. Same-edge points with p_to ahead of p_from give [].
    """
    (e_from, s_from), (e_to, s_to) = _locate_on_boundary([p_from, p_to], poly, snap)
    n = len(poly)
    v = poly.vertices
    if e_from == e_to and s_to >= s_from - 1e-12:
        return []
    count = (e_to - e_from) % n if e_from != e_to else n
    out = []
    pf = np.asarray(p_from, dtype=float)
    pt = np.asarray(p_to, dtype=float)
    for k in range(count):
        vi = v[(e_from + 1 + k) % n]
        if np.hypot(*(vi - pf)) <= snap or np.hypot(*(vi - pt)) <= snap:
            continue
        out.append(vi.copy())
    return out


def first_crossing(verts):
    """First pair (i, j), i < j, of non-adjacent edges of a vertex ring
    that share a point as closed segments, or None: the scalar pair test
    over every pair, in the loop order whose first hit a Polygon names."""
    v = np.asarray(verts, dtype=float)
    n = len(v)
    for i in range(n):
        a1, a2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex by construction
            b1, b2 = v[j], v[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                return i, j
    return None


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_intersect(p1, p2, q1, q2, eps: float = 1e-12) -> bool:
    """True if closed segments p1p2 and q1q2 share any point."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True
    for d, a, b, c in ((d1, q1, q2, p1), (d2, q1, q2, p2), (d3, p1, p2, q1), (d4, p1, p2, q2)):
        if abs(d) <= eps and _on_segment_bbox(a, b, c, eps):
            return True
    return False


def _on_segment_bbox(a, b, c, eps: float) -> bool:
    return (
        min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
    )


def sampled_segments_in_polygon(p, q, poly, step):
    """geometry.segments_in_polygon as it was before its exact test: per
    row of the (m, 2) arrays p and q, True if the segment p->q stays
    inside poly at max(2, ceil(length / step) + 1) evenly spaced samples,
    ends included, each through the package's points_in_polygon."""
    from bathysurvey.geometry import points_in_polygon

    p = np.atleast_2d(np.asarray(p, dtype=float))
    d = np.atleast_2d(np.asarray(q, dtype=float)) - p
    k = np.maximum(2, np.ceil(np.hypot(d[:, 0], d[:, 1]) / max(step, 1e-9)).astype(int) + 1)
    clear = np.empty(len(p), dtype=bool)
    for kk in sorted(set(k.tolist())):
        group = np.nonzero(k == kk)[0]
        pts = p[group, None, :] + np.linspace(0.0, 1.0, kk)[None, :, None] * d[group, None, :]
        clear[group] = points_in_polygon(pts.reshape(-1, 2), poly).reshape(len(group), -1).all(axis=1)
    return clear


def shortest_transit(position, targets, poly, step):
    """coverage.plan_transit's choice by brute force: (route length, target
    index), or None when no target is reachable.

    The straight segment to the euclidean-nearest target wins when it
    stays inside. Otherwise plain Dijkstra runs over the visibility graph
    of every polygon vertex, the start and the targets, each segment
    decided by sampled_segments_in_polygon at `step`, and the least
    route length wins, the lowest index among those within 1e-12 m of it.
    """
    pos = np.asarray(position, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    dists = np.hypot(*(targets - pos).T)
    nearest = int(np.argmin(dists))
    if sampled_segments_in_polygon(pos, targets[nearest], poly, step)[0]:
        return float(dists[nearest]), nearest
    n = len(poly.vertices)
    pts = np.vstack([poly.vertices, pos, targets])  # the start is node n, target i node n + 1 + i
    a, b = np.asarray([(a, b) for a in range(n + 1) for b in range(a + 1, len(pts))]).T
    clear = sampled_segments_in_polygon(pts[a], pts[b], poly, step)
    edges = {k: [] for k in range(len(pts))}
    for i, j in zip(a[clear].tolist(), b[clear].tolist()):
        length = math.dist(pts[i], pts[j])
        edges[i].append((j, length))
        if j <= n:  # a route only ever ends at a target
            edges[j].append((i, length))
    dist = {n: 0.0}
    heap = [(0.0, n)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nb, length in edges[node]:
            if d + length < dist.get(nb, math.inf):
                dist[nb] = d + length
                heapq.heappush(heap, (d + length, nb))
    lengths = [dist.get(n + 1 + i, math.inf) for i in range(len(targets))]
    least = min(lengths)
    if least == math.inf:
        return None
    return least, next(i for i, length in enumerate(lengths) if length <= least + 1e-12)


def _densify(a, b, delta):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(1, math.ceil(float(np.hypot(*(b - a))) / delta - 1e-12))
    return a + np.linspace(0.0, 1.0, n + 1)[:, None] * (b - a)


def mow_per_leg(cell, entry_corner, delta, sweep_dir):
    """coverage.lawnmower_cell as a loop over its tracks: each track and
    each hop leg densified on its own, each hop station's span read on
    its own."""
    from bathysurvey.coverage import _chain_coords, _span_at, _track_positions, sweep_frame
    from bathysurvey.errors import ConfigError

    if entry_corner not in (0, 1, 2, 3):
        raise ConfigError(f"entry corner must be 0..3, got {entry_corner}")
    u, v = sweep_frame(sweep_dir)
    chains = _chain_coords(cell, sweep_dir)
    top_t, _, bot_t, _ = chains
    ts = _track_positions(cell, delta)
    spans = [_span_at(float(t), chains, delta) for t in ts]
    if entry_corner in (2, 3):
        ts, spans = ts[::-1], spans[::-1]
    low_first = entry_corner in (0, 3)
    pts = []
    for i, (t, (a, b)) in enumerate(zip(ts, spans)):
        s_from, s_to = (a, b) if (i % 2 == 0) == low_first else (b, a)
        track = _densify(t * u + s_from * v, t * u + s_to * v, delta)
        if not pts:
            pts.extend(track)
            continue
        high_side = ((i - 1) % 2 == 0) == low_first
        t_from, t_to = float(ts[i - 1]), float(t)
        lo, hi = min(t_from, t_to), max(t_from, t_to)
        knots = np.unique(np.concatenate([top_t, bot_t]))
        knots = knots[(knots > lo + 1e-12) & (knots < hi - 1e-12)]
        if t_to < t_from:
            knots = knots[::-1]
        way = [np.asarray(pts[-1], dtype=float)]
        for k in knots:
            s_lo, s_hi = _span_at(float(k), chains, delta)
            way.extend(_densify(way[-1], float(k) * u + (s_hi if high_side else s_lo) * v, delta)[1:])
        way.extend(_densify(way[-1], track[0], delta)[1:])
        pts.extend(way[1:])  # the hop's last point stands in for the track's first
        pts.extend(track[1:])
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def flatten_plan(plan):
    """A PathPlan's waypoints and plan.csv labels by the per-point loop the
    array pass replaced: each point is compared with the last point kept,
    and dropped within 1e-12 m of it."""
    pts, labels = [], []
    for seg in plan.segments:
        for p in np.asarray(seg.points, dtype=float):
            if pts and math.hypot(p[0] - pts[-1][0], p[1] - pts[-1][1]) < 1e-12:
                continue
            pts.append([float(p[0]), float(p[1])])
            labels.append(seg.kind)
    return np.asarray(pts, dtype=float).reshape(-1, 2), labels


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

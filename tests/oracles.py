"""Independent reference implementations used as test oracles.

Every function here is a direct transcription of a textbook formula or
a deliberate brute-force computation, sharing no code path with the
package: factorizations go through numpy.linalg.cholesky, GP equations
through explicit matrix inverses, log-likelihoods through slogdet,
point-in-polygon through winding angles, ray crossings through
exact per-edge parameter solves, and polygon simplicity through a
scalar segment-pair test over every pair of edges. The exceptions are
earlier searches, kept as the references for what replaced them, and
they run the package's own helpers on purpose: the planner's loops
transit_all_targets (its exhaustive transit search), sweep_per_line
(one cast per sweep line), mow_per_leg (one densify per leg, one clamp
per hop), reachable_per_candidate (one line-of-sight test per grid
node), TupleGrid (the transit grid's tuple nodes, dict edge table
and A*) and trace_boundary (a chain's vertices found by locating each
end on its nearest edge, which the walk from the sweep cast's own edge
indices replaced), and fit_three_hypers, the hyper fit over all three
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


class TupleGrid:
    """A transit grid's nodes, edge table and A* as coverage._TransitGrid
    kept them before its node ids: nodes as index-pair tuples in a dict,
    the clearance of every edge from its own sampled test in a dict keyed
    by tuple pairs, and A* hashing tuples on every relaxation."""

    def __init__(self, grid):
        from bathysurvey.geometry import points_in_polygon

        nt, ns = grid.shape
        ij = np.stack(np.meshgrid(np.arange(nt), np.arange(ns), indexing="ij"), axis=-1).reshape(-1, 2)
        inside = points_in_polygon(grid.to_world(ij), grid.poly)
        self.grid = grid
        self.node_list = [tuple(int(c) for c in p) for p in ij[inside]]
        self.nodes = {n: k for k, n in enumerate(self.node_list)}
        self.world = grid.to_world(np.asarray(self.node_list, dtype=float).reshape(-1, 2))
        self.edges = self._edges()

    def _edges(self):
        """Clearance of every edge between neighbouring inside nodes, keyed
        (low, high) in tuple order, each through segments_in_polygon at
        step delta/3."""
        from bathysurvey.geometry import segments_in_polygon

        grid = self.grid
        nt, ns = grid.shape
        ij = np.asarray(self.node_list, dtype=int).reshape(-1, 2)
        row = np.full(grid.shape, -1)
        row[ij[:, 0], ij[:, 1]] = np.arange(len(ij))
        lows, highs = [], []
        for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):  # the neighbours above a node in tuple order
            ni, nj = ij[:, 0] + di, ij[:, 1] + dj
            on_grid = np.flatnonzero((ni < nt) & (nj >= 0) & (nj < ns))
            nb = row[ni[on_grid], nj[on_grid]]
            lows.append(on_grid[nb >= 0])
            highs.append(nb[nb >= 0])
        lo, hi = np.concatenate(lows), np.concatenate(highs)
        clear = segments_in_polygon(self.world[lo], self.world[hi], grid.poly, grid.delta / 3.0)
        node_at = self.node_list
        return {(node_at[a], node_at[b]): ok for a, b, ok in zip(lo.tolist(), hi.tolist(), clear.tolist())}

    def astar(self, start, goal):
        """Shortest 8-connected path between index pairs, or None; ties in
        priority break on the index pair."""
        if start not in self.nodes or goal not in self.nodes:
            return None
        nodes, edges, world = self.nodes, self.edges, self.world
        h = np.hypot(*(world - world[nodes[goal]]).T).tolist()
        delta = self.grid.delta
        moves = [
            (di, dj, delta * (math.sqrt(2.0) if di and dj else 1.0))
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if di or dj
        ]
        open_q = [(h[nodes[start]], start)]
        g_cost = {start: 0.0}
        came = {}
        closed = set()
        while open_q:
            _, node = heapq.heappop(open_q)
            if node in closed:
                continue
            if node == goal:
                path = [node]
                while node in came:
                    node = came[node]
                    path.append(node)
                return path[::-1]
            closed.add(node)
            ni, nj = node
            for di, dj, step in moves:
                nb = (ni + di, nj + dj)
                if nb not in nodes or nb in closed:
                    continue
                if not edges[(node, nb) if node < nb else (nb, node)]:
                    continue
                cand = g_cost[node] + step
                if cand < g_cost.get(nb, math.inf) - 1e-12:
                    g_cost[nb] = cand
                    came[nb] = node
                    heapq.heappush(open_q, (cand + h[nodes[nb]], nb))
        return None


def transit_all_targets(position, targets, poly, delta, grid=None):
    """plan_transit as it was before its target pruning: A* to every target.

    Same contract as coverage.plan_transit, on the same transit grid: the
    straight leg to the nearest target when it stays inside, otherwise
    an A* route to every target, the shortest realized route winning
    and ties within 1e-12 m going to the lower target index. Routes come
    from TupleGrid's A*.
    """
    from bathysurvey.coverage import _TransitGrid, _densify_path, _path_length
    from bathysurvey.errors import ConfigError, GeometryError
    from bathysurvey.geometry import points_in_polygon, segment_in_polygon

    pos = np.asarray(position, dtype=float)
    targets = [np.asarray(t, dtype=float) for t in targets]
    if not targets:
        raise ConfigError("plan_transit needs at least one target")
    dists = [float(np.hypot(*(t - pos))) for t in targets]
    nearest = min(range(len(targets)), key=lambda i: (dists[i], i))
    direct = _densify_path(np.array([pos, targets[nearest]]), [1], delta)[0]
    if segment_in_polygon(pos, targets[nearest], poly, step=delta / 4.0) and bool(
        points_in_polygon(direct, poly).all()
    ):
        return direct, nearest

    if grid is None:
        grid = _TransitGrid(poly, delta, 0.0)
    start = grid.reachable_node(pos)
    if start is None:
        raise GeometryError("transit start has no straight line to any grid node inside the polygon")
    tuples = TupleGrid(grid)
    best = None
    for i in range(len(targets)):
        goal = grid.reachable_node(targets[i])
        if goal is None:
            continue
        node_path = tuples.astar(tuples.node_list[start], tuples.node_list[goal])
        if node_path is None:
            continue
        way = _densify_path(np.vstack([pos, grid.to_world(node_path), targets[i]]), [len(node_path) + 1], delta)[0]
        if not bool(points_in_polygon(way, poly).all()):
            continue  # a grazing leg slipped outside between samples
        length = _path_length(way)
        if best is None or length < best[0] - 1e-12:
            best = (length, way, i)
    if best is None:
        raise GeometryError("no transit route reaches any target inside the polygon")
    return best[1], best[2]


def sweep_per_line(poly, delta, sweep_dir):
    """coverage.sweep_polygon as a loop over its sweep lines, each nudged
    off a vertex, cast and re-cast on its own. Returns (ts, crossings)."""
    from bathysurvey.coverage import _VERTEX_NUDGE, _check_sweep_args, sweep_frame
    from bathysurvey.errors import ConfigError, GeometryError
    from bathysurvey.geometry import _edge_crossings, bearing_to_unit

    def line_crossings(t):
        o = t * u + (s_lo - pad) * v
        d = bearing_to_unit(math.atan2(v[0], v[1]))
        tt, ss, ok = _edge_crossings(o, d, poly)
        hits = np.sort(tt[ok & (ss >= -1e-12) & (ss < 1.0 - 1e-12) & (tt >= -1e-12)])
        return o + hits[:, None] * d[None, :]

    _check_sweep_args(delta, sweep_dir)
    u, v = sweep_frame(sweep_dir)
    vt = poly.vertices @ u
    vs = poly.vertices @ v
    t_min, t_max = float(vt.min()), float(vt.max())
    if t_max - t_min <= delta:
        raise ConfigError(
            f"track spacing {delta} is not below the polygon extent {t_max - t_min:.6g} along the sweep"
        )
    s_lo = float(vs.min())
    pad = max(delta, 1.0)
    nudge = _VERTEX_NUDGE * delta
    ts = []
    t = t_min
    while t < t_max - nudge:
        ts.append(t)
        t += delta
    ts.append(t_max)
    out_ts, crossings = [], []
    for i, t in enumerate(ts):
        step = -nudge if i == len(ts) - 1 else nudge
        if np.any(np.abs(vt - t) <= nudge):
            t += step
        pts = line_crossings(t)
        tries = 0
        while len(pts) % 2 == 1 and tries < 3:
            t += step
            pts = line_crossings(t)
            tries += 1
        if len(pts) % 2 == 1:
            raise GeometryError(f"sweep line at t={t} crosses the polygon an odd number of times")
        out_ts.append(t)
        crossings.append(pts)
    return np.asarray(out_ts), crossings


def _densify(a, b, delta):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(1, math.ceil(float(np.hypot(*(b - a))) / delta - 1e-12))
    return a + np.linspace(0.0, 1.0, n + 1)[:, None] * (b - a)


def mow_per_leg(cell, entry_corner, delta, sweep_dir):
    """coverage.lawnmower_cell as a loop over its tracks: each track and
    each hop leg densified on its own, each hop clamped to the cell
    outline on its own, repeated waypoints dropped one at a time."""
    from bathysurvey.coverage import _cell_track_geometry, _chain_coords, _span_at, sweep_frame
    from bathysurvey.errors import ConfigError
    from bathysurvey.geometry import nearest_boundary_point, points_in_polygon

    if entry_corner not in (0, 1, 2, 3):
        raise ConfigError(f"entry corner must be 0..3, got {entry_corner}")
    u, v = sweep_frame(sweep_dir)
    chains = _chain_coords(cell, sweep_dir)
    top_t, _, bot_t, _ = chains
    outline = None
    ts, spans = _cell_track_geometry(cell, delta, sweep_dir)
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
        if outline is None:
            outline = cell.outline()
        hop = way[1:]
        inside = points_in_polygon(np.asarray(hop), outline)
        hop = [p if ok else nearest_boundary_point(p, outline) for p, ok in zip(hop, inside)]
        for q in hop[:-1]:
            if np.hypot(*(q - pts[-1])) > 1e-9:
                pts.append(q)
        pts.append(hop[-1])
        pts.extend(track[1:])
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def reachable_per_candidate(grid, point):
    """coverage._TransitGrid.reachable_node testing one candidate node at
    a time, nearest first, each by its sampled line of sight."""
    from bathysurvey.errors import GeometryError
    from bathysurvey.geometry import segment_in_polygon

    world = grid.world
    if not len(world):
        raise GeometryError("no transit grid nodes fall inside the polygon")
    p = np.asarray(point, dtype=float)
    for k in np.argsort(np.hypot(*(world - p).T), kind="stable"):
        if segment_in_polygon(p, world[int(k)], grid.poly, step=grid.delta / 3.0):
            return int(k)
    return None


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

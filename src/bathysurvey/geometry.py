"""Planar geometry for survey regions.

Bearings throughout the package are compass bearings: atan2(dx, dy),
zero pointing along +y (north), positive clockwise, normalized to
(-pi, pi]. A bearing psi maps to the unit vector (sin psi, cos psi).

Polygons are simple (non self-intersecting), stored counter-clockwise,
with no consecutive duplicate vertices. Containment tests are
boundary-inclusive within a 1e-9 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import ConfigError, GeometryError

TWO_PI = 2.0 * math.pi
BOUNDARY_TOL = 1e-9


def normalize_bearing(psi: float) -> float:
    """Wrap a bearing into (-pi, pi]."""
    r = math.remainder(float(psi), TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def bearing_between(p_from, p_to) -> float:
    """Compass bearing from p_from to p_to."""
    dx = p_to[0] - p_from[0]
    dy = p_to[1] - p_from[1]
    return math.atan2(dx, dy)


def bearing_to_unit(psi: float) -> np.ndarray:
    """Unit vector (dx, dy) for a compass bearing."""
    return np.array([math.sin(psi), math.cos(psi)])


def angular_difference(a: float, b: float) -> float:
    """Absolute wrapped difference between two bearings, in [0, pi]."""
    return abs(normalize_bearing(a - b))


@dataclass(frozen=True)
class Arc:
    """Circular arc swept clockwise (bearing-increasing) from psi_start to psi_end."""

    center: tuple
    radius: float
    psi_start: float
    psi_end: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GeometryError(f"arc radius must be positive, got {self.radius}")

    @property
    def span(self) -> float:
        """Angular span in (0, 2*pi]."""
        s = (self.psi_end - self.psi_start) % TWO_PI
        return TWO_PI if s == 0.0 else s

    def bearings(self, count: int) -> np.ndarray:
        """count+1 bearings from psi_start to psi_end inclusive, evenly spaced."""
        return self.psi_start + self.span * np.arange(count + 1) / count

    def points(self, count: int) -> np.ndarray:
        """Cartesian points at radius for bearings(count)."""
        psi = self.bearings(count)
        c = np.asarray(self.center, dtype=float)
        return c + self.radius * np.column_stack([np.sin(psi), np.cos(psi)])


class Polygon:
    """Simple polygon, counter-clockwise, consecutive duplicates removed.

    Raises GeometryError for fewer than three distinct vertices, zero
    area, or self-intersection (the error names the crossing edges).
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError(f"expected an (n, 2) vertex array, got shape {v.shape}")
        if len(v) and np.hypot(*(v[-1] - v[0])) <= BOUNDARY_TOL:
            v = v[:-1]  # drop explicit closing vertex
        keep = [0]
        for i in range(1, len(v)):
            if np.hypot(*(v[i] - v[keep[-1]])) > BOUNDARY_TOL:
                keep.append(i)
        v = v[keep]
        if len(v) < 3:
            raise GeometryError("polygon needs at least 3 distinct vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        area2 = _signed_area2(v)
        scale = max(1.0, float(np.abs(v).max()))
        if abs(area2) <= 1e-12 * scale * scale:
            raise GeometryError("polygon has zero area")
        if area2 < 0.0:
            v = v[::-1].copy()
        self.vertices = v
        self.vertices.setflags(write=False)
        self._edge_ends = np.roll(v, -1, axis=0)  # end of edge i is vertex i + 1
        self._edge_ends.setflags(write=False)
        self._check_simple()

    def _check_simple(self):
        v = self.vertices
        n = len(v)
        for i in range(n):
            a1, a2 = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex by construction
                b1, b2 = v[j], v[(j + 1) % n]
                if _segments_intersect(a1, a2, b1, b2):
                    raise GeometryError(f"polygon self-intersects: edge {i} crosses edge {j}")

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.3f})"

    @property
    def area(self) -> float:
        return 0.5 * _signed_area2(self.vertices)

    @property
    def bounds(self):
        """(xmin, ymin, xmax, ymax)."""
        v = self.vertices
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())

    def edge(self, i: int):
        v = self.vertices
        return v[i % len(v)], v[(i + 1) % len(v)]

    def edges(self):
        return zip(self.vertices, self._edge_ends)

    def contains(self, p, tol: float = BOUNDARY_TOL) -> bool:
        return point_in_polygon(p, self, tol)


def _signed_area2(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


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


def _edge_arrays(poly: Polygon):
    return poly.vertices, poly._edge_ends


def distance_to_boundary(p, poly: Polygon) -> float:
    """Euclidean distance from p to the polygon boundary."""
    a, b = _edge_arrays(poly)
    return float(_point_segment_distances(np.asarray(p, dtype=float), a, b).min())


def _point_segment_distances(p, a, b):
    e = b - a
    w = p - a
    lens2 = np.einsum("ij,ij->i", e, e)
    t = np.clip(np.einsum("ij,ij->i", w, e) / np.where(lens2 > 0, lens2, 1.0), 0.0, 1.0)
    closest = a + t[:, None] * e
    return np.hypot(*(p - closest).T)


def nearest_boundary_point(p, poly: Polygon) -> np.ndarray:
    """Closest point on the polygon boundary to p."""
    p = np.asarray(p, dtype=float)
    a, b = _edge_arrays(poly)
    e = b - a
    lens2 = np.einsum("ij,ij->i", e, e)
    t = np.clip(np.einsum("ij,ij->i", p - a, e) / np.where(lens2 > 0, lens2, 1.0), 0.0, 1.0)
    closest = a + t[:, None] * e
    d = np.hypot(*(p - closest).T)
    return closest[int(np.argmin(d))]


def point_in_polygon(p, poly: Polygon, tol: float = BOUNDARY_TOL) -> bool:
    """Boundary-inclusive containment test for one point (see points_in_polygon)."""
    return bool(points_in_polygon(np.asarray(p, dtype=float)[None, :], poly, tol)[0])


def points_in_polygon(points, poly: Polygon, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Vectorized boundary-inclusive containment for an (m, 2) array.

    A point is inside when crossing parity says so or when it lies within
    `tol` of an edge. The tolerance can only turn outside into inside, so
    the edge distances are computed only for the points parity rejects.
    """
    pts = np.asarray(points, dtype=float)
    a, b = _edge_arrays(poly)
    inside = _crossing_parity(pts, a, b)
    if tol > 0.0 and not inside.all():
        out = ~inside
        q = pts[out]
        e = b - a
        lens2 = np.einsum("ij,ij->i", e, e)
        w = q[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("mij,ij->mi", w, e) / np.where(lens2 > 0, lens2, 1.0), 0.0, 1.0)
        closest = a[None, :, :] + t[..., None] * e[None, :, :]
        d2 = ((q[:, None, :] - closest) ** 2).sum(axis=2)
        inside[out] = d2.min(axis=1) <= tol * tol
    return inside


def _crossing_parity(pts, a, b):
    # half-open in y: an edge is counted where it straddles the horizontal
    # through the point, which counts shared vertices exactly once
    px, py = pts[:, 0:1], pts[:, 1:2]
    ya, yb = a[:, 1][None, :], b[:, 1][None, :]
    xa, xb = a[:, 0][None, :], b[:, 0][None, :]
    straddle = (ya > py) != (yb > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = xa + (py - ya) * (xb - xa) / (yb - ya)
    hits = straddle & (xcross > px)
    return hits.sum(axis=1) % 2 == 1


def ray_cross_polygon(origin, bearing: float, poly: Polygon) -> np.ndarray:
    """Points where a ray from origin crosses the polygon boundary.

    Edges are half-open along the polygon orientation (first endpoint
    included, second excluded) so a crossing at a shared vertex counts
    once. Returns an (k, 2) array sorted by distance along the ray.
    """
    o = np.asarray(origin, dtype=float)
    d = bearing_to_unit(bearing)
    a, b = _edge_arrays(poly)
    e = b - a
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    w = a - o
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / denom
        s = (w[:, 0] * d[1] - w[:, 1] * d[0]) / denom
    ok = (np.abs(denom) > 1e-15) & (s >= -1e-12) & (s < 1.0 - 1e-12) & (t >= -1e-12)
    ts = np.sort(t[ok])
    return o + ts[:, None] * d[None, :]


def crossed_edge(poly: Polygon, p_from, p_to) -> int:
    """Index of the polygon edge crossed first by the segment p_from -> p_to."""
    p = np.asarray(p_from, dtype=float)
    q = np.asarray(p_to, dtype=float)
    d = q - p
    a, b = _edge_arrays(poly)
    e = b - a
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    w = a - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / denom
        s = (w[:, 0] * d[1] - w[:, 1] * d[0]) / denom
    ok = (np.abs(denom) > 1e-15) & (s >= -1e-9) & (s <= 1.0 + 1e-9) & (t >= -1e-9) & (t <= 1.0 + 1e-9)
    if not ok.any():
        raise GeometryError("segment does not cross the polygon boundary")
    idx = np.where(ok)[0]
    return int(idx[np.argmin(t[idx])])


def next_edge(poly: Polygon, edge: int, direction: int) -> int:
    """Edge index after `edge` when traveling with direction +1 (ccw) or -1 (cw)."""
    if direction not in (1, -1):
        raise GeometryError(f"direction must be +1 or -1, got {direction}")
    return (edge + direction) % len(poly)


def edge_vertex_ahead(poly: Polygon, edge: int, direction: int) -> np.ndarray:
    """Endpoint of `edge` that lies ahead when traveling with `direction`."""
    if direction not in (1, -1):
        raise GeometryError(f"direction must be +1 or -1, got {direction}")
    v = poly.vertices
    n = len(v)
    return v[(edge + 1) % n] if direction == 1 else v[edge % n]


def _locate_on_boundary(p, poly: Polygon, snap: float):
    """(edge index, param in [0,1)) of a point on the boundary, vertex -> (edge, 0)."""
    p = np.asarray(p, dtype=float)
    a, b = _edge_arrays(poly)
    e = b - a
    lens = np.hypot(e[:, 0], e[:, 1])
    t = np.clip(np.einsum("ij,ij->i", p - a, e) / lens**2, 0.0, 1.0)
    d = np.hypot(*(p - (a + t[:, None] * e)).T)
    cands = np.where(d <= snap)[0]
    if len(cands) == 0:
        raise GeometryError(f"point {tuple(p)} is not on the polygon boundary (snap {snap})")
    n = len(poly)
    best = None
    for i in cands:
        ti = t[i]
        ei = int(i)
        if ti * lens[i] >= lens[i] - snap:  # at the far vertex: belongs to the next edge
            ei, ti = (ei + 1) % n, 0.0
        elif ti * lens[i] <= snap:
            ti = 0.0
        key = (d[i], ti)
        if best is None or key < best[0]:
            best = (key, ei, ti)
    return best[1], best[2]


def trace_boundary(p_from, p_to, poly: Polygon, snap: float = 1e-6) -> list:
    """Polygon vertices strictly between two boundary points, walking ccw.

    Endpoints are excluded. Both points must lie on the boundary within
    `snap`. Same-edge points with p_to ahead of p_from give [].
    """
    e_from, s_from = _locate_on_boundary(p_from, poly, snap)
    e_to, s_to = _locate_on_boundary(p_to, poly, snap)
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


def arc_within_polygon(p, poly: Polygon, radius: float) -> tuple:
    """Maximal bearing interval whose radius-r points around p stay inside poly.

    Returns (psi_start, psi_end) with the arc swept clockwise from start
    to end. A fully inside circle gives the full span centered due north,
    (-pi, pi). Raises GeometryError if no bearing stays inside.
    """
    p = np.asarray(p, dtype=float)
    if radius <= 0.0:
        raise GeometryError(f"radius must be positive, got {radius}")
    hits = []
    for a, b in poly.edges():
        e = b - a
        w = a - p
        qa = float(e @ e)
        qb = 2.0 * float(w @ e)
        qc = float(w @ w) - radius * radius
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0 or qa <= 0.0:
            continue
        root = math.sqrt(disc)
        for t in ((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)):
            if -1e-12 <= t <= 1.0 + 1e-12:
                q = a + t * e
                hits.append(math.atan2(q[0] - p[0], q[1] - p[1]))
    if not hits:
        if point_in_polygon(p + radius * np.array([0.0, 1.0]), poly):
            return (-math.pi, math.pi)
        raise GeometryError(f"no bearing at radius {radius} from {tuple(p)} stays inside the polygon")
    bearings = np.array(sorted(normalize_bearing(h) for h in hits))
    m = len(bearings)
    spans = np.diff(np.append(bearings, bearings[0] + TWO_PI))
    inside = np.zeros(m, dtype=bool)
    for i in range(m):
        mid = bearings[i] + 0.5 * spans[i]
        probe = p + radius * np.array([math.sin(mid), math.cos(mid)])
        inside[i] = point_in_polygon(probe, poly)
    if not inside.any():
        raise GeometryError(f"no bearing at radius {radius} from {tuple(p)} stays inside the polygon")
    if inside.all():
        return (-math.pi, math.pi)
    # longest circular run of inside gaps
    best_span, best_start, best_len = -1.0, 0, 0
    i = 0
    while i < m:
        if inside[i % m] and not inside[(i - 1) % m]:
            j, total = i, 0.0
            while inside[j % m]:
                total += spans[j % m]
                j += 1
            if total > best_span:
                best_span, best_start, best_len = total, i, j - i
        i += 1
    start = float(bearings[best_start % m])
    end = normalize_bearing(start + best_span)
    return (start, end)


def segment_in_polygon(p, q, poly: Polygon, step: float) -> bool:
    """True if the straight segment p->q stays inside poly, sampled every `step`."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    length = float(np.hypot(*(q - p)))
    k = max(2, int(math.ceil(length / max(step, 1e-9))) + 1)
    ts = np.linspace(0.0, 1.0, k)
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    return bool(points_in_polygon(pts, poly).all())


def douglas_peucker(points: np.ndarray, tol: float) -> np.ndarray:
    """Classic recursive polyline simplification, endpoints kept."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return pts.copy()
    keep = np.zeros(len(pts), dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        a, b = pts[i], pts[j]
        e = b - a
        ln = np.hypot(*e)
        seg = pts[i + 1 : j]
        if ln < 1e-12:
            d = np.hypot(*(seg - a).T)
        else:
            d = np.abs(e[0] * (seg[:, 1] - a[1]) - e[1] * (seg[:, 0] - a[0])) / ln
        k = int(np.argmax(d))
        if d[k] > tol:
            keep[i + 1 + k] = True
            stack.append((i, i + 1 + k))
            stack.append((i + 1 + k, j))
    return pts[keep]


def simplify_closed_curve(points: np.ndarray, tol: float) -> np.ndarray:
    """Douglas-Peucker for a closed loop: split at the two mutually farthest
    anchor points, simplify each half, and rejoin."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 4:
        return pts.copy()
    d0 = np.hypot(*(pts - pts[0]).T)
    k = int(np.argmax(d0))
    first = douglas_peucker(pts[: k + 1], tol)
    second = douglas_peucker(np.vstack([pts[k:], pts[:1]]), tol)
    return np.vstack([first[:-1], second[:-1]])


def load_polygon(path) -> Polygon:
    """Read a polygon file: one 'x,y' vertex per line, '#' starts a comment."""
    verts = [files.numbers(path, row, 2) for row in files.read_rows(path)]
    if not verts:
        raise ConfigError(f"polygon file {path} contains no vertices")
    return Polygon(verts)


def save_polygon(poly: Polygon, path) -> None:
    header = "# polygon vertices, one 'x,y' per line, counter-clockwise"
    files.write_text(path, files.csv_text(header, poly.vertices, "ff"))

"""Planar geometry for survey regions.

Bearings throughout the package are compass bearings: atan2(dx, dy),
zero pointing along +y (north), positive clockwise, normalized to
(-pi, pi]. A bearing psi maps to the unit vector (sin psi, cos psi).

Polygons are simple (non self-intersecting), stored counter-clockwise,
with no consecutive duplicate vertices. Containment tests are
boundary-inclusive within a 1e-9 tolerance.

Each polygon question has one routine, which every caller shares:
points_in_polygon (containment), _closest_on_edges (closest point of
each edge), nearest_boundary_points (closest boundary point and its
distance), _edge_crossings (where a line meets each edge),
segments_in_polygon (whether straight segments stay inside, decided
exactly from where they meet the edges) and _first_crossing (which
edges touch or cross: whether a polygon is simple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import ConfigError, GeometryError

TWO_PI = 2.0 * math.pi
BOUNDARY_TOL = 1e-9
#: point-edge, segment-edge or edge-edge pairs that go through one array pass
_PAIR_BLOCK = 1 << 16


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
        return self.points_at(self.bearings(count))

    def points_at(self, psi: np.ndarray) -> np.ndarray:
        """Cartesian points at radius for the bearings psi."""
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
        if not np.all(np.isfinite(v)):  # before the dedup, which would drop a NaN vertex
            raise GeometryError("polygon vertices must be finite")
        gaps = np.hypot(*np.diff(v, axis=0, append=v[:1]).T)  # vertex i to i + 1, the last closing the ring
        if len(v) and gaps[-1] <= BOUNDARY_TOL:
            v = v[:-1]  # drop explicit closing vertex
        close = np.flatnonzero(gaps[: len(v) - 1] <= BOUNDARY_TOL)
        if len(close):
            # every vertex up to the first close pair stays; each later one
            # stays when it is far enough from the last one kept
            keep = list(range(close[0] + 1))
            for i in range(close[0] + 1, len(v)):
                if np.hypot(*(v[i] - v[keep[-1]])) > BOUNDARY_TOL:
                    keep.append(i)
            v = v[keep]
        if len(v) < 3:
            raise GeometryError("polygon needs at least 3 distinct vertices")
        ends = np.roll(v, -1, axis=0)  # end of edge i is vertex i + 1
        area2 = _signed_area2(v, ends)
        if not math.isfinite(area2):
            raise GeometryError("polygon vertices too large: its area overflows")
        scale = max(1.0, float(np.abs(v).max()))
        if abs(area2) <= 1e-12 * scale * scale:
            raise GeometryError("polygon has zero area")
        if area2 < 0.0:
            v = v[::-1].copy()
            ends = np.roll(v, -1, axis=0)
        self.vertices = v
        self.vertices.setflags(write=False)
        self._edge_ends = ends
        self._edge_ends.setflags(write=False)
        dy = ends[:, 1] - v[:, 1]
        dy[dy == 0.0] = 1.0  # a level edge never straddles, so its quotient is never read
        #: per edge, the x and y of its start, the y of its end, its dx and
        #: dy: the rows every crossing-parity test reads
        self._parity_rows = (v[:, 0], v[:, 1], ends[:, 1], ends[:, 0] - v[:, 0], dy)
        crossing = _first_crossing(v, self._edge_ends)
        if crossing is not None:
            raise GeometryError("polygon self-intersects: edge %d crosses edge %d" % crossing)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.3f})"

    @property
    def area(self) -> float:
        return 0.5 * _signed_area2(self.vertices, self._edge_ends)

    @property
    def bounds(self):
        """(xmin, ymin, xmax, ymax)."""
        v = self.vertices
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())


def _signed_area2(v: np.ndarray, ends: np.ndarray) -> float:
    """Twice the signed area of the ring of edges v[k] -> ends[k]; not
    finite when the products overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(v[:, 0], ends[:, 1]) - np.dot(ends[:, 0], v[:, 1]))


def _first_crossing(v: np.ndarray, ends: np.ndarray):
    """First pair (i, j), i < j in row order, of non-adjacent edges
    v[k] -> ends[k] sharing a point: each straddles the other's line, or
    an end of one has an orientation about the other within 1e-12 of
    zero and lies in its bounding box grown by 1e-12. None if no pair
    does. Orientations are computed for _PAIR_BLOCK edge pairs at a time."""
    eps = 1e-12
    n = len(v)
    x, y = v.T
    ex, ey = (ends - v).T
    lox, loy = (np.minimum(v, ends) - eps).T
    hix, hiy = (np.maximum(v, ends) + eps).T
    straddles = np.empty((n, n), dtype=bool)  # edge i straddles the line of edge j
    touches = np.empty((n, n), dtype=bool)  # an end of edge i lies on edge j
    ring = np.vstack([v, v[:1]])
    rows = max(1, _PAIR_BLOCK // n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        px, py = ring[r0 : r1 + 1, 0, None], ring[r0 : r1 + 1, 1, None]  # the vertices of edges r0 .. r1 - 1
        d = ex * (py - y) - ey * (px - x)
        above, below = d > eps, d < -eps
        on = (np.abs(d) <= eps) & (lox <= px) & (px <= hix) & (loy <= py) & (py <= hiy)
        straddles[r0:r1] = (above[:-1] & below[1:]) | (below[:-1] & above[1:])
        touches[r0:r1] = on[:-1] | on[1:]
    k = np.arange(n)
    hits = ((straddles & straddles.T) | touches | touches.T) & (k > k[:, None] + 1)  # j > i + 1: i, j not adjacent
    hits[0, n - 1] = False  # nor are n - 1 and 0, which share vertex 0
    i, j = np.nonzero(hits)
    return (int(i[0]), int(j[0])) if len(i) else None


def _closest_on_edges(pts: np.ndarray, poly: Polygon):
    """Closest point of every edge to each of the (m, 2) points, (m, n, 2),
    and its parameter in [0, 1] along the edge, (m, n)."""
    a = poly.vertices
    e = poly._edge_ends - a
    lens2 = np.einsum("ij,ij->i", e, e)
    t = np.clip(np.einsum("mij,ij->mi", pts[:, None, :] - a, e) / np.where(lens2 > 0, lens2, 1.0), 0.0, 1.0)
    return a + t[..., None] * e, t


def nearest_boundary_point(p, poly: Polygon) -> np.ndarray:
    """Closest point on the polygon boundary to p (see nearest_boundary_points)."""
    return nearest_boundary_points(np.asarray(p, dtype=float)[None, :], poly)[0][0]


def nearest_boundary_points(points, poly: Polygon):
    """Closest point on the polygon boundary to each row of the (m, 2)
    points, (m, 2), and its distance, (m,): of each row's closest points
    on the edges, the first at the least hypot. Rows go through
    _PAIR_BLOCK point-edge pairs at a time."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    closest, dist = np.empty_like(pts), np.empty(len(pts))
    rows = max(1, _PAIR_BLOCK // len(poly))
    for r0 in range(0, len(pts), rows):
        q = pts[r0 : r0 + rows]
        on_edges = _closest_on_edges(q, poly)[0]
        d = np.hypot(*(q[:, None, :] - on_edges).transpose(2, 0, 1))
        at, k = np.arange(len(q)), np.argmin(d, axis=1)
        closest[r0 : r0 + rows], dist[r0 : r0 + rows] = on_edges[at, k], d[at, k]
    return closest, dist


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
    inside = _crossing_parity(pts, poly)
    if tol > 0.0 and not inside.all():
        out = ~inside
        q = pts[out]
        with np.errstate(over="ignore"):  # far-off points: their squared distance overflows to inf, still outside
            d2 = ((q[:, None, :] - _closest_on_edges(q, poly)[0]) ** 2).sum(axis=2)
        inside[out] = d2.min(axis=1) <= tol * tol
    return inside


def _crossing_parity(pts, poly: Polygon):
    # half-open in y: an edge is counted where it straddles the horizontal
    # through the point, which counts shared vertices exactly once
    px, py = pts[:, 0:1], pts[:, 1:2]
    xa, ya, yb, dx, dy = poly._parity_rows
    straddle = (ya > py) != (yb > py)
    with np.errstate(over="ignore", invalid="ignore"):  # far-off points: the product overflows
        xcross = xa + (py - ya) * dx / dy
    return np.logical_xor.reduce(straddle & (xcross > px), axis=1)


def _edge_crossings(o: np.ndarray, d: np.ndarray, poly: Polygon):
    """t and s where the line o + t d meets each edge's line a + s (b - a),
    and the mask of edges not parallel to d; callers apply their own tolerances.
    An origin, or a direction, of shape (..., 1, 2) gives t and s of shape
    (..., n), one row per origin or direction. Parallel edges divide by
    zero on purpose: their t and s are not finite and the mask drops them.
    An origin or direction far off (about 1e300) can overflow the products,
    which then read no contact: such a segment has an end outside anyway."""
    a = poly.vertices
    e = poly._edge_ends - a
    dx, dy = d[..., 0], d[..., 1]
    w = a - o
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = dx * e[:, 1] - dy * e[:, 0]
        t = (w[..., 0] * e[:, 1] - w[..., 1] * e[:, 0]) / denom
        s = (w[..., 0] * dy - w[..., 1] * dx) / denom
    return t, s, np.abs(denom) > 1e-15


def crossed_edge(poly: Polygon, p_from, p_to) -> int:
    """Index of the polygon edge crossed first by the segment p_from -> p_to,
    counting crossings up to 1e-9 m beyond either end, whatever its length."""
    p = np.asarray(p_from, dtype=float)
    d = np.asarray(p_to, dtype=float) - p
    t, s, ok = _edge_crossings(p, d, poly)
    slack = 1e-9 / (math.hypot(*d) or math.inf)  # a point crosses nothing: ok is all False
    ok &= (s >= -1e-9) & (s <= 1.0 + 1e-9) & (t >= -slack) & (t <= 1.0 + slack)
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


def segment_in_polygon(p, q, poly: Polygon) -> bool:
    """True if the straight segment p->q stays inside poly (see segments_in_polygon)."""
    return bool(segments_in_polygon(p, q, poly)[0])


def segments_in_polygon(p, q, poly: Polygon) -> np.ndarray:
    """Per row of the (m, 2) arrays p and q, True if the segment p->q
    stays inside poly; touching the boundary counts as inside.

    The segment's contacts are where it meets an edge, at an edge
    parameter in [0, 1] within 1e-9, so a vertex on the segment is met
    through the edges it ends. Between consecutive contacts the segment
    meets no edge it does not run along, so each piece lies wholly inside
    or wholly outside: the segment stays inside when both ends and the
    midpoint of every piece are inside. Those points go through one
    containment call per _PAIR_BLOCK segment-edge pairs.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    d = np.atleast_2d(np.asarray(q, dtype=float)) - p
    clear = np.empty(len(p), dtype=bool)
    rows = max(1, _PAIR_BLOCK // len(poly))
    for r0 in range(0, len(p), rows):
        a, ad = p[r0 : r0 + rows], d[r0 : r0 + rows]
        t, s, ok = _edge_crossings(a[:, None, :], ad[:, None, :], poly)
        contact = ok & (s >= -1e-9) & (s <= 1.0 + 1e-9) & (t > 0.0) & (t < 1.0)
        zeros, ones = np.zeros((len(a), 1)), np.ones((len(a), 1))
        # piece ends along each segment: 0, its contacts in order, then 1 for every edge it does not meet
        ends = np.concatenate([zeros, np.sort(np.where(contact, t, 1.0), axis=1), ones], axis=1)
        frac = np.concatenate([zeros, ones, 0.5 * (ends[:, :-1] + ends[:, 1:])], axis=1)
        test = frac < 1.0  # both ends, and the midpoints of the pieces before 1
        test[:, 1] = True
        row, f = np.nonzero(test)[0], frac[test]
        inside = points_in_polygon(a[row] + f[:, None] * ad[row], poly)
        clear[r0 : r0 + rows] = np.bincount(row[~inside], minlength=len(a)) == 0
    return clear


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

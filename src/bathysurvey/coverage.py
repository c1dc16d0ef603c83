"""Monotone decomposition of a survey polygon and lawnmower path planning.

A sweep direction splits the plane into sweep coordinate t (along the
sweep bearing) and line coordinate s (along sweep bearing + pi/2). The
boundary is cut at its turning vertices, where it turns back along the
sweep, into chains monotone in t. Cells open and close at the chain
ends: a cell is a maximal t-interval over which one pair of chains
bounds a piece of the polygon from below and above. The cells tile the
polygon, and each is monotone along the sweep, so any line orthogonal
to the sweep crosses it at most twice.

Tracklines sit on a global grid of spacing delta anchored at the
polygon's sweep minimum, so their spacing stays exactly delta across
interior cell interfaces. Only at the polygon's own sweep
extremes are tracks inset: the first track one delta inside the hull,
the last on the largest grid position at least delta/2 short of it, so
every point of the delta-inset polygon stays within delta/2 of a track.
Track endpoints shrink by delta along the line direction to stand off
the hull sideways.

A transit between cells is the straight segment to the nearest cell
corner when that stays inside, else the shortest path inside the
polygon, which bends only at reflex vertices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from . import files
from .errors import ConfigError, GeometryError
from .geometry import Polygon, bearing_to_unit, point_in_polygon, segment_in_polygon, segments_in_polygon

#: relative slack below delta at which a cell's sweep span still fits a single centered track
_SINGLE_TRACK_SLACK = 1e-9
#: relative slack when snapping trackline positions onto the sweep grid
_GRID_SNAP = 1e-7


def sweep_frame(sweep_dir: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (u, v): u along the sweep bearing, v along the line bearing.

    A sweep along a coordinate axis to within the rounding of its bearing,
    such as -pi/2, runs exactly along it, so the polygon's edges across
    the sweep keep one sweep coordinate along their length.
    """
    u = bearing_to_unit(sweep_dir)
    u[np.abs(u) < 1e-15] = 0.0
    v = bearing_to_unit(sweep_dir + math.pi / 2)
    return u, v


@dataclass(frozen=True)
class Cell:
    """One sweep-monotone cell, stored as its two boundary chains.

    top_chain (high s) and bottom_chain (low s) each run by increasing
    sweep coordinate from t_open to t_close.
    opens_at_min / closes_at_max mark cells touching the polygon's own
    sweep extremes; grid_origin is the global sweep minimum anchoring
    the trackline grid.
    """

    index: int
    top_chain: np.ndarray
    bottom_chain: np.ndarray
    t_open: float
    t_close: float
    opens_at_min: bool
    closes_at_max: bool
    grid_origin: float

    @property
    def corners(self) -> np.ndarray:
        """The chain ends: 0 = opening/low-s, 1 = opening/high-s,
        2 = closing/high-s, 3 = closing/low-s, i.e. clockwise from the
        bottom left when the sweep axis points right."""
        top, bottom = self.top_chain, self.bottom_chain
        return np.asarray([bottom[0], top[0], top[-1], bottom[-1]])

    @property
    def boundary(self) -> np.ndarray:
        """The closed outline, first point not repeated: the top chain,
        then the bottom chain backwards."""
        top, bottom = self.top_chain, self.bottom_chain
        return np.asarray([bottom[0], *top, bottom[-1], *bottom[-2:0:-1]])

    def outline(self) -> Polygon:
        return Polygon(self.boundary)


@dataclass(frozen=True)
class PathSegment:
    kind: str  # "transit" or "lawnmower"
    points: np.ndarray
    cell_index: int | None = None


@dataclass
class PathPlan:
    segments: list
    cells: list
    delta: float
    sweep_dir: float
    skipped_cells: list = field(default_factory=list)

    @property
    def waypoints(self) -> np.ndarray:
        """All plan waypoints in visit order, consecutive duplicates removed."""
        return self._flat()[0]

    def _flat(self):
        pts, labels = [], []
        for seg in self.segments:
            for p in np.asarray(seg.points, dtype=float):
                if pts and math.hypot(p[0] - pts[-1][0], p[1] - pts[-1][1]) < 1e-12:
                    continue
                pts.append([float(p[0]), float(p[1])])
                labels.append(seg.kind)
        return np.asarray(pts, dtype=float).reshape(-1, 2), labels

    @property
    def total_length(self) -> float:
        return _path_length(self.waypoints)

    @property
    def transit_length(self) -> float:
        transits = (seg.points for seg in self.segments if seg.kind == "transit")
        return sum((_path_length(np.asarray(pts, dtype=float)) for pts in transits), 0.0)

    def save(self, out) -> list:
        """Write cells.geojson, plan.csv and path.geojson into the directory
        out; returns those names in that order."""
        out = files.make_dir(out)
        cells_to_geojson(self.cells, out / "cells.geojson")
        pts, labels = self._flat()
        rows = ((i, x, y, lab) for i, ((x, y), lab) in enumerate(zip(pts, labels)))
        files.write_text(out / "plan.csv", files.csv_text("index,x,y,label", rows, "iffs"))
        properties = {
            "delta": self.delta,
            "sweep_dir": self.sweep_dir,
            "total_length": _path_length(pts),
            "transit_length": self.transit_length,
        }
        files.write_json(out / "path.geojson", files.feature("LineString", pts, properties))
        return ["cells.geojson", "plan.csv", "path.geojson"]


def cells_to_geojson(cells, path) -> None:
    features = [
        files.feature(
            "Polygon",
            cell.boundary,
            {
                "index": cell.index,
                "t_open": cell.t_open,
                "t_close": cell.t_close,
                "opens_at_min": cell.opens_at_min,
                "closes_at_max": cell.closes_at_max,
            },
        )
        for cell in cells
    ]
    files.write_json(path, {"type": "FeatureCollection", "features": features})


def _check_sweep_args(delta: float, sweep_dir: float) -> None:
    if not math.isfinite(delta) or delta <= 0.0:
        raise ConfigError(f"track spacing must be a positive number, got {delta}")
    if not -math.pi / 2 <= sweep_dir < math.pi / 2:
        raise ConfigError(f"sweep direction must lie in [-pi/2, pi/2), got {sweep_dir}")


def _monotone_chains(vt: np.ndarray) -> list:
    """The ring's vertex indices cut into chains at its turning vertices,
    each chain ordered by increasing sweep coordinate.

    Edge i, from vertex i to i + 1, runs forward or backward by the sign
    of its change in t; an edge of constant t takes the sign of the
    signed edge before it. A chain is each run of one sign, ends included.
    """
    n = len(vt)
    ring = np.arange(2 * n) % n
    sign = np.sign(vt[ring[1 : n + 1]] - vt)
    signed = np.flatnonzero(sign)
    sign = sign[signed[np.searchsorted(signed, ring[:n], side="right") - 1]]
    starts = np.flatnonzero(sign != sign[ring[n - 1 : 2 * n - 1]]).tolist()
    chains = []
    for a, b in zip(starts, starts[1:] + [starts[0] + n]):
        idx = ring[a : b + 1]
        chains.append(idx if sign[a] > 0 else idx[::-1])
    return chains


def _chain_point(pts: np.ndarray, ct: np.ndarray, b: int, t: float) -> np.ndarray:
    """The point at sweep coordinate t on the chain edge from vertex b - 1
    to vertex b: the vertex at t, else a + f (b - a)."""
    a = b - 1
    if ct[a] == t:
        return pts[a]
    if ct[b] == t:
        return pts[b]
    return pts[a] + (t - ct[a]) / (ct[b] - ct[a]) * (pts[b] - pts[a])


def partition_monotone(poly: Polygon, delta: float, sweep_dir: float) -> list:
    """Split the polygon into sweep-monotone cells.

    The boundary is cut into monotone chains at its turning vertices
    (_monotone_chains). Between consecutive chain ends, the chains alive
    there, sorted by s at the interval's midpoint, pair up as (bottom,
    top). A cell is a maximal run of intervals with one pair, so the cells
    tile the polygon and each is monotone by construction. Cells are
    indexed in opening order, bottom to top within an interval. A cell's
    chain holds its polygon chain's vertices strictly inside
    (t_open, t_close), between the chain's points at t_open and t_close.
    """
    _check_sweep_args(delta, sweep_dir)
    u, v = sweep_frame(sweep_dir)
    vt = poly.vertices @ u
    t_min, t_max = float(vt.min()), float(vt.max())
    if t_max - t_min <= delta:
        raise ConfigError(
            f"track spacing {delta} is not below the polygon extent {t_max - t_min:.6g} along the sweep"
        )
    chains = _monotone_chains(vt)
    cts = [vt[c] for c in chains]
    pts = [poly.vertices[c] for c in chains]
    lo, hi = np.array([[ct[0], ct[-1]] for ct in cts]).T
    events = np.unique(np.concatenate([lo, hi]))
    mids = 0.5 * (events[:-1] + events[1:])
    alive = (lo[:, None] < mids) & (mids < hi[:, None])
    # a midpoint that rounds onto an event leaves out the chains ending or
    # starting there, in pairs, so the count of those alive stays even
    s_mid = np.where(alive, [np.interp(mids, ct, p @ v) for ct, p in zip(cts, pts)], np.inf)
    order = np.argsort(s_mid, axis=0)

    runs, live = [], {}  # [bottom, top, t_open, t_close] per cell; each open pair's run
    for k, count in enumerate(alive.sum(axis=0).tolist()):
        pairs = list(zip(order[:count:2, k].tolist(), order[1:count:2, k].tolist()))
        for pair in [p for p in live if p not in pairs]:
            runs[live.pop(pair)][3] = float(events[k])
        for pair in pairs:
            if pair not in live:
                live[pair] = len(runs)
                runs.append([*pair, float(events[k]), None])
    for i in live.values():
        runs[i][3] = float(events[-1])

    def clipped(c, t0, t1):  # chain c from its point at t0 to its point at t1
        ct = cts[c]
        i, j = int(np.searchsorted(ct, t0, side="right")), int(np.searchsorted(ct, t1, side="left"))
        return np.concatenate([[_chain_point(pts[c], ct, i, t0)], pts[c][i:j], [_chain_point(pts[c], ct, j, t1)]])

    return [
        Cell(
            index=index,
            top_chain=clipped(top, t0, t1),
            bottom_chain=clipped(bottom, t0, t1),
            t_open=t0,
            t_close=t1,
            opens_at_min=t0 == t_min,
            closes_at_max=t1 == t_max,
            grid_origin=t_min,
        )
        for index, (bottom, top, t0, t1) in enumerate(runs)
    ]


def _track_positions(cell: Cell, delta: float) -> np.ndarray:
    """Sweep coordinates of the cell's tracklines on the global grid.

    Interior interfaces carry tracks exactly on the cell edge. At the
    polygon's sweep minimum the first track sits delta inside the hull;
    at the maximum the last track is the largest grid position no later
    than delta/2 before the hull. A cell that fits no grid track gets a
    single centered one when its span is at least delta, otherwise it is
    degenerate.
    """
    snap = _GRID_SNAP
    t_first = cell.t_open + delta if cell.opens_at_min else cell.t_open
    t_last = cell.t_close - delta / 2.0 if cell.closes_at_max else cell.t_close
    k0 = math.ceil((t_first - cell.grid_origin) / delta - snap)
    k1 = math.floor((t_last - cell.grid_origin) / delta + snap)
    if k1 < k0:
        span = cell.t_close - cell.t_open
        if span >= delta * (1.0 - _SINGLE_TRACK_SLACK):  # room for a single centered track
            return np.array([0.5 * (cell.t_open + cell.t_close)])
        raise GeometryError(
            f"cell {cell.index} spans {span:.6g} along the sweep, narrower than the track spacing"
        )
    return cell.grid_origin + delta * np.arange(k0, k1 + 1)


def _chain_coords(cell: Cell, sweep_dir: float):
    """Sweep-frame coordinates of the cell's two monotone chains."""
    u, v = sweep_frame(sweep_dir)
    return cell.top_chain @ u, cell.top_chain @ v, cell.bottom_chain @ u, cell.bottom_chain @ v


def _chain_s(t, ct: np.ndarray, cs: np.ndarray, inner) -> np.ndarray:
    """The chain's s at the sweep coordinates t by linear interpolation.
    Where t falls on an edge of constant t, np.interp reads the edge's
    last end; the inner of its two ends (np.minimum on a top chain,
    np.maximum on a bottom one) bounds the cell on both sides of it."""
    s = np.interp(t, ct, cs)
    first = np.minimum(np.searchsorted(ct, t), len(ct) - 1)  # the chain's first vertex at or after t
    return np.where(ct[first] == t, inner(s, cs[first]), s)


def _span_at(t, chains, delta: float) -> tuple:
    """Shrunk s-intervals (lo, hi) of the cell at the sweep coordinates t.

    The monotone chains give the outline's s-extent, one interpolation
    per chain; both ends pull in by delta, and a span too narrow to
    shrink collapses to its midpoint.
    """
    top_t, top_s, bot_t, bot_s = chains
    s_hi = _chain_s(t, top_t, top_s, np.minimum)
    s_lo = _chain_s(t, bot_t, bot_s, np.maximum)
    a, b = s_lo + delta, s_hi - delta
    narrow = a > b
    mid = 0.5 * (s_lo + s_hi)
    return np.where(narrow, mid, a), np.where(narrow, mid, b)


def shrink_corners(cell: Cell, delta: float, sweep_dir: float) -> np.ndarray:
    """Corner points of the shrunk cell: endpoints of the first and last
    tracklines, indexed like the cell corners."""
    u, v = sweep_frame(sweep_dir)
    t0, t1 = _track_positions(cell, delta)[[0, -1]]
    (a0, a1), (b0, b1) = _span_at(np.array([t0, t1]), _chain_coords(cell, sweep_dir), delta)
    return np.asarray(
        [
            t0 * u + a0 * v,
            t0 * u + b0 * v,
            t1 * u + b1 * v,
            t1 * u + a1 * v,
        ]
    )


def _densify_path(way, sizes, delta: float) -> list:
    """Polylines through stations, spacing at most delta, with the legs of
    all of them in one array pass.

    `way` stacks the paths' points, each path's start and then its
    stations, and sizes[k] is the number of stations of path k. Returns
    one array per path: from its start through each station in turn. A
    leg of n = max(1, ceil(length / delta - 1e-12)) steps from a to b has
    points a + f (b - a) at f = i * (1 / n) + 0.0, the last f set to 1.0;
    a leg after the first starts where the previous one ended,
    a + 1.0 (b - a), which can differ from its station in the last bit.
    """
    way = np.asarray(way, dtype=float).reshape(-1, 2)
    sizes = np.asarray(sizes, dtype=int)
    first = np.cumsum(sizes) - sizes  # each path's first leg
    path = np.repeat(np.arange(len(sizes)), sizes)  # each leg's path
    place = np.arange(len(path)) - first[path]  # each leg's place along its path
    a, b = way[np.arange(len(path)) + path], way[np.arange(len(path)) + path + 1]
    for k in range(1, int(sizes.max())):  # the k-th legs of all paths start where their (k-1)-th ended
        kth = np.flatnonzero(place == k)
        a[kth] = a[kth - 1] + (b[kth - 1] - a[kth - 1])
    d = b - a
    n = np.maximum(1, np.ceil(np.hypot(d[:, 0], d[:, 1]) / delta - 1e-12)).astype(int)
    later = (place > 0).astype(int)  # 1 for a leg whose first point is the previous leg's last
    count = n + 1 - later
    stop = np.cumsum(count)
    leg = np.repeat(np.arange(len(n)), count)
    frac = (np.arange(len(leg)) - (stop - count - later)[leg]) * (1.0 / n)[leg] + 0.0
    frac[stop - 1] = 1.0
    pts = a[leg] + frac[:, None] * d[leg]
    return _split(pts, stop[first[1:] - 1])


def _split(pts: np.ndarray, cuts) -> list:
    """pts cut into consecutive pieces before each index of cuts."""
    bounds = [0, *np.asarray(cuts, dtype=int).tolist(), len(pts)]
    return [pts[i:j] for i, j in zip(bounds[:-1], bounds[1:])]


def _path_length(pts: np.ndarray) -> float:
    if len(pts) < 2:
        return 0.0
    return float(np.hypot(*np.diff(pts, axis=0).T).sum())


def _hop_stations(chains, ts: np.ndarray, high_side: np.ndarray, delta: float, u, v) -> list:
    """Intermediate waypoints of the hop from each track ts[k] to the next,
    on the shrunk boundary on its high side when high_side[k], else its low side.

    A straight chord between adjacent track endpoints can clip a chain
    vertex poking into the cell between the two tracks, so the hop
    follows the delta-inset chain instead: one station per chain vertex
    strictly between the tracks keeps every leg on the inset curve.
    Returns one (k, 2) array per hop.
    """
    top_t, _, bot_t, _ = chains
    knots = np.unique(np.concatenate([top_t, bot_t]))
    t_from, t_to = ts[:-1], ts[1:]
    first = np.searchsorted(knots, np.minimum(t_from, t_to) + 1e-12, side="right")
    per_hop = np.maximum(np.searchsorted(knots, np.maximum(t_from, t_to) - 1e-12, side="left") - first, 0)
    hop = np.repeat(np.arange(len(per_hop)), per_hop)
    step = np.arange(len(hop)) - (np.cumsum(per_hop) - per_hop)[hop]  # a station's place in its hop
    at = knots[np.where((t_to < t_from)[hop], (first + per_hop - 1)[hop] - step, first[hop] + step)]
    lo, hi = _span_at(at, chains, delta)
    pts = at[:, None] * u + np.where(high_side[hop], hi, lo)[:, None] * v
    return _split(pts, np.cumsum(per_hop)[:-1])


def lawnmower_cell(cell: Cell, entry_corner: int, delta: float, sweep_dir: float) -> np.ndarray:
    """Boustrophedon waypoints over one cell starting at the given corner.

    Tracks run along the line direction, joined by hops that follow the
    shrunk cell boundary to the next track; waypoints are spaced at most
    delta apart, the first waypoint is the entry corner and the last is
    the far end of the final trackline. All tracks and hops are
    densified in one pass.
    """
    if entry_corner not in (0, 1, 2, 3):
        raise ConfigError(f"entry corner must be 0..3, got {entry_corner}")
    u, v = sweep_frame(sweep_dir)
    chains = _chain_coords(cell, sweep_dir)
    ts = _track_positions(cell, delta)
    if entry_corner in (2, 3):  # enter on the closing side: run tracks backwards
        ts = ts[::-1]
    lo, hi = _span_at(ts, chains, delta)
    up = (np.arange(len(ts)) % 2 == 0) == (entry_corner in (0, 3))  # track runs to high s
    starts = ts[:, None] * u + np.where(up, lo, hi)[:, None] * v
    ends = ts[:, None] * u + np.where(up, hi, lo)[:, None] * v
    stations = _hop_stations(chains, ts, up[:-1], delta, u, v)
    # each track, then its hop from where the densified track ended through
    # the hop's stations to the next track's start
    tracks, turns = np.stack([starts, ends], axis=1), starts + (ends - starts)
    ways, sizes = [tracks[0]], [1]
    for k in range(len(ts) - 1):
        ways += [turns[k : k + 1], stations[k], tracks[k + 1, :1], tracks[k + 1]]
        sizes += [len(stations[k]) + 1, 1]
    pieces = _densify_path(np.concatenate(ways), sizes, delta)
    # a piece's first point is the last one of the piece before
    return np.concatenate([pieces[0], *(piece[1:] for piece in pieces[1:])])


class _Transits:
    """Shortest transits inside one polygon, shared by the transits of one
    plan.

    In a simple polygon a shortest path bends only at reflex vertices, so
    a blocked transit is routed on the visibility graph of those vertices,
    its start and its targets. The graph between reflex vertices is built
    on the first blocked transit, so a plan whose transits are all
    straight never builds it. Which reflex vertices see a target is kept
    per target point, so a later transit to the same target tests none of
    those segments again.
    """

    def __init__(self, poly: Polygon):
        self.poly = poly
        self.seen_by = {}  # target (x, y) -> bool per reflex vertex: the segment stays inside

    @cached_property
    def reflex(self):
        """The reflex vertices, (k, 2), and the index pairs (a, b), a < b,
        of those joined by a segment that stays inside, tested in one batch."""
        v = self.poly.vertices
        before, after = v - np.roll(v, 1, axis=0), np.roll(v, -1, axis=0) - v
        nodes = v[before[:, 0] * after[:, 1] - before[:, 1] * after[:, 0] < 0.0]  # a right turn on the ccw ring
        a, b = np.triu_indices(len(nodes), 1)
        clear = segments_in_polygon(nodes[a], nodes[b], self.poly)
        return nodes, a[clear], b[clear]

    def routes(self, position, targets):
        """Shortest route length from position to each target, inf where
        none stays inside; and the graph's points, the start first, then
        the reflex vertices and the targets, with each point's predecessor
        on its shortest route. The segments from the start, and those into
        targets no earlier transit of the plan tested, are tested in one
        batch, and one Dijkstra search from the start answers every target."""
        nodes, a, b = self.reflex
        k, m = len(nodes), len(targets)
        pts = np.vstack([position, nodes, targets])
        keys = list(map(tuple, targets.tolist()))
        fresh = list(dict.fromkeys(key for key in keys if key not in self.seen_by))
        ends = np.array(fresh, dtype=float).reshape(-1, 2)
        # from the start to every point, then from each reflex vertex to each fresh target
        clear = segments_in_polygon(
            np.vstack([np.repeat(pts[:1], k + m, axis=0), np.repeat(nodes, len(fresh), axis=0)]),
            np.vstack([pts[1:], np.tile(ends, (k, 1))]),
            self.poly,
        )
        self.seen_by.update(zip(fresh, clear[k + m :].reshape(k, len(fresh)).T))
        seen = np.array([self.seen_by[key] for key in keys], dtype=bool).reshape(m, k).T.ravel()
        src = np.concatenate([np.zeros(k + m, dtype=int), np.repeat(np.arange(1, k + 1), m)])
        dst = np.concatenate([np.arange(1, k + m + 1), np.tile(np.arange(k + 1, k + m + 1), k)])
        keep = np.concatenate([clear[: k + m], seen])
        src = np.concatenate([src[keep], a + 1, b + 1])
        dst = np.concatenate([dst[keep], b + 1, a + 1])
        # a coo-built matrix keeps a zero-length edge, say from a start on a reflex vertex
        graph = csr_matrix((np.hypot(*(pts[dst] - pts[src]).T), (src, dst)), shape=(len(pts), len(pts)))
        dist, prev = dijkstra(graph, indices=0, return_predecessors=True)
        return dist[k + 1 :], pts, prev


def plan_transit(position, targets, poly: Polygon, delta: float, transits: _Transits | None = None):
    """Route from `position` to the best of `targets` inside the polygon.

    Takes the straight segment to the euclidean-nearest target when it
    stays inside; otherwise every target is routed on the shortest path
    inside the polygon, and the one of least route length wins, the lowest
    index among those within 1e-12 m of it. Returns (waypoints, chosen
    target index); waypoint spacing never exceeds delta.

    `transits` is shared by the transits of one plan, which then build
    its reflex-vertex graph once.
    """
    pos = np.asarray(position, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    if not len(targets):
        raise ConfigError("plan_transit needs at least one target")
    dists = np.hypot(*(targets - pos).T)
    nearest = int(np.argmin(dists))
    if segment_in_polygon(pos, targets[nearest], poly):
        return _densify_path(np.array([pos, targets[nearest]]), [1], delta)[0], nearest

    lengths, pts, prev = (transits or _Transits(poly)).routes(pos, targets)
    if not np.isfinite(lengths).any():
        raise GeometryError("no transit route reaches any target inside the polygon")
    best = int(np.argmax(lengths <= lengths.min() + 1e-12))
    path = [len(pts) - len(targets) + best]
    while path[-1]:
        path.append(int(prev[path[-1]]))
    return _densify_path(pts[path[::-1]], [len(path) - 1], delta)[0], best


def plan_coverage(poly: Polygon, start, delta: float, sweep_dir: float) -> PathPlan:
    """Full coverage plan: partition, then greedily hop to the nearest
    reachable shrunk-cell corner and mow that cell until none remain.

    Cells narrower than the track spacing after shrinking are skipped
    with a warning and listed on the returned plan.
    """
    cells = partition_monotone(poly, delta, sweep_dir)
    pos = np.asarray(start, dtype=float)
    if not point_in_polygon(pos, poly):
        raise GeometryError(f"coverage start {tuple(pos)} lies outside the polygon")

    corner_sets: dict = {}
    skipped = []
    for cell in cells:
        try:
            corner_sets[cell.index] = shrink_corners(cell, delta, sweep_dir)
        except GeometryError as exc:
            warnings.warn(f"skipping cell {cell.index}: {exc}")
            skipped.append(cell.index)

    transits = _Transits(poly)
    by_cell = {c.index: c for c in cells}
    segments = []
    remaining = dict(sorted(corner_sets.items()))
    while remaining:
        flat = [(idx, ci) for idx in remaining for ci in range(4)]
        way, choice = plan_transit(pos, [remaining[idx][ci] for idx, ci in flat], poly, delta, transits=transits)
        cell_idx, corner_idx = flat[choice]
        segments.append(PathSegment("transit", way, cell_index=cell_idx))
        mow = lawnmower_cell(by_cell[cell_idx], corner_idx, delta, sweep_dir)
        segments.append(PathSegment("lawnmower", mow, cell_index=cell_idx))
        pos = mow[-1]
        del remaining[cell_idx]
    return PathPlan(segments=segments, cells=cells, delta=delta, sweep_dir=sweep_dir, skipped_cells=skipped)

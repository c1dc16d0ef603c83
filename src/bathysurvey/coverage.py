"""Monotone decomposition of a survey polygon and lawnmower path planning.

A sweep direction splits the plane into sweep coordinate t (along the
sweep bearing) and line coordinate s (along sweep bearing + pi/2). Sweep
lines are laid on a global grid of spacing delta anchored at the
polygon's sweep minimum; whenever the number of polygon crossings
changes between consecutive lines, every open cell is closed with the
previous line's crossings and new cells open on the current line. Each
resulting cell is monotone along the sweep, so any line orthogonal to
the sweep crosses it at most twice.

Tracklines sit on the global grid, which keeps spacing exactly delta
across interior cell interfaces. Only at the polygon's own sweep
extremes are tracks inset: the first track one delta inside the hull,
the last on the largest grid position at least delta/2 short of it, so
every point of the delta-inset polygon stays within delta/2 of a track.
Track endpoints shrink by delta along the line direction to stand off
the hull sideways.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import files
from .errors import ConfigError, GeometryError
from .geometry import (
    Polygon,
    bearing_to_unit,
    nearest_boundary_point,
    point_in_polygon,
    points_in_polygon,
    ray_cross_polygon,
    segment_in_polygon,
    segments_in_polygon,
    trace_boundary,
)

#: relative nudge applied to sweep lines that would pass through a vertex
_VERTEX_NUDGE = 1e-9
#: relative slack when snapping trackline positions onto the sweep grid
_GRID_SNAP = 1e-7


def sweep_frame(sweep_dir: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (u, v): u along the sweep bearing, v along the line bearing."""
    u = bearing_to_unit(sweep_dir)
    v = bearing_to_unit(sweep_dir + math.pi / 2)
    return u, v


@dataclass(frozen=True)
class Cell:
    """One sweep-monotone cell.

    corners are ordered 0 = opening/low-s, 1 = opening/high-s,
    2 = closing/high-s, 3 = closing/low-s, i.e. clockwise from the
    bottom left when the sweep axis points right. boundary is the closed
    outline (first point not repeated); top_chain and bottom_chain are
    the two boundary chains ordered by increasing sweep coordinate.
    opens_at_min / closes_at_max mark cells touching the polygon's own
    sweep extremes; grid_origin is the global sweep minimum anchoring
    the trackline grid.
    """

    index: int
    corners: np.ndarray
    boundary: np.ndarray
    top_chain: np.ndarray
    bottom_chain: np.ndarray
    t_open: float
    t_close: float
    opens_at_min: bool
    closes_at_max: bool
    grid_origin: float

    def outline(self) -> Polygon:
        return Polygon(self.boundary)


@dataclass(frozen=True)
class SweepRecord:
    """Diagnostic record of one polygon sweep: line positions and crossings."""

    sweep_dir: float
    delta: float
    t_origin: float
    ts: np.ndarray
    crossings: list
    counts: np.ndarray


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

    def save_csv(self, path) -> None:
        pts, labels = self._flat()
        rows = ((i, x, y, lab) for i, ((x, y), lab) in enumerate(zip(pts, labels)))
        files.write_text(path, files.csv_text("index,x,y,label", rows, "iffs"))

    def save_geojson(self, path) -> None:
        doc = {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[float(x), float(y)] for x, y in self.waypoints],
            },
            "properties": {
                "delta": self.delta,
                "sweep_dir": self.sweep_dir,
                "total_length": self.total_length,
                "transit_length": self.transit_length,
            },
        }
        files.write_json(path, doc)


def cells_to_geojson(cells, path) -> None:
    features = []
    for cell in cells:
        ring = [[float(x), float(y)] for x, y in cell.boundary]
        if ring:
            ring.append(ring[0])
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {
                    "index": cell.index,
                    "t_open": cell.t_open,
                    "t_close": cell.t_close,
                    "opens_at_min": cell.opens_at_min,
                    "closes_at_max": cell.closes_at_max,
                },
            }
        )
    files.write_json(path, {"type": "FeatureCollection", "features": features})


def _check_sweep_args(delta: float, sweep_dir: float) -> None:
    if not math.isfinite(delta) or delta <= 0.0:
        raise ConfigError(f"track spacing must be a positive number, got {delta}")
    if not -math.pi / 2 <= sweep_dir < math.pi / 2:
        raise ConfigError(f"sweep direction must lie in [-pi/2, pi/2), got {sweep_dir}")


def _line_crossings(poly: Polygon, t: float, u: np.ndarray, v: np.ndarray, s_lo: float, pad: float):
    """s-sorted crossing points of the sweep line at coordinate t."""
    origin = t * u + (s_lo - pad) * v
    bearing = math.atan2(v[0], v[1])
    return ray_cross_polygon(origin, bearing, poly)


def sweep_polygon(poly: Polygon, delta: float, sweep_dir: float) -> SweepRecord:
    """Cast the global grid of sweep lines across the polygon.

    Lines sit at t_origin + k * delta plus one final line at the sweep
    maximum. Lines that would pass exactly through a vertex are nudged
    forward by 1e-9 * delta, except the final line which is nudged
    backward so the closing crossings stay inside. A line with an odd
    crossing count, a residual tangency, is re-nudged up to three times.
    """
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
        final = i == len(ts) - 1
        step = -nudge if final else nudge
        if np.any(np.abs(vt - t) <= nudge):
            t += step
        pts = _line_crossings(poly, t, u, v, s_lo, pad)
        tries = 0
        while len(pts) % 2 == 1 and tries < 3:  # tangency survived the nudge
            t += step
            pts = _line_crossings(poly, t, u, v, s_lo, pad)
            tries += 1
        if len(pts) % 2 == 1:
            raise GeometryError(f"sweep line at t={t} crosses the polygon an odd number of times")
        out_ts.append(t)
        crossings.append(pts)
    counts = np.array([len(c) for c in crossings])
    return SweepRecord(sweep_dir, delta, t_min, np.asarray(out_ts), crossings, counts)


def partition_monotone(poly: Polygon, delta: float, sweep_dir: float):
    """Split the polygon into sweep-monotone cells.

    Returns (cells, sweep record). Cells are indexed in opening order,
    bottom to top within one sweep line. A crossing-count change closes
    all open cells in that same order using the previous line's
    crossings; cells still open after the last line close on it. The
    strip between an event line and its predecessor, narrower than
    delta, belongs to no cell.
    """
    record = sweep_polygon(poly, delta, sweep_dir)

    cells = []
    open_cells: list = []
    next_index = 0
    prev_t: float | None = None
    prev_cross = np.empty((0, 2))

    def close_all(t_close: float, cross: np.ndarray, at_max: bool) -> None:
        if len(cross) != 2 * len(open_cells):
            raise GeometryError("sweep crossing bookkeeping lost a cell; polygon too irregular")
        for k, oc in enumerate(open_cells):
            c3, c2 = cross[2 * k], cross[2 * k + 1]
            corners = np.asarray([oc["c0"], oc["c1"], c2, c3], dtype=float)
            top_interior = trace_boundary(corners[1], corners[2], poly)
            bottom_interior = trace_boundary(corners[3], corners[0], poly)
            boundary = np.asarray(
                [corners[0], corners[1], *top_interior, corners[2], corners[3], *bottom_interior],
                dtype=float,
            )
            cells.append(
                Cell(
                    index=oc["index"],
                    corners=corners,
                    boundary=boundary,
                    top_chain=np.asarray([corners[1], *top_interior, corners[2]], dtype=float),
                    bottom_chain=np.asarray([corners[0], *bottom_interior[::-1], corners[3]], dtype=float),
                    t_open=oc["t_open"],
                    t_close=t_close,
                    opens_at_min=oc["opens_at_min"],
                    closes_at_max=at_max,
                    grid_origin=record.t_origin,
                )
            )

    for i, (t, cross) in enumerate(zip(record.ts, record.crossings)):
        if len(cross) != len(prev_cross):
            if open_cells:
                close_all(float(prev_t), prev_cross, at_max=False)
                open_cells = []
            for j in range(len(cross) // 2):
                open_cells.append(
                    {
                        "index": next_index,
                        "t_open": float(t),
                        "c0": cross[2 * j],
                        "c1": cross[2 * j + 1],
                        "opens_at_min": i == 0,
                    }
                )
                next_index += 1
        prev_t, prev_cross = t, cross

    if open_cells:
        close_all(float(prev_t), prev_cross, at_max=True)
    cells.sort(key=lambda c: c.index)
    return cells, record


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
        if span >= delta * (1.0 - _VERTEX_NUDGE):  # room for a single centered track
            return np.array([0.5 * (cell.t_open + cell.t_close)])
        raise GeometryError(
            f"cell {cell.index} spans {span:.6g} along the sweep, narrower than the track spacing"
        )
    return cell.grid_origin + delta * np.arange(k0, k1 + 1)


def _chain_coords(cell: Cell, sweep_dir: float):
    """Sweep-frame coordinates of the cell's two monotone chains."""
    u, v = sweep_frame(sweep_dir)
    return cell.top_chain @ u, cell.top_chain @ v, cell.bottom_chain @ u, cell.bottom_chain @ v


def _span_at(t: float, chains, delta: float) -> tuple:
    """Shrunk s-interval of the cell at sweep coordinate t.

    The monotone chains give the outline's s-extent by linear
    interpolation; both ends pull in by delta, and a span too narrow to
    shrink collapses to its midpoint.
    """
    top_t, top_s, bot_t, bot_s = chains
    s_hi = float(np.interp(t, top_t, top_s))
    s_lo = float(np.interp(t, bot_t, bot_s))
    a, b = s_lo + delta, s_hi - delta
    if a > b:
        a = b = 0.5 * (s_lo + s_hi)
    return a, b


def _cell_track_geometry(cell: Cell, delta: float, sweep_dir: float):
    """Trackline sweep positions and shrunk s-intervals for one cell."""
    chains = _chain_coords(cell, sweep_dir)
    ts = _track_positions(cell, delta)
    spans = [_span_at(float(t), chains, delta) for t in ts]
    return ts, spans


def shrink_corners(cell: Cell, delta: float, sweep_dir: float) -> np.ndarray:
    """Corner points of the shrunk cell: endpoints of the first and last
    tracklines, indexed like the cell corners."""
    u, v = sweep_frame(sweep_dir)
    ts, spans = _cell_track_geometry(cell, delta, sweep_dir)
    (a0, b0), (a1, b1) = spans[0], spans[-1]
    t0, t1 = float(ts[0]), float(ts[-1])
    return np.asarray(
        [
            t0 * u + a0 * v,
            t0 * u + b0 * v,
            t1 * u + b1 * v,
            t1 * u + a1 * v,
        ]
    )


def _densify(a, b, delta: float) -> np.ndarray:
    """Evenly spaced points from a to b inclusive, spacing at most delta."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dist = float(np.hypot(*(b - a)))
    n = max(1, math.ceil(dist / delta - 1e-12))
    frac = np.linspace(0.0, 1.0, n + 1)[:, None]
    return a + frac * (b - a)


def _densify_path(start, stations, delta: float) -> np.ndarray:
    """Polyline from start through each station in turn, spacing at most
    delta; each leg starts at the point where the previous one ended."""
    way = [np.asarray(start, dtype=float)]
    for station in stations:
        way.extend(_densify(way[-1], station, delta)[1:])
    return np.asarray(way, dtype=float).reshape(-1, 2)


def _path_length(pts: np.ndarray) -> float:
    if len(pts) < 2:
        return 0.0
    return float(np.hypot(*np.diff(pts, axis=0).T).sum())


def _hop_stations(chains, t_from: float, t_to: float, high_side: bool, delta: float, u, v) -> list:
    """Intermediate hop waypoints on the shrunk boundary between tracks.

    A straight chord between adjacent track endpoints can clip a notch
    vertex poking into the cell between two sweep lines, so the hop
    follows the delta-inset chain instead: one station per chain vertex
    strictly between the tracks keeps every leg on the inset curve.
    """
    top_t, _, bot_t, _ = chains
    lo, hi = (t_from, t_to) if t_from < t_to else (t_to, t_from)
    ts = np.unique(np.concatenate([top_t, bot_t]))
    ts = ts[(ts > lo + 1e-12) & (ts < hi - 1e-12)]
    if t_to < t_from:
        ts = ts[::-1]
    out = []
    for t in ts:
        a, b = _span_at(float(t), chains, delta)
        s = b if high_side else a
        out.append(float(t) * u + s * v)
    return out


def _clamp_to_cell(points: list, outline: Polygon) -> list:
    """Pull waypoints that left the cell back onto its outline.

    The boundary may double back on itself by less than the grid spacing
    between two sweep lines; such a notch is below the partition's
    resolution, so the chains misread it and a hop leg can stray. Any
    stray point hugs the outline instead, which lies on or inside the
    survey polygon.
    """
    inside = points_in_polygon(np.asarray(points, dtype=float).reshape(-1, 2), outline)
    return [p if ok else nearest_boundary_point(p, outline) for p, ok in zip(points, inside)]


def lawnmower_cell(cell: Cell, entry_corner: int, delta: float, sweep_dir: float) -> np.ndarray:
    """Boustrophedon waypoints over one cell starting at the given corner.

    Tracks run along the line direction, joined by hops that follow the
    shrunk cell boundary to the next track; waypoints are spaced at most
    delta apart, the first waypoint is the entry corner and the last is
    the far end of the final trackline.
    """
    if entry_corner not in (0, 1, 2, 3):
        raise ConfigError(f"entry corner must be 0..3, got {entry_corner}")
    u, v = sweep_frame(sweep_dir)
    chains = _chain_coords(cell, sweep_dir)
    # built on first hop only: a single-track cell can be thinner than the
    # distinct-vertex tolerance and has no hop legs to clamp anyway
    outline: Polygon | None = None
    ts, spans = _cell_track_geometry(cell, delta, sweep_dir)
    if entry_corner in (2, 3):  # enter on the closing side: run tracks backwards
        ts = ts[::-1]
        spans = spans[::-1]
    low_first = entry_corner in (0, 3)

    pts: list = []
    for i, (t, (a, b)) in enumerate(zip(ts, spans)):
        s_from, s_to = (a, b) if (i % 2 == 0) == low_first else (b, a)
        track = _densify(t * u + s_from * v, t * u + s_to * v, delta)
        if pts:
            high_side = ((i - 1) % 2 == 0) == low_first  # side the last track ended on
            stations = _hop_stations(chains, float(ts[i - 1]), float(t), high_side, delta, u, v)
            if outline is None:
                outline = cell.outline()
            hop = _clamp_to_cell(_densify_path(pts[-1], [*stations, track[0]], delta)[1:], outline)
            # clamping can collapse neighbours onto one outline vertex;
            # a duplicated waypoint would read as a zero-length trackline
            for q in hop[:-1]:
                if np.hypot(*(q - pts[-1])) > 1e-9:
                    pts.append(q)
            pts.append(hop[-1])
            pts.extend(track[1:])
        else:
            pts.extend(track)
    return np.asarray(pts, dtype=float).reshape(-1, 2)


class _TransitGrid:
    """A* workspace on a delta grid aligned with the sweep frame.

    Construction fixes only the frame and the grid shape. The nodes that
    fall inside the polygon, their world coordinates and the clearance of
    every edge between them are built on first need, so a plan whose
    transits are all straight never builds them; the edge clearances come
    from one batched containment pass.
    """

    def __init__(self, poly: Polygon, delta: float, sweep_dir: float):
        self.poly = poly
        self.delta = delta
        self.u, self.v = sweep_frame(sweep_dir)
        vt = poly.vertices @ self.u
        vs = poly.vertices @ self.v
        self.t0, self.s0 = float(vt.min()), float(vs.min())
        nt = int(math.floor((float(vt.max()) - self.t0) / delta)) + 1
        ns = int(math.floor((float(vs.max()) - self.s0) / delta)) + 1
        self.shape = (nt, ns)

    def to_world(self, ij) -> np.ndarray:
        ij = np.asarray(ij, dtype=float)
        t = self.t0 + ij[..., 0] * self.delta
        s = self.s0 + ij[..., 1] * self.delta
        return t[..., None] * self.u + s[..., None] * self.v

    @cached_property
    def _node_list(self) -> list:
        """Grid index pairs inside the polygon, in ascending order."""
        nt, ns = self.shape
        ij = np.stack(np.meshgrid(np.arange(nt), np.arange(ns), indexing="ij"), axis=-1).reshape(-1, 2)
        inside = points_in_polygon(self.to_world(ij), self.poly)
        return [tuple(int(c) for c in p) for p in ij[inside]]

    @cached_property
    def nodes(self) -> dict:
        """Each inside node mapped to its position in _node_list."""
        return {n: k for k, n in enumerate(self._node_list)}

    @cached_property
    def _world(self) -> np.ndarray:
        """World coordinates of the nodes, row k for _node_list[k]."""
        return self.to_world(np.asarray(self._node_list, dtype=float).reshape(-1, 2))

    @cached_property
    def edges(self) -> dict:
        """Clearance of every edge between neighbouring inside nodes.

        Keyed (low, high) in tuple order: each edge from its low node
        through segments_in_polygon at step delta/3, as reachable_node
        tests its lines of sight.
        """
        nt, ns = self.shape
        ij = np.asarray(self._node_list, dtype=int).reshape(-1, 2)
        row = np.full(self.shape, -1)
        row[ij[:, 0], ij[:, 1]] = np.arange(len(ij))
        lows, highs = [], []
        for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):  # the neighbours above a node in tuple order
            ni, nj = ij[:, 0] + di, ij[:, 1] + dj
            on_grid = np.flatnonzero((ni < nt) & (nj >= 0) & (nj < ns))
            nb = row[ni[on_grid], nj[on_grid]]
            lows.append(on_grid[nb >= 0])
            highs.append(nb[nb >= 0])
        lo, hi = np.concatenate(lows), np.concatenate(highs)
        clear = segments_in_polygon(self._world[lo], self._world[hi], self.poly, self.delta / 3.0)
        node_at = self._node_list
        return {(node_at[a], node_at[b]): ok for a, b, ok in zip(lo.tolist(), hi.tolist(), clear.tolist())}

    def reachable_node(self, point) -> tuple | None:
        """Closest node whose straight segment from `point` stays inside.

        The nearest node can sit across a notch of a nonconvex polygon,
        so candidates are tried in distance order until one has a clear
        line of sight; None when no node does.
        """
        if not self._node_list:
            raise GeometryError("no transit grid nodes fall inside the polygon")
        p = np.asarray(point, dtype=float)
        world = self._world
        order = np.argsort(np.hypot(*(world - p).T), kind="stable")
        for k in order:
            if segment_in_polygon(p, world[int(k)], self.poly, step=self.delta / 3.0):
                return self._node_list[int(k)]
        return None

    def astar(self, start: tuple, goal: tuple):
        """Shortest 8-connected path between grid nodes, or None.

        Euclidean step costs with the straight-line heuristic; ties in
        priority break on the node index pair, keeping results
        deterministic.
        """
        if start not in self.nodes or goal not in self.nodes:
            return None
        nodes, edges, world = self.nodes, self.edges, self._world
        h = np.hypot(*(world - world[nodes[goal]]).T).tolist()
        moves = [
            (di, dj, self.delta * (math.sqrt(2.0) if di and dj else 1.0))
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if di or dj
        ]

        open_q = [(h[nodes[start]], start)]
        g_cost = {start: 0.0}
        came: dict = {}
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


def plan_transit(position, targets, poly: Polygon, delta: float, grid: _TransitGrid | None = None):
    """Route from `position` to the best of `targets` inside the polygon.

    Tries the straight segment to the euclidean-nearest target first;
    when that leaves the polygon, targets are routed by A* on the delta
    grid in order of straight-line distance, and the shortest realized
    path wins, ties within 1e-12 m broken by target order. A route is
    never shorter than its straight line, so routing stops at the first
    target whose straight-line distance exceeds the best route so far:
    neither it nor any later target can win, and the result is that of
    routing to every target. Returns (waypoints, chosen target index);
    waypoint spacing never exceeds delta.

    `grid` is shared by the transits of one plan. Its nodes and edge
    clearances are built on the first transit that is not straight, the
    clearances of all edges in one pass, and reused by later ones; a
    plan whose transits are all straight never builds them.
    """
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
    routes = {}
    shortest = math.inf
    for i in sorted(range(len(targets)), key=lambda i: (dists[i], i)):
        # no route is shorter than its straight line (1e-9 m covers the
        # rounding of its summed legs): this target and all after it lose
        if dists[i] > shortest + 1e-9:
            break
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
        routes[i] = (length, way)
        shortest = min(shortest, length)
    best = None
    for i in sorted(routes):  # in target order, as if every target were routed
        length, way = routes[i]
        if best is None or length < best[0] - 1e-12:
            best = (length, way, i)
    if best is None:
        raise GeometryError("no transit route reaches any target inside the polygon")
    return best[1], best[2]


def plan_coverage(poly: Polygon, start, delta: float, sweep_dir: float) -> PathPlan:
    """Full coverage plan: partition, then greedily hop to the nearest
    reachable shrunk-cell corner and mow that cell until none remain.

    Cells narrower than the track spacing after shrinking are skipped
    with a warning and listed on the returned plan.
    """
    _check_sweep_args(delta, sweep_dir)
    cells, _ = partition_monotone(poly, delta, sweep_dir)
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

    grid = _TransitGrid(poly, delta, sweep_dir)
    by_cell = {c.index: c for c in cells}
    segments = []
    remaining = dict(sorted(corner_sets.items()))
    while remaining:
        flat = [(idx, ci) for idx in remaining for ci in range(4)]
        way, choice = plan_transit(pos, [remaining[idx][ci] for idx, ci in flat], poly, delta, grid=grid)
        cell_idx, corner_idx = flat[choice]
        segments.append(PathSegment("transit", way, cell_index=cell_idx))
        mow = lawnmower_cell(by_cell[cell_idx], corner_idx, delta, sweep_dir)
        segments.append(PathSegment("lawnmower", mow, cell_index=cell_idx))
        pos = mow[-1]
        del remaining[cell_idx]
    return PathPlan(segments=segments, cells=cells, delta=delta, sweep_dir=sweep_dir, skipped_cells=skipped)

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
    nearest_boundary_points,
    point_in_polygon,
    points_in_polygon,
    rays_cross_polygon,
    segment_in_polygon,
    segments_in_polygon,
    vertices_between,
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
    """One sweep-monotone cell, stored as its two boundary chains.

    top_chain (high s) and bottom_chain (low s) each run by increasing
    sweep coordinate from the opening line to the closing line.
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
class SweepRecord:
    """Diagnostic record of one polygon sweep: line positions, crossings
    and the edge each crossing lies on."""

    sweep_dir: float
    delta: float
    t_origin: float
    ts: np.ndarray
    crossings: list
    edges: list
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


def sweep_polygon(poly: Polygon, delta: float, sweep_dir: float) -> SweepRecord:
    """Cast the global grid of sweep lines across the polygon.

    Lines sit at t_origin + k * delta plus one final line at the sweep
    maximum. Lines that would pass exactly through a vertex are nudged
    forward by 1e-9 * delta, except the final line which is nudged
    backward so the closing crossings stay inside. Every line is cast in
    one array pass; a line with an odd crossing count, a residual
    tangency, is re-nudged and cast on its own up to three times.
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
    ts = np.asarray(ts)
    steps = np.full(len(ts), nudge)
    steps[-1] = -nudge
    ts = np.where((np.abs(vt - ts[:, None]) <= nudge).any(axis=1), ts + steps, ts)

    bearing = math.atan2(v[0], v[1])

    def cast(lines):  # s-sorted crossing points of the sweep lines at these t, and their edges
        return rays_cross_polygon(lines[:, None] * u + (s_lo - pad) * v, bearing, poly)

    crossings, edges = cast(ts)
    for i in np.flatnonzero([len(c) % 2 for c in crossings]):
        tries = 0
        while len(crossings[i]) % 2 == 1 and tries < 3:  # tangency survived the nudge
            ts[i] += steps[i]
            (crossings[i],), (edges[i],) = cast(ts[i : i + 1])
            tries += 1
        if len(crossings[i]) % 2 == 1:
            raise GeometryError(f"sweep line at t={ts[i]} crosses the polygon an odd number of times")
    counts = np.array([len(c) for c in crossings])
    return SweepRecord(sweep_dir, delta, t_min, ts, crossings, edges, counts)


def partition_monotone(poly: Polygon, delta: float, sweep_dir: float):
    """Split the polygon into sweep-monotone cells.

    Returns (cells, sweep record). Cells are indexed in opening order,
    bottom to top within one sweep line. Each run of consecutive lines
    with one crossing count holds one cell per pair of crossings, open
    from the run's first line to its last, so a crossing-count change
    closes every open cell on the line before it. The strip between an
    event line and its predecessor, narrower than delta, belongs to no
    cell. A cell's chain walks the polygon's vertices from the edge of
    its opening crossing to the edge of its closing one.
    """
    record = sweep_polygon(poly, delta, sweep_dir)
    ts, crossings, edges = record.ts, record.crossings, record.edges
    # runs of lines with one crossing count, from line a to line b
    firsts = np.flatnonzero(np.diff(record.counts, prepend=-1)).tolist()
    lasts = [i - 1 for i in firsts[1:]] + [len(ts) - 1]

    def chain(p, e, q, f):  # the boundary from p on edge e ccw to q on edge f
        return np.concatenate([[p], vertices_between(poly, p, e, q, f), [q]])

    cells = []
    for a, b in zip(firsts, lasts):
        for j in range(0, len(crossings[a]), 2):
            (c0, c1), (e0, e1) = crossings[a][j : j + 2], edges[a][j : j + 2]
            (c3, c2), (e3, e2) = crossings[b][j : j + 2], edges[b][j : j + 2]
            # the bottom chain is copied out of its reversed view: a matrix
            # product over a view can round otherwise
            cells.append(
                Cell(
                    index=len(cells),
                    top_chain=chain(c1, e1, c2, e2),
                    bottom_chain=chain(c3, e3, c0, e0)[::-1].copy(),
                    t_open=float(ts[a]),
                    t_close=float(ts[b]),
                    opens_at_min=a == 0,
                    closes_at_max=b == len(ts) - 1,
                    grid_origin=record.t_origin,
                )
            )
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
    xy = np.asarray(way, dtype=float).reshape(-1, 2).tolist()
    legs, later, firsts, k = [], [], [], 0
    for size in sizes:
        firsts.append(len(legs))
        x, y = xy[k]
        for bx, by in xy[k + 1 : k + 1 + size]:
            legs.append((x, y, bx - x, by - y))
            later.append(len(legs) > firsts[-1] + 1)
            x, y = x + (bx - x), y + (by - y)
        k += 1 + size
    legs = np.asarray(legs, dtype=float).reshape(-1, 4)
    n = np.maximum(1, np.ceil(np.hypot(legs[:, 2], legs[:, 3]) / delta - 1e-12)).astype(int)
    later = np.asarray(later, dtype=int)  # 1 for a leg whose first point is the previous leg's last
    count = n + 1 - later
    stop = np.cumsum(count)
    leg = np.repeat(np.arange(len(n)), count)
    frac = (np.arange(len(leg)) - (stop - count - later)[leg]) * (1.0 / n)[leg] + 0.0
    frac[stop - 1] = 1.0
    ad = legs[leg]
    pts = ad[:, :2] + frac[:, None] * ad[:, 2:]
    return _split(pts, stop[np.asarray(firsts[1:], dtype=int) - 1])


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

    A straight chord between adjacent track endpoints can clip a notch
    vertex poking into the cell between two sweep lines, so the hop
    follows the delta-inset chain instead: one station per chain vertex
    strictly between the tracks keeps every leg on the inset curve.
    Returns one (k, 2) array per hop.
    """
    top_t, _, bot_t, _ = chains
    knots = np.unique(np.concatenate([top_t, bot_t]))
    t_from, t_to = ts[:-1], ts[1:]
    first = np.searchsorted(knots, np.minimum(t_from, t_to) + 1e-12, side="right")
    stop = np.searchsorted(knots, np.maximum(t_from, t_to) - 1e-12, side="left")
    at, side, per_hop = [], [], []
    for k, (i, j) in enumerate(zip(first.tolist(), stop.tolist())):
        between = knots[i:j].tolist()
        if t_to[k] < t_from[k]:
            between.reverse()
        for t in between:
            a, b = _span_at(t, chains, delta)
            at.append(t)
            side.append(b if high_side[k] else a)
        per_hop.append(len(between))
    pts = np.asarray(at)[:, None] * u + np.asarray(side)[:, None] * v
    return _split(pts.reshape(-1, 2), np.cumsum(per_hop)[:-1])


def _clamp_to_cell(points: np.ndarray, outline: Polygon) -> np.ndarray:
    """Pull waypoints that left the cell back onto its outline.

    The boundary may double back on itself by less than the grid spacing
    between two sweep lines; such a notch is below the partition's
    resolution, so the chains misread it and a hop leg can stray. Any
    stray point hugs the outline instead, which lies on or inside the
    survey polygon.
    """
    out = points.copy()
    stray = ~points_in_polygon(points, outline)
    out[stray] = nearest_boundary_points(points[stray], outline)[0]
    return out


def _drop_repeats(way: np.ndarray, droppable: np.ndarray) -> np.ndarray:
    """The waypoints without each droppable one that lies within 1e-9 m
    of the last waypoint kept before it."""
    repeat = np.zeros(len(way), dtype=bool)
    repeat[1:] = ~(np.hypot(*np.diff(way, axis=0).T) > 1e-9)
    repeat &= droppable
    if not repeat.any():
        return way
    # once one is dropped, the last kept point is no longer the previous one
    keep = np.ones(len(way), dtype=bool)
    last = int(np.argmax(repeat)) - 1
    for i in range(last + 1, len(way)):
        if droppable[i] and not np.hypot(*(way[i] - way[last])) > 1e-9:
            keep[i] = False
        else:
            last = i
    return way[keep]


def lawnmower_cell(cell: Cell, entry_corner: int, delta: float, sweep_dir: float) -> np.ndarray:
    """Boustrophedon waypoints over one cell starting at the given corner.

    Tracks run along the line direction, joined by hops that follow the
    shrunk cell boundary to the next track; waypoints are spaced at most
    delta apart, the first waypoint is the entry corner and the last is
    the far end of the final trackline. All tracks, then all hops, are
    densified in one pass each, and all hop points clamped in one.
    """
    if entry_corner not in (0, 1, 2, 3):
        raise ConfigError(f"entry corner must be 0..3, got {entry_corner}")
    u, v = sweep_frame(sweep_dir)
    ts, spans = _cell_track_geometry(cell, delta, sweep_dir)
    if entry_corner in (2, 3):  # enter on the closing side: run tracks backwards
        ts = ts[::-1]
        spans = spans[::-1]
    lo, hi = np.asarray(spans, dtype=float).T
    up = (np.arange(len(ts)) % 2 == 0) == (entry_corner in (0, 3))  # track runs to high s
    starts = ts[:, None] * u + np.where(up, lo, hi)[:, None] * v
    ends = ts[:, None] * u + np.where(up, hi, lo)[:, None] * v
    tracks = _densify_path(np.stack([starts, ends], axis=1), [1] * len(ts), delta)
    if len(tracks) == 1:  # no hop; such a cell can be thinner than the distinct-vertex tolerance of its outline
        return tracks[0]
    stations = _hop_stations(_chain_coords(cell, sweep_dir), ts, up[:-1], delta, u, v)
    # each hop runs from where one track ended through its stations to the next track's first point
    hop_ways = [part for prev, st, nxt in zip(tracks, stations, tracks[1:]) for part in (prev[-1:], st, nxt[:1])]
    hops = _densify_path(np.concatenate(hop_ways), [len(st) + 1 for st in stations], delta)
    parts = [tracks[0]]
    for hop, track in zip(hops, tracks[1:]):
        parts += [hop[1:], track[1:]]  # the hop's last point stands in for the track's first
    sizes = [len(part) for part in parts]
    on_hop = np.repeat(np.arange(len(parts)) % 2 == 1, sizes)
    way = np.concatenate(parts)
    way[on_hop] = _clamp_to_cell(way[on_hop], cell.outline())
    # clamping can collapse neighbours onto one outline vertex; a
    # duplicated waypoint would read as a zero-length trackline. A hop's
    # last point stays: it starts the next track.
    droppable = on_hop.copy()
    droppable[np.cumsum(sizes)[1::2] - 1] = False
    return _drop_repeats(way, droppable)


#: the eight moves from a transit-grid node, in the order A* relaxes
#: them; move 7 - k undoes move k, and moves 4 to 7 lead to the nodes
#: above in (i, j) order
_MOVES = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
#: an edge whose low node lies farther than this many spacings from the
#: boundary is clear without sampling: every sample lies within sqrt(2)
#: spacings of that node, and the rest is margin for rounding
_SURE_CLEAR = 2.0


class _TransitGrid:
    """A* workspace on a delta grid aligned with the sweep frame.

    Construction fixes only the frame and the grid shape. The nodes that
    fall inside the polygon, their world coordinates and the neighbour
    table are built on first need, so a plan whose transits are all
    straight never builds them. A node's id is its row in `ij`, whose
    index pairs ascend in (i, j) order, so ids order like the pairs.
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
    def ij(self) -> np.ndarray:
        """(N, 2) grid index pairs of the nodes inside the polygon, ascending."""
        nt, ns = self.shape
        ij = np.stack(np.meshgrid(np.arange(nt), np.arange(ns), indexing="ij"), axis=-1).reshape(-1, 2)
        return ij[points_in_polygon(self.to_world(ij), self.poly)]

    @cached_property
    def world(self) -> np.ndarray:
        """World coordinates of the nodes, row k for node k."""
        return self.to_world(self.ij)

    @cached_property
    def neighbours(self) -> list:
        """The (N, 8) neighbour table as nested lists, which A* reads
        fastest: per node, per move of _MOVES, the neighbour's id when
        the edge to it is clear, else -1.

        Each edge is decided once, from its low node: clear when that
        node lies farther than _SURE_CLEAR spacings from the boundary,
        else by segments_in_polygon at step delta/3, as reachable_node
        tests its lines of sight.
        """
        nt, ns = self.shape
        ij = self.ij
        row = np.full(self.shape, -1)
        row[ij[:, 0], ij[:, 1]] = np.arange(len(ij))
        lows, highs = [], []
        for di, dj in _MOVES[4:]:
            ni, nj = ij[:, 0] + di, ij[:, 1] + dj
            on_grid = np.flatnonzero((ni < nt) & (nj >= 0) & (nj < ns))
            nb = row[ni[on_grid], nj[on_grid]]
            lows.append(on_grid[nb >= 0])
            highs.append(nb[nb >= 0])
        lo, hi = np.concatenate(lows), np.concatenate(highs)
        move = np.repeat(np.arange(4, 8), [len(h) for h in highs])
        clear = (nearest_boundary_points(self.world, self.poly)[1] > _SURE_CLEAR * self.delta)[lo]
        near = np.flatnonzero(~clear)
        clear[near] = segments_in_polygon(self.world[lo[near]], self.world[hi[near]], self.poly, self.delta / 3.0)
        table = np.full((len(ij), 8), -1)
        table[lo[clear], move[clear]] = hi[clear]
        table[hi[clear], 7 - move[clear]] = lo[clear]
        return table.tolist()

    def reachable_node(self, point) -> int | None:
        """Id of the closest node whose straight segment from `point`
        stays inside.

        The nearest node can sit across a notch of a nonconvex polygon,
        so candidates are tried in distance order until one has a clear
        line of sight; None when no node does. They are tested in chunks
        of 1, 4, 16, ... candidates, and the first clear one in the first
        chunk that has one wins. Every line of sight is sampled at its
        start, so a point outside the polygon has none, and one
        containment test answers for it. A nearest node strictly closer
        to the point than the boundary is in sight untested: its segment
        lies in a disc about the point that no boundary point enters.
        """
        world = self.world
        if not len(world):
            raise GeometryError("no transit grid nodes fall inside the polygon")
        p = np.asarray(point, dtype=float)
        if not points_in_polygon(p[None], self.poly)[0]:
            return None
        dist = np.hypot(*(world - p).T)
        order = np.argsort(dist, kind="stable")
        if dist[order[0]] < nearest_boundary_points(p[None], self.poly)[1][0]:
            return int(order[0])
        lo, size = 0, 1
        while lo < len(order):
            chunk = order[lo : lo + size]
            clear = segments_in_polygon(np.broadcast_to(p, (len(chunk), 2)), world[chunk], self.poly, self.delta / 3.0)
            if clear.any():
                return int(chunk[np.argmax(clear)])
            lo, size = lo + size, 4 * size
        return None

    def astar(self, start: int, goal: int):
        """Shortest 8-connected path between node ids, as a list of ids,
        or None.

        Euclidean step costs with the straight-line heuristic; ties in
        priority break on the node id, that is on the node's index pair,
        keeping results deterministic.
        """
        n = len(self.ij)
        if not (0 <= start < n and 0 <= goal < n):
            return None
        table, world = self.neighbours, self.world
        h = np.hypot(*(world - world[goal]).T).tolist()
        steps = [self.delta * (math.sqrt(2.0) if di and dj else 1.0) for di, dj in _MOVES]

        open_q = [(h[start], start)]
        g_cost = [math.inf] * n
        g_cost[start] = 0.0
        came = [-1] * n
        closed = [False] * n
        while open_q:
            _, node = heapq.heappop(open_q)
            if closed[node]:
                continue
            if node == goal:
                path = [node]
                while came[node] >= 0:
                    node = came[node]
                    path.append(node)
                return path[::-1]
            closed[node] = True
            g = g_cost[node]
            for nb, step in zip(table[node], steps):
                if nb < 0 or closed[nb]:
                    continue
                cand = g + step
                if cand < g_cost[nb] - 1e-12:
                    g_cost[nb] = cand
                    came[nb] = node
                    heapq.heappush(open_q, (cand + h[nb], nb))
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

    `grid` is shared by the transits of one plan. Its nodes and
    neighbour table are built on the first transit that is not straight
    and reused by later ones; a plan whose transits are all straight
    never builds them.
    """
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
        way = _densify_path(np.vstack([pos, grid.world[node_path], targets[i]]), [len(node_path) + 1], delta)[0]
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

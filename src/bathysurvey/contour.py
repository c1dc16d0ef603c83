"""Depth-contour following along a target isobath.

The controller runs one step per control tick and owns a two-mode
state machine: Contour mode searches an arc of candidate headings for
the one whose predicted depth best matches the target; Boundary mode
walks the survey polygon's edges when the contour leaves the region,
rejoining the contour once the water ahead turns shallower than the
target and Contour mode's own waypoint lies inside the polygon. Every
visited position after first contact is appended to the traced
boundary; once it re-approaches its own early points, complete() hands
back the closed loop.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    TWO_PI,
    Arc,
    Polygon,
    bearing_between,
    bearing_to_unit,
    crossed_edge,
    edge_vertex_ahead,
    nearest_boundary_point,
    next_edge,
    normalize_bearing,
    point_in_polygon,
    points_in_polygon,
)

#: fixed number of arc subdivisions searched per tick
ARC_SPLITS = 50


class Mode(str, enum.Enum):
    CONTOUR = "contour"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class Pose:
    """Planar pose; heading is a compass bearing normalized to (-pi, pi]."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "psi", normalize_bearing(self.psi))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class FollowerState:
    mode: Mode = Mode.CONTOUR
    direction: int | None = None  # boundary travel direction, +1 ccw / -1 cw, latched once
    edge: int | None = None
    found_contour: bool = False
    heading_ema: float = 0.0
    trail: np.ndarray = field(default_factory=lambda: np.empty((64, 2)))  # its first `traced` rows are the trace
    traced: int = 0

    @property
    def trace(self) -> np.ndarray:
        """Positions appended after first contact, (n, 2): a view that
        later appends leave as it is."""
        return self.trail[: self.traced]

    def append_trace(self, pos) -> None:
        """Append one position, doubling the trail when it is full."""
        if self.traced == len(self.trail):
            self.trail = np.concatenate([self.trail, np.empty_like(self.trail)])
        self.trail[self.traced] = pos
        self.traced += 1


def ema_heading(psi_prev: float, psi_new: float, dt: float, half_life: float) -> float:
    """Exponential moving average of a heading, blended on unit vectors.

    The blend weight is 1 - 2**(-dt / half_life), so after one half-life
    the old heading retains half its influence. Opposite headings that
    cancel exactly fall back to the new heading.
    """
    if half_life <= 0.0:
        return normalize_bearing(psi_new)
    w = 1.0 - 2.0 ** (-dt / half_life)
    vx = (1.0 - w) * math.sin(psi_prev) + w * math.sin(psi_new)
    vy = (1.0 - w) * math.cos(psi_prev) + w * math.cos(psi_new)
    if math.hypot(vx, vy) < 1e-12:
        return normalize_bearing(psi_new)
    return math.atan2(vx, vy)


def solve_arc_heading(model, target_depth, heading, position, radius, psi_start, psi_end) -> np.ndarray:
    """Pick the waypoint on an arc whose predicted depth best matches the target.

    The arc from psi_start to psi_end (clockwise) is sampled at
    ARC_SPLITS + 1 bearings at distance `radius` from `position` and the
    predicted depths are fetched in one batched model query. Within each
    adjacent sample pair the depth is linearly interpolated for an exact
    target crossing, otherwise the closer endpoint stands. Candidates are
    ranked by depth error, ties broken by angular distance to `heading`.

    Returns the winning Cartesian waypoint at `radius`.
    """
    psi, _ = _ranked_arc(model, target_depth, heading, position, radius, psi_start, psi_end)
    return np.asarray(position, dtype=float) + radius * bearing_to_unit(float(psi[0]))


def _ranked_arc(model, target_depth, heading, position, radius, psi_start, psi_end) -> tuple:
    """The candidate bearings of solve_arc_heading's arc and their depth
    errors, best first in its ranking."""
    arc = Arc((float(position[0]), float(position[1])), float(radius), float(psi_start), float(psi_end))
    psi = arc.bearings(ARC_SPLITS)
    depths = np.asarray(model.predict_mean(arc.points_at(psi)))
    miss = depths - target_depth
    dz = np.abs(miss)
    first = dz[:-1] <= dz[1:]
    cand_psi = np.where(first, psi[:-1], psi[1:])
    z_err = np.where(first, dz[:-1], dz[1:])
    # signs, not the product of the two differences, which can overflow
    sign = np.sign(miss)
    (at,) = np.nonzero(sign[:-1] * sign[1:] < 0.0)  # the pairs the target crosses
    if len(at):
        za, zb, pa, pb = depths[at], depths[at + 1], psi[at], psi[at + 1]
        cand_psi[at] = pa + (target_depth - za) / (zb - za) * (pb - pa)
        z_err[at] = 0.0
    order = np.lexsort((_heading_gaps(cand_psi, heading), z_err))
    return cand_psi[order], z_err[order]


def _heading_gaps(psi: np.ndarray, heading: float) -> np.ndarray:
    """abs(normalize_bearing(p - heading)) for each bearing p, bit for bit,
    in one array pass: np.fmod is exact, as math.remainder is, and the
    one 2 pi step between them is exact too."""
    gap = np.abs(np.fmod(psi - heading, TWO_PI))
    return np.minimum(gap, TWO_PI - gap)


def closure_index(trace, position, loop_buffer: int, closure_radius: float) -> int | None:
    """Traced index where `position` reconnects with its own early trail.

    Ignores the most recent loop_buffer entries and returns the index of
    the eligible point closest to `position` if it lies within
    closure_radius, else None. The closest point, not the first one
    inside the radius: the first hit can sit a full radius back along the
    approach tail, leaving a shallow-side spur on the extracted loop.
    """
    m = len(trace) - int(loop_buffer)
    if m <= 0:
        return None
    pts = np.asarray(trace[:m], dtype=float)
    d = np.hypot(pts[:, 0] - position[0], pts[:, 1] - position[1])
    i = int(np.argmin(d))
    return i if d[i] < closure_radius else None


class ContourFollower:
    """Stateful contour/boundary follower producing one desired heading per tick.

    `config` is the mission's configuration, already validated; the
    follower reads seven of its settings: target_depth, search_radius,
    arc_half_width, depth_tolerance, ema_half_life, loop_buffer and
    closure_radius. A closure_radius of None means 1.5 * search_radius,
    resolved once into self.closure_radius; only complete() reads those two.
    """

    def __init__(self, config, poly: Polygon, model, initial_heading: float = 0.0):
        self.cfg = config
        radius = config.closure_radius
        self.closure_radius = 1.5 * config.search_radius if radius is None else radius
        self.poly = poly
        self.model = model
        self.state = FollowerState(heading_ema=normalize_bearing(initial_heading))

    def step(self, pose: Pose, z_measured: float, dt: float) -> float:
        """Advance the state machine one control tick and return the desired heading.

        `z_measured` is the current sonar depth, used for the
        contour-found tolerance test. Mode transitions strictly
        alternate; the traced boundary only ever grows.
        """
        st, cfg, poly = self.state, self.cfg, self.poly
        pos = pose.position
        if not point_in_polygon(pos, poly):
            warnings.warn(f"pose {tuple(pos)} outside the survey polygon; computing from the nearest boundary point")
            pos = nearest_boundary_point(pos, poly)
        st.heading_ema = ema_heading(st.heading_ema, pose.psi, dt, cfg.ema_half_life)

        if st.mode is Mode.CONTOUR:
            waypoint, inside = self._contour_waypoint(pos)
            if not inside:
                st.mode = Mode.BOUNDARY
                st.edge = crossed_edge(poly, pos, waypoint)
                if st.direction is None:
                    st.direction = self._pick_direction(st.edge)
                waypoint = edge_vertex_ahead(poly, st.edge, st.direction)
        else:
            waypoint = edge_vertex_ahead(poly, st.edge, st.direction)
            if float(np.hypot(*(waypoint - pos))) < cfg.search_radius:
                st.edge = next_edge(poly, st.edge, st.direction)
                waypoint = edge_vertex_ahead(poly, st.edge, st.direction)
            ahead_depth = float(self.model.predict_mean(waypoint)[0])
            if ahead_depth < cfg.target_depth:  # shallower ahead: the contour may re-enter the region
                arc_waypoint, inside = self._contour_waypoint(pos)
                if inside:  # else the next arc search would leave the polygon again
                    st.mode = Mode.CONTOUR
                    waypoint = arc_waypoint

        if not st.found_contour and (
            st.mode is Mode.BOUNDARY or abs(z_measured - cfg.target_depth) < cfg.depth_tolerance
        ):
            st.found_contour = True
        if st.found_contour:
            st.append_trace(pos)
        return bearing_between(pos, waypoint)

    def _contour_waypoint(self, pos) -> tuple:
        """Contour mode's waypoint from `pos`, and whether it lies inside
        the polygon.

        The waypoint is the arc search's winner over the heading EMA
        +- arc_half_width. A winner outside yields to the first candidate
        inside among those tied with it on depth error, in heading order;
        when none is inside, the outside winner is returned.
        """
        cfg, poly = self.cfg, self.poly
        heading, radius = self.state.heading_ema, cfg.search_radius
        psi, z_err = _ranked_arc(
            self.model, cfg.target_depth, heading, pos, radius, heading - cfg.arc_half_width, heading + cfg.arc_half_width
        )
        winner = pos + radius * bearing_to_unit(float(psi[0]))
        if point_in_polygon(winner, poly):
            return winner, True
        tied = psi[1:][z_err[1:] == z_err[0]]
        if len(tied):
            pts = pos + radius * np.column_stack([np.sin(tied), np.cos(tied)])
            inside = np.flatnonzero(points_in_polygon(pts, poly))
            if len(inside):
                return pts[inside[0]], True
        return winner, False

    def _pick_direction(self, edge: int) -> int:
        # head toward whichever edge endpoint sits over deeper predicted water
        ccw = edge_vertex_ahead(self.poly, edge, 1)
        cw = edge_vertex_ahead(self.poly, edge, -1)
        depths = self.model.predict_mean(np.array([ccw, cw]))
        return 1 if depths[0] >= depths[1] else -1

    def complete(self, pose: Pose) -> np.ndarray | None:
        """The closed loop, the view state.trace[idx:] from the closure
        point idx on, once `pose` reconnects with the trace; else None."""
        trace = self.state.trace  # empty until the contour is found
        idx = closure_index(trace, pose.position, self.cfg.loop_buffer, self.closure_radius)
        return None if idx is None else trace[idx:]

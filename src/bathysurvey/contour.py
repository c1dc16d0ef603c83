"""Depth-contour following along a target isobath.

The controller runs one step per control tick and owns a two-mode
state machine: Contour mode searches an arc of candidate headings for
the one whose predicted depth best matches the target; Boundary mode
walks the survey polygon's edges when the contour leaves the region,
rejoining the contour once the water ahead turns shallower than the
target. Every visited position after first contact is appended to the
traced boundary, and the trace is complete when it re-approaches its
own early points.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .geometry import (
    Arc,
    Polygon,
    arc_within_polygon,
    bearing_between,
    bearing_to_unit,
    crossed_edge,
    edge_vertex_ahead,
    nearest_boundary_point,
    next_edge,
    normalize_bearing,
    point_in_polygon,
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
class FollowerConfig:
    target_depth: float
    search_radius: float
    arc_half_width: float = math.pi / 2
    depth_tolerance: float = 0.25
    ema_half_life: float = 5.0
    loop_buffer: int = 50
    closure_radius: float | None = None

    def __post_init__(self):
        if self.search_radius <= 0.0:
            raise GeometryError(f"search radius must be positive, got {self.search_radius}")
        if not 0.0 < self.arc_half_width <= math.pi:
            raise GeometryError(f"arc half width must be in (0, pi], got {self.arc_half_width}")
        if self.depth_tolerance <= 0.0:
            raise GeometryError(f"depth tolerance must be positive, got {self.depth_tolerance}")
        if self.loop_buffer < 0:
            raise GeometryError(f"loop buffer must be >= 0, got {self.loop_buffer}")
        if self.closure_radius is None:
            self.closure_radius = 1.5 * self.search_radius


@dataclass
class FollowerState:
    mode: Mode = Mode.CONTOUR
    direction: int | None = None  # boundary travel direction, +1 ccw / -1 cw, latched once
    edge: int | None = None
    found_contour: bool = False
    heading_ema: float = 0.0
    trace: list = field(default_factory=list)  # positions appended after first contact


def ema_heading(psi_prev: float, psi_new: float, dt: float, half_life: float) -> float:
    """Exponential moving average of a heading, blended on unit vectors.

    The blend weight is 1 - 2**(-dt / half_life), so after one half-life
    the old heading retains half its influence. Opposite headings that
    cancel exactly fall back to the new heading.
    """
    if half_life <= 0.0:
        return normalize_bearing(psi_new)
    w = 1.0 - 2.0 ** (-dt / half_life)
    v = (1.0 - w) * bearing_to_unit(psi_prev) + w * bearing_to_unit(psi_new)
    if math.hypot(v[0], v[1]) < 1e-12:
        return normalize_bearing(psi_new)
    return math.atan2(v[0], v[1])


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
    arc = Arc((float(position[0]), float(position[1])), float(radius), float(psi_start), float(psi_end))
    psi = arc.bearings(ARC_SPLITS)
    depths = np.asarray(model.predict_mean(arc.points(ARC_SPLITS)))
    za, zb = depths[:-1], depths[1:]
    pa, pb = psi[:-1], psi[1:]
    cand_psi = np.where(np.abs(za - target_depth) <= np.abs(zb - target_depth), pa, pb)
    cand_z = np.where(np.abs(za - target_depth) <= np.abs(zb - target_depth), za, zb)
    crossing = (za - target_depth) * (zb - target_depth) < 0.0
    if crossing.any():
        s = (target_depth - za[crossing]) / (zb[crossing] - za[crossing])
        cand_psi = cand_psi.copy()
        cand_z = cand_z.copy()
        cand_psi[crossing] = pa[crossing] + s * (pb[crossing] - pa[crossing])
        cand_z[crossing] = target_depth
    z_err = np.abs(cand_z - target_depth)
    psi_err = np.abs([normalize_bearing(p - heading) for p in cand_psi])
    best = np.lexsort((psi_err, z_err))[0]
    return np.asarray(position, dtype=float) + radius * bearing_to_unit(float(cand_psi[best]))


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
    """Stateful contour/boundary follower producing one desired heading per tick."""

    def __init__(self, config: FollowerConfig, poly: Polygon, model, initial_heading: float = 0.0):
        self.cfg = config
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
            waypoint = solve_arc_heading(
                self.model,
                cfg.target_depth,
                st.heading_ema,
                pos,
                cfg.search_radius,
                st.heading_ema - cfg.arc_half_width,
                st.heading_ema + cfg.arc_half_width,
            )
            if not point_in_polygon(waypoint, poly):
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
            if ahead_depth < cfg.target_depth:  # shallower ahead: contour re-enters the region
                st.mode = Mode.CONTOUR
                psi_s, psi_e = arc_within_polygon(pos, poly, cfg.search_radius)
                waypoint = solve_arc_heading(
                    self.model, cfg.target_depth, st.heading_ema, pos, cfg.search_radius, psi_s, psi_e
                )

        if not st.found_contour and (
            st.mode is Mode.BOUNDARY or abs(z_measured - cfg.target_depth) < cfg.depth_tolerance
        ):
            st.found_contour = True
        if st.found_contour:
            st.trace.append(pos.copy())
        return bearing_between(pos, waypoint)

    def _pick_direction(self, edge: int) -> int:
        # head toward whichever edge endpoint sits over deeper predicted water
        ccw = edge_vertex_ahead(self.poly, edge, 1)
        cw = edge_vertex_ahead(self.poly, edge, -1)
        depths = self.model.predict_mean(np.array([ccw, cw]))
        return 1 if depths[0] >= depths[1] else -1

    def complete(self, pose: Pose) -> bool:
        st = self.state
        return st.found_contour and (
            closure_index(st.trace, pose.position, self.cfg.loop_buffer, self.cfg.closure_radius) is not None
        )

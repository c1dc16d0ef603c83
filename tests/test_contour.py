"""Contour follower: arc search, EMA, closure, and the mode machine."""

import math
import warnings

import numpy as np
import pytest

import oracles
from bathysurvey.contour import (
    ContourFollower,
    FollowerConfig,
    Mode,
    Pose,
    closure_index,
    ema_heading,
    solve_arc_heading,
)
from bathysurvey.errors import GeometryError
from bathysurvey.geometry import Polygon, bearing_between, point_in_polygon


class StubModel:
    """Duck-typed GP stand-in with an exact depth function."""

    def __init__(self, fn):
        self.fn = fn

    def predict_mean(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.array([self.fn(p) for p in pts])


PLANE = StubModel(lambda p: 0.1 * p[1])  # z = 0.1*y, contour z=3 at y=30
FLAT = StubModel(lambda p: 3.0)
SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])


def test_ema_heading_fixed_point_and_blend():
    assert ema_heading(0.7, 0.7, 1.0, 5.0) == pytest.approx(0.7)
    # one half-life: equal-weight unit-vector blend of north and east
    assert ema_heading(0.0, math.pi / 2, 5.0, 5.0) == pytest.approx(math.pi / 4)
    # nonpositive half life snaps to the new heading
    assert ema_heading(0.0, 1.2, 1.0, 0.0) == pytest.approx(1.2)
    # opposite headings cancel to the new one
    assert ema_heading(0.0, math.pi, 5.0, 5.0) == pytest.approx(math.pi)


def test_ema_heading_converges_geometrically():
    psi = 0.0
    for _ in range(20):  # 20 half-lives of constant input
        psi = ema_heading(psi, 1.0, 5.0, 5.0)
    assert abs(psi - 1.0) < 1e-6


def test_arc_search_plane_crossing_oracle():
    # reachable contour: waypoint sits on y = 30 (exact plane intersection)
    for r in (30.0, 40.0, 60.0):
        wp = solve_arc_heading(PLANE, 3.0, 0.0, (0.0, 0.0), r, -math.pi, math.pi)
        assert np.hypot(*wp) == pytest.approx(r, abs=1e-9)
        assert wp[1] == pytest.approx(30.0, abs=0.1)
    # unreachable contour: fall back to the deepest available bearing
    wp = solve_arc_heading(PLANE, 3.0, 0.0, (0.0, 0.0), 20.0, -math.pi, math.pi)
    assert wp == pytest.approx([0.0, 20.0], abs=1e-9)


def test_arc_search_tie_breaks_to_current_heading():
    for heading in (-2.0, 0.0, 0.35, 2.9):
        wp = solve_arc_heading(FLAT, 3.0, heading, (0.0, 0.0), 5.0, heading - math.pi / 2, heading + math.pi / 2)
        assert bearing_between((0.0, 0.0), wp) == pytest.approx(heading)


def test_arc_search_deterministic():
    rng = np.random.default_rng(30)
    pts = rng.uniform(-20, 20, (40, 2))
    z = rng.uniform(0, 6, 40)
    bumpy = StubModel(lambda p: z[np.argmin(np.hypot(*(pts - p).T))])
    a = solve_arc_heading(bumpy, 3.0, 0.3, (1.0, 2.0), 5.0, -1.0, 2.0)
    b = solve_arc_heading(bumpy, 3.0, 0.3, (1.0, 2.0), 5.0, -1.0, 2.0)
    assert np.array_equal(a, b)


def test_loop_closed_discrete_circle_oracle():
    trace = oracles.circle_trace(100, 20.0)
    step = 2 * math.pi * 20.0 / 100
    buffer = 50  # half the loop
    radius = 1.5 * step
    hits = {k: closure_index(list(trace[:k]), trace[k % 100], buffer, radius) for k in range(1, 140)}
    fired = [k for k, i in hits.items() if i is not None]
    assert fired, "closure never fired on a closed circle"
    # fires only once the lap comes back around, not mid-loop
    assert min(fired) >= 95
    assert closure_index(list(trace[:buffer]), trace[0], buffer, radius) is None
    # the returned index is the eligible point nearest the pose
    for k in fired:
        d = np.hypot(*(trace[: min(k, 100) - buffer] - trace[k % 100]).T)
        assert hits[k] == int(np.argmin(d))
        assert d[hits[k]] < radius


def test_follower_config_validation():
    assert FollowerConfig(4.5, 5.0).closure_radius == pytest.approx(7.5)
    assert FollowerConfig(4.5, 5.0, closure_radius=3.0).closure_radius == 3.0
    with pytest.raises(GeometryError):
        FollowerConfig(4.5, -1.0)
    with pytest.raises(GeometryError):
        FollowerConfig(4.5, 5.0, arc_half_width=4.0)
    with pytest.raises(GeometryError):
        FollowerConfig(4.5, 5.0, depth_tolerance=0.0)
    with pytest.raises(GeometryError):
        FollowerConfig(4.5, 5.0, loop_buffer=-1)


def _follower(model, **kw):
    cfg = FollowerConfig(target_depth=3.0, search_radius=2.0, **kw)
    return ContourFollower(cfg, SQUARE, model, initial_heading=math.pi / 2)


def test_contour_to_boundary_transition():
    # flat field ties to the east heading; the waypoint leaves through the
    # east edge, so one step latches boundary mode aimed at a vertex
    fol = _follower(FLAT)
    psi_d = fol.step(Pose(9.0, 5.0, math.pi / 2), 3.0, 1.0)
    st = fol.state
    assert st.mode is Mode.BOUNDARY
    assert st.edge == 1
    assert st.direction == 1  # flat depths tie toward counter-clockwise
    assert st.found_contour
    assert psi_d == pytest.approx(bearing_between((9.0, 5.0), (10.0, 10.0)))


def test_boundary_to_contour_on_shallow_vertex():
    # water ahead at the target vertex is shallower than target: leave the
    # boundary through an arc that stays inside the polygon
    fol = _follower(StubModel(lambda p: 4.0 - 0.2 * p[1]))  # deep south, z=3 at y=5
    fol.state.mode = Mode.BOUNDARY
    fol.state.direction = 1
    fol.state.edge = 0  # south edge, ccw toward (10, 0)
    fol.state.found_contour = True
    psi_d = fol.step(Pose(2.0, 1.0, math.pi / 2), 3.8, 1.0)
    # vertex (10,0) predicts z=4.0 > 3.0, stays on boundary
    assert fol.state.mode is Mode.BOUNDARY
    fol2 = _follower(StubModel(lambda p: 0.2 * p[1]))  # deep north, z=3 at y=15: vertex shallow
    fol2.state.mode = Mode.BOUNDARY
    fol2.state.direction = 1
    fol2.state.edge = 0
    fol2.state.found_contour = True
    psi_d = fol2.step(Pose(2.0, 1.0, math.pi / 2), 0.2, 1.0)
    assert fol2.state.mode is Mode.CONTOUR
    wp = np.array([2.0, 1.0]) + 2.0 * np.array([math.sin(psi_d), math.cos(psi_d)])
    assert point_in_polygon(wp, SQUARE)


def test_boundary_advances_past_near_vertex():
    fol = _follower(StubModel(lambda p: 10.0))  # everything deep: never leaves
    fol.state.mode = Mode.BOUNDARY
    fol.state.direction = 1
    fol.state.edge = 0
    fol.state.found_contour = True
    # within search radius of (10, 0): target rolls over to the east edge
    psi_d = fol.step(Pose(9.0, 0.5, math.pi / 2), 10.0, 1.0)
    assert fol.state.edge == 1
    assert psi_d == pytest.approx(bearing_between((9.0, 0.5), (10.0, 10.0)))


def test_direction_prefers_deeper_vertex():
    # south edge: ccw vertex (10,0), cw vertex (0,0)
    deeper_ccw = _follower(StubModel(lambda p: p[0]))
    assert deeper_ccw._pick_direction(0) == 1
    deeper_cw = _follower(StubModel(lambda p: -p[0]))
    assert deeper_cw._pick_direction(0) == -1


def test_found_contour_latches_and_trace_appends():
    fol = _follower(StubModel(lambda p: 3.0 + 0.1 * (5.0 - p[1])))
    pose = Pose(5.0, 2.0, 0.0)
    fol.step(pose, 0.0, 1.0)  # far from target: not found
    assert not fol.state.found_contour
    assert fol.state.trace == []
    fol.step(pose, 2.9, 1.0)  # inside tolerance: latch + append
    assert fol.state.found_contour
    fol.step(pose, 0.0, 1.0)  # latch survives bad readings
    assert fol.state.found_contour
    assert len(fol.state.trace) == 2


def test_outside_pose_warns_and_clamps():
    fol = _follower(FLAT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fol.step(Pose(-1.0, 5.0, 0.0), 3.0, 1.0)
    assert any("outside the survey polygon" in str(w.message) for w in caught)


def test_modes_strictly_alternate():
    # a field deep only in a mid-square band parallel to the west edge
    # forces repeated contour/boundary exchanges while the machine runs
    fol = _follower(StubModel(lambda p: 3.0 + 0.3 * (5.0 - abs(p[0] - 5.0))))
    pose = Pose(5.0, 5.0, 0.0)
    seen = [fol.state.mode]
    rng = np.random.default_rng(31)
    for _ in range(60):
        x = float(np.clip(pose.x + rng.uniform(-1, 1), 0.5, 9.5))
        y = float(np.clip(pose.y + rng.uniform(-1, 1), 0.5, 9.5))
        pose = Pose(x, y, rng.uniform(-math.pi, math.pi))
        fol.step(pose, 3.0, 1.0)
        if fol.state.mode is not seen[-1]:
            seen.append(fol.state.mode)
    for a, b in zip(seen, seen[1:]):
        assert a is not b

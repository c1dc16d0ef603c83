"""Partitioner and coverage planner against geometric oracles."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

import oracles
from bathysurvey import coverage
from bathysurvey.coverage import (
    PathPlan,
    _path_length,
    cells_to_geojson,
    lawnmower_cell,
    partition_monotone,
    plan_coverage,
    plan_transit,
    shrink_corners,
    sweep_frame,
    sweep_polygon,
)
from bathysurvey.errors import ConfigError, GeometryError
from bathysurvey.geometry import Polygon, point_in_polygon, points_in_polygon, segment_in_polygon

RECT = Polygon([(0, 0), (20, 0), (20, 10), (0, 10)])
U_SHAPE = Polygon([(0, 0), (30, 0), (30, 40), (20, 40), (20, 10), (10, 10), (10, 40), (0, 40)])


def test_sweep_frame_axes():
    u, v = sweep_frame(0.0)
    assert u == pytest.approx([0.0, 1.0])
    assert v == pytest.approx([1.0, 0.0])
    u, v = sweep_frame(-math.pi / 2)
    assert u == pytest.approx([-1.0, 0.0])
    assert v == pytest.approx([0.0, 1.0])


def test_sweep_polygon_rectangle():
    rec = sweep_polygon(RECT, 2.0, 0.0)
    assert rec.t_origin == pytest.approx(0.0)
    assert np.all(np.diff(rec.ts) > 0)
    # grid lines every delta plus the closing line at the far hull
    assert rec.ts[:-1] == pytest.approx(np.arange(0.0, 10.0, 2.0), abs=1e-6)
    assert rec.ts[-1] == pytest.approx(10.0, abs=1e-6)
    assert np.all(rec.counts == 2)
    for pts in rec.crossings:
        assert np.all(np.diff(pts @ sweep_frame(0.0)[1]) > 0)


def test_sweep_polygon_argument_validation():
    with pytest.raises(ConfigError):
        sweep_polygon(RECT, 0.0, 0.0)
    with pytest.raises(ConfigError):
        sweep_polygon(RECT, 2.0, math.pi / 2)
    with pytest.raises(ConfigError):
        sweep_polygon(RECT, 12.0, 0.0)  # spacing above the sweep extent


def test_partition_rectangle_single_cell():
    cells, rec = partition_monotone(RECT, 2.0, 0.0)
    assert len(cells) == 1
    c = cells[0]
    assert c.opens_at_min and c.closes_at_max
    assert c.grid_origin == pytest.approx(rec.t_origin)
    assert c.outline().area == pytest.approx(RECT.area, rel=1e-6)
    # corner order: opening low-s, opening high-s, closing high-s, closing low-s
    assert c.corners[0] == pytest.approx([0.0, 0.0], abs=1e-6)
    assert c.corners[1] == pytest.approx([20.0, 0.0], abs=1e-6)
    assert c.corners[2] == pytest.approx([20.0, 10.0], abs=1e-6)
    assert c.corners[3] == pytest.approx([0.0, 10.0], abs=1e-6)


def test_partition_u_shape_three_cells():
    cells, _ = partition_monotone(U_SHAPE, 2.0, 0.0)
    assert len(cells) == 3
    areas = sorted(c.outline().area for c in cells)
    assert sum(areas) <= U_SHAPE.area * (1 + 1e-9)
    # base strip below the notch plus the two arms
    assert cells[0].t_open == pytest.approx(0.0, abs=1e-6)
    assert cells[1].t_open == pytest.approx(cells[2].t_open)
    assert cells[1].t_open >= 10.0 - 1e-6


def test_partition_vertex_on_grid_line():
    # merge vertex at y = 4 sits exactly on the delta = 2 grid
    poly = Polygon([(0, 0), (20, 0), (20, 10), (10, 4), (0, 10)])
    cells, _ = partition_monotone(poly, 2.0, 0.0)
    assert len(cells) == 3
    for c in cells:
        c.outline()  # every boundary must still form a simple polygon


def test_partition_random_stars_cells_tile_polygon():
    rng = np.random.default_rng(40)
    for _ in range(25):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(5, 12)), r_lo=8.0, r_hi=20.0))
        cells, _ = partition_monotone(poly, 1.5, float(rng.uniform(-1.5, 1.5)))
        assert cells
        total = 0.0
        for c in cells:
            try:
                outline = c.outline()
            except GeometryError:
                continue  # sliver cell collapsed to a segment at an event line
            total += outline.area
            inside = points_in_polygon(oracles.densify_ring(c.boundary, 0.5), poly, tol=1e-6)
            assert inside.all()
        assert total <= poly.area * (1 + 1e-9)
        assert total >= 0.5 * poly.area  # event strips may drop slivers only


def test_shrink_corners_rectangle_exact():
    cells, _ = partition_monotone(RECT, 2.0, 0.0)
    got = shrink_corners(cells[0], 2.0, 0.0)
    assert got == pytest.approx(np.array([[2.0, 2.0], [18.0, 2.0], [18.0, 8.0], [2.0, 8.0]]), abs=1e-6)


def test_lawnmower_rectangle_serpentine():
    cells, _ = partition_monotone(RECT, 2.0, 0.0)
    pts = lawnmower_cell(cells[0], 0, 2.0, 0.0)
    corners = shrink_corners(cells[0], 2.0, 0.0)
    assert pts[0] == pytest.approx(corners[0], abs=1e-6)
    assert pts[-1] == pytest.approx(corners[3], abs=1e-6)  # even track count ends low-s
    # tracks on y = 2,4,6,8; adjacent rows exactly delta apart
    ys = np.unique(np.round(pts[:, 1], 6))
    assert ys == pytest.approx([2.0, 4.0, 6.0, 8.0], abs=1e-6)
    assert np.hypot(*np.diff(pts, axis=0).T).max() <= 2.0 + 1e-9
    # serpentine: consecutive tracks run in opposite s directions
    row_dirs = []
    for y in ys:
        row = pts[np.isclose(pts[:, 1], y)]
        row_dirs.append(np.sign(row[-1, 0] - row[0, 0]))
    assert row_dirs == [1.0, -1.0, 1.0, -1.0]


def test_lawnmower_entry_corner_reverses():
    cells, _ = partition_monotone(RECT, 2.0, 0.0)
    corners = shrink_corners(cells[0], 2.0, 0.0)
    for entry in range(4):
        pts = lawnmower_cell(cells[0], entry, 2.0, 0.0)
        assert pts[0] == pytest.approx(corners[entry], abs=1e-6)
    with pytest.raises(ConfigError):
        lawnmower_cell(cells[0], 4, 2.0, 0.0)


def test_single_centered_track():
    # sweep span 2.5 fits no grid track but is wide enough to center one
    poly = Polygon([(0, 0), (20, 0), (20, 2.5), (0, 2.5)])
    cells, _ = partition_monotone(poly, 2.0, 0.0)
    pts = lawnmower_cell(cells[0], 0, 2.0, 0.0)
    assert np.unique(np.round(pts[:, 1], 9)) == pytest.approx([1.25])


def _trackline_positions(pts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sweep coordinates of the constant-t runs in a waypoint sequence.

    Consecutive waypoints with equal sweep coordinate belong to a
    trackline; hop points between tracks drift in t and drop out.
    """
    t = pts @ u
    on_track = np.abs(np.diff(t)) < 1e-9
    vals = t[:-1][on_track]
    if len(vals) == 0:
        return np.array([])
    return np.unique(np.round(vals, 6))


def test_tracks_sit_on_global_grid():
    rng = np.random.default_rng(41)
    for _ in range(10):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(5, 10)), r_lo=10.0, r_hi=20.0))
        delta = 1.5
        sweep = float(rng.uniform(-1.5, 1.5))
        cells, rec = partition_monotone(poly, delta, sweep)
        u, _ = sweep_frame(sweep)
        for cell in cells:
            try:
                pts = lawnmower_cell(cell, 0, delta, sweep)
            except GeometryError:
                continue  # degenerate sliver cell
            ts = _trackline_positions(pts, u)
            if len(ts) < 2:
                continue  # lone centered track may float off the grid
            ks = (ts - rec.t_origin) / delta
            assert np.abs(ks - np.round(ks)).max() < 1e-5
            assert np.diff(ts) == pytest.approx(delta, abs=1e-6)


def test_plan_transit_direct():
    way, idx = plan_transit((1.0, 1.0), [(18.0, 9.0), (19.0, 1.0)], RECT, 2.0)
    assert idx == 1
    assert way[0] == pytest.approx([1.0, 1.0])
    assert way[-1] == pytest.approx([19.0, 1.0])
    assert np.hypot(*np.diff(way, axis=0).T).max() <= 2.0 + 1e-9
    # collinear: every waypoint on the segment
    d = way[-1] - way[0]
    cross = (way[:, 0] - 1.0) * d[1] - (way[:, 1] - 1.0) * d[0]
    assert np.abs(cross).max() < 1e-9


def test_plan_transit_routes_around_notch():
    way, idx = plan_transit((5.0, 35.0), [(25.0, 35.0)], U_SHAPE, 2.0)
    assert idx == 0
    assert points_in_polygon(way, U_SHAPE, tol=1e-6).all()
    length = float(np.hypot(*np.diff(way, axis=0).T).sum())
    assert length > 50.0  # forced down through the base and back up
    assert np.hypot(*np.diff(way, axis=0).T).max() <= 2.0 + 1e-9
    with pytest.raises(ConfigError):
        plan_transit((5.0, 35.0), [], U_SHAPE, 2.0)


#: index offsets from a transit-grid node to its neighbours above it in tuple order
FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))
#: a nonconvex star whose notches block a few grid edges at delta = 4
STAR = Polygon(oracles.star_polygon(np.random.default_rng(0), 16, r_lo=10.0))


@pytest.mark.parametrize("poly, delta, sweep_dir", [(U_SHAPE, 2.0, 0.0), (STAR, 4.0, 0.7)], ids=["u_shape", "star"])
def test_transit_grid_edge_table_matches_segment_checks(poly, delta, sweep_dir):
    grid = coverage._TransitGrid(poly, delta, sweep_dir)
    nodes = grid.nodes
    expected = {(a, (a[0] + di, a[1] + dj)) for a in nodes for di, dj in FORWARD if (a[0] + di, a[1] + dj) in nodes}
    assert set(grid.edges) == expected
    for a, b in expected:
        assert grid.edges[(a, b)] == segment_in_polygon(grid.to_world(a), grid.to_world(b), poly, step=delta / 3.0)
    # both outcomes occur, so the comparison above can tell them apart
    assert set(grid.edges.values()) == {True, False}


#: a corridor that winds inward: heading straight for the goal leads into dead ends
SPIRAL = Polygon(
    [(0, 0), (40, 0), (40, 40), (0, 40), (0, 22), (30, 22), (30, 26), (6, 26), (6, 34), (34, 34), (34, 14), (0, 14)]
)


@pytest.mark.parametrize("poly", [U_SHAPE, SPIRAL], ids=["u_shape", "spiral"])
def test_astar_path_lengths_match_dijkstra_oracle(poly):
    delta = 2.0
    grid = coverage._TransitGrid(poly, delta, 0.0)
    checked = {}

    def clear(a, b):
        if (a, b) not in checked:
            checked[a, b] = segment_in_polygon(grid.to_world(a), grid.to_world(b), poly, step=delta / 3.0)
        return checked[a, b]

    nodes = sorted(grid.nodes)
    pairs = [tuple(nodes[i] for i in ij) for ij in np.random.default_rng(3).integers(len(nodes), size=(16, 2))]
    if poly is U_SHAPE:  # across the notch
        pairs.append((grid.reachable_node((5.0, 35.0)), grid.reachable_node((25.0, 35.0))))
    for start, goal in pairs:
        path = grid.astar(start, goal)
        assert path[0] == start and path[-1] == goal
        steps = np.diff(np.asarray(path), axis=0)
        assert np.abs(steps).max(initial=0) <= 1
        assert all(clear(a, b) for a, b in zip(path[:-1], path[1:]))
        length = delta * float(np.hypot(*steps.T).sum())
        assert length == pytest.approx(oracles.grid_dijkstra(grid.nodes, start, goal, delta, clear), abs=1e-9)
    assert grid.astar(nodes[0], (-1, -1)) is None


def test_transit_grid_built_only_when_a_transit_needs_it(monkeypatch):
    grids = []

    class Recorded(coverage._TransitGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    monkeypatch.setattr(coverage, "_TransitGrid", Recorded)
    plan_coverage(RECT, (1.0, 1.0), 2.0, 0.0)  # every transit is straight
    assert len(grids) == 1
    assert "_node_list" not in grids[0].__dict__
    plan_transit((5.0, 35.0), [(25.0, 35.0)], U_SHAPE, 2.0)  # blocked by the notch
    assert len(grids) == 2
    assert {"_node_list", "edges"} <= set(grids[1].__dict__)


def _blocked_starts(rng, poly, delta, targets, count):
    """Up to `count` random points inside the polygon whose straight leg
    to the nearest target leaves it, so plan_transit has to search."""
    x_lo, y_lo, x_hi, y_hi = poly.bounds
    out = []
    for p in rng.uniform((x_lo, y_lo), (x_hi, y_hi), (400, 2)):
        if len(out) == count:
            break
        if not point_in_polygon(p, poly):
            continue
        nearest = min(targets, key=lambda t: math.dist(p, t))
        if not segment_in_polygon(p, nearest, poly, step=delta / 4.0):
            out.append(tuple(p))
    return out


def _transit_cases():
    """(polygon, delta, starts, targets): every shrunk corner of every cell
    as a target, from starts whose nearest target is out of sight."""
    rng = np.random.default_rng(8)
    shapes = [(U_SHAPE, 2.0, 0.0), (STAR, 4.0, 0.7)]
    shapes += [
        (Polygon(oracles.star_polygon(rng, int(rng.integers(10, 20)), r_lo=8.0)), 4.0, float(rng.uniform(-1.5, 1.5)))
        for _ in range(24)
    ]
    for poly, delta, sweep_dir in shapes:
        cells, _ = partition_monotone(poly, delta, sweep_dir)
        targets = []
        for cell in cells:
            try:
                targets.extend(shrink_corners(cell, delta, sweep_dir))
            except GeometryError:
                continue  # sliver cell, skipped by the planner too
        yield poly, delta, _blocked_starts(rng, poly, delta, targets, 3), targets


def test_pruned_transit_matches_all_targets_oracle():
    searched = 0
    for poly, delta, starts, targets in _transit_cases():
        for start in starts:
            try:
                expected = oracles.transit_all_targets(start, targets, poly, delta)
            except GeometryError as exc:
                with pytest.raises(GeometryError, match=str(exc)):
                    plan_transit(start, targets, poly, delta)
                continue
            way, idx = plan_transit(start, targets, poly, delta)
            assert idx == expected[1]
            assert way.tobytes() == expected[0].tobytes()
            searched += 1
    assert searched >= 50  # every start searches, so this counts A* comparisons


def test_blocked_transit_skips_targets_that_cannot_win(monkeypatch):
    # a slot from the top wall blocks the way to the nearest target; the
    # far targets lie beyond the detour's length
    poly = Polygon([(0, 0), (100, 0), (100, 20), (12, 20), (12, 5), (10, 5), (10, 20), (0, 20)])
    targets = [(17.0, 15.0), (90.0, 10.0), (95.0, 15.0), (80.0, 5.0), (60.0, 18.0), (70.0, 2.0)]
    calls = []
    astar = coverage._TransitGrid.astar

    def counted(self, start, goal):
        calls.append(goal)
        return astar(self, start, goal)

    monkeypatch.setattr(coverage._TransitGrid, "astar", counted)
    way, idx = plan_transit((5.0, 15.0), targets, poly, 2.0)
    assert 0 < len(calls) < len(targets)
    expected = oracles.transit_all_targets((5.0, 15.0), targets, poly, 2.0)
    assert idx == expected[1] == 0
    assert way.tobytes() == expected[0].tobytes()


def test_blocked_transit_tie_goes_to_the_lower_target_index():
    # around the inner corner of an L, both targets lie 8 diagonal and 17
    # straight grid steps away; the farther one in a straight line comes first
    poly = Polygon([(0, 0), (60, 0), (60, 20), (20, 20), (20, 60), (0, 60)])
    start, targets = (10.0, 50.0), [(26.0, 0.0), (40.0, 14.0)]
    way, idx = plan_transit(start, targets, poly, 2.0)
    assert idx == 0
    assert _path_length(way) == pytest.approx(2.0 * (17.0 + 8.0 * math.sqrt(2.0)), abs=1e-9)
    expected = oracles.transit_all_targets(start, targets, poly, 2.0)
    assert way.tobytes() == expected[0].tobytes() and idx == expected[1]


def test_blocked_transit_routes_a_target_just_inside_the_bound():
    # the target round the corner is nearer in a straight line, but its
    # route is 0.14 m longer than the straight run down to the other
    poly = Polygon([(0, 0), (60, 0), (60, 20), (20, 20), (20, 80), (0, 80)])
    start, targets = (10.0, 60.0), [(36.0, 20.0), (10.0, 0.0)]
    way, idx = plan_transit(start, targets, poly, 2.0)
    assert idx == 1 and _path_length(way) == pytest.approx(60.0, abs=1e-9)
    expected = oracles.transit_all_targets(start, targets, poly, 2.0)
    assert way.tobytes() == expected[0].tobytes() and idx == expected[1]


#: sha256 of plan_coverage(...).waypoints.tobytes(), or the error a plan
#: raises, for 12 notched stars (rng 2, 10 + k vertices, r_lo 8 m) at sweep
#: directions 0 and 1.1, delta 4 m, from the origin. Pinned from the
#: exhaustive transit search; a change that moves any plan must say why.
PLAN_DIGESTS = {
    (0, 0.0): "1d974f7992c84fc89a16b21bcc4be9f56a658b8cb0fd820eeda2a9a575fadf60",
    (0, 1.1): "1b19bbdfcb13dcc3cf1fa7a103eaf1065f1ff8a3b9c12251709fe174d98163b7",
    (1, 0.0): "7ac23b69b93ef4318b9857af5b1a2107071b906381e98c5ae88d401ae7f4779c",
    (1, 1.1): "ca1484384f972398fdad9e7e44528ae66f7400c279d469007d39c7ea34f0e293",
    (2, 0.0): "f2ff10c522b4ee570cd4a40d453275f2b29e9a4b26179a186457a15fc6e1671d",
    (2, 1.1): "225ab3fc57fc7d9e90823f5c6303f4a879792dfe7242b27caac3fa1219eb55f6",
    (3, 0.0): "c37641b2ac6015fbe4038f8b5e0e23c16a4bf1baa40e9ab761f36135ec5ea87f",
    (3, 1.1): "6c0782b19ba6afdd58f24abe98800416bed940c7d0ef662d7006c37cb397b7f1",
    (4, 0.0): "a5961971929949e038e798860d232083d46bb5d3f513f9cc1d021e787d9499e8",
    (4, 1.1): "9782218e2d3dbf1584b43abca7fe0a1266b806c7fee1c563cf403255026aeb72",
    (5, 0.0): "23c49327ae970d4183fc8870766681c84101e7df056fd23cc2e17c342620437a",
    (5, 1.1): "531722d4af49347fdf3d59deeb61ee70807c98497db7f729100eb3bc900b1aab",
    (6, 0.0): "79dd23e0bcb5f9e43a3f17a42844650febd18a08eddce6f40b738c73ce0b51e5",
    (6, 1.1): "5031ccc6f8423c455ff6815ab90a604812c87e65b2546b28b94ef109f09b0db6",
    (7, 0.0): "86aa2b3eaad3f136f601272730d183be98db41a9a346517926fba4f36735a9e2",
    (7, 1.1): "48f2d5a8a4ba87b84780b8bf6f16fad80efa8e1e80d2b47fc33c086686477e25",
    (8, 0.0): "4ee5b86bd753abb530e86ef7f0cbba75e28aa080c8ebfa21b6dc282e48797cce",
    (8, 1.1): "f66ea58a31cfcd560f2ace6a06b591c185ba95b89c1f8fd95213463e09d9e9e9",
    (9, 0.0): "GeometryError: no transit route reaches any target inside the polygon",
    (9, 1.1): "94dafbff07d36524b317e2c412ae45fed419b1e95b6b6777dc8c0440fc5cb608",
    (10, 0.0): "8e5c345771ddb0f7b6cb6960ac39f1c715545a9c70b5658af547acf6fbc56203",
    (10, 1.1): "2751998aa6343cb0fa16d8217221915782b823092c7caeccd2e1df04760478bd",
    (11, 0.0): "7eb1b9945fc676e821aa3f83a13152dd89f7cbfd85b5e45d25b55990e7f71b5b",
    (11, 1.1): "8cae37f02e6e1dfc821b2d270b93276724472d21572f943f4ce40390e6228bdc",
}


@pytest.mark.filterwarnings("ignore:skipping cell")
def test_plans_match_pinned_digests():
    rng = np.random.default_rng(2)
    got = {}
    for k in range(12):
        poly = Polygon(oracles.star_polygon(rng, 10 + k, r_lo=8.0, r_hi=60.0))
        for sweep_dir in (0.0, 1.1):
            try:
                waypoints = plan_coverage(poly, (0.0, 0.0), 4.0, sweep_dir).waypoints
                got[k, sweep_dir] = hashlib.sha256(waypoints.tobytes()).hexdigest()
            except GeometryError as exc:
                got[k, sweep_dir] = f"{type(exc).__name__}: {exc}"
    assert got == PLAN_DIGESTS


def test_plan_coverage_rectangle():
    plan = plan_coverage(RECT, (1.0, 1.0), 2.0, 0.0)
    kinds = [s.kind for s in plan.segments]
    assert kinds == ["transit", "lawnmower"]
    assert plan.skipped_cells == []
    assert points_in_polygon(plan.waypoints, RECT, tol=1e-6).all()
    assert plan.segments[0].points[0] == pytest.approx([1.0, 1.0])
    assert plan.total_length >= 4 * 16.0  # four 16 m tracklines at least
    assert plan.transit_length < plan.total_length


def test_plan_coverage_u_shape_visits_all_cells():
    plan = plan_coverage(U_SHAPE, (5.0, 5.0), 2.0, 0.0)
    mowed = [s.cell_index for s in plan.segments if s.kind == "lawnmower"]
    assert sorted(mowed) == [c.index for c in plan.cells]
    assert len(mowed) == 3
    assert points_in_polygon(plan.waypoints, U_SHAPE, tol=1e-6).all()
    consecutive = np.hypot(*np.diff(plan.waypoints, axis=0).T)
    assert consecutive.max() <= 2.0 + 1e-9


def test_plan_coverage_start_outside_raises():
    with pytest.raises(GeometryError):
        plan_coverage(RECT, (-5.0, 5.0), 2.0, 0.0)


def test_plan_coverage_skips_sliver_cell():
    # comb tooth: the strip below the notch closes with zero sweep span
    poly = Polygon([(0, 0), (30, 0), (30, 20), (20, 20), (20, 1.0), (18, 1.0), (18, 20), (0, 20)])
    with pytest.warns(UserWarning, match="skipping cell"):
        plan = plan_coverage(poly, (5.0, 10.0), 2.0, 0.0)
    assert len(plan.skipped_cells) == 1
    mowed = [s.cell_index for s in plan.segments if s.kind == "lawnmower"]
    assert len(mowed) == len(plan.cells) - 1
    assert points_in_polygon(plan.waypoints, poly, tol=1e-6).all()


def test_plan_serialization(tmp_path):
    plan = plan_coverage(RECT, (1.0, 1.0), 2.0, 0.0)
    csv_path = tmp_path / "plan.csv"
    plan.save_csv(csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x", "y", "label"]
    assert len(rows) - 1 == len(plan.waypoints)
    xs = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert xs == pytest.approx(plan.waypoints)

    geo_path = tmp_path / "plan.geojson"
    plan.save_geojson(geo_path)
    with open(geo_path) as fh:
        doc = json.load(fh)
    assert doc["type"] == "Feature"
    assert doc["geometry"]["type"] == "LineString"
    assert len(doc["geometry"]["coordinates"]) == len(plan.waypoints)
    assert doc["properties"]["total_length"] == pytest.approx(plan.total_length)

    cell_path = tmp_path / "cells.geojson"
    cells_to_geojson(plan.cells, cell_path)
    with open(cell_path) as fh:
        doc = json.load(fh)
    assert len(doc["features"]) == len(plan.cells)

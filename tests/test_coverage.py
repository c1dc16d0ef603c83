"""Partitioner and coverage planner against geometric oracles."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from bathysurvey.geometry import (
    Polygon,
    point_in_polygon,
    points_in_polygon,
    segment_in_polygon,
    segments_in_polygon,
)

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


def _star(seed: int, n: int, r_lo: float, lattice: bool) -> Polygon:
    """A star polygon of radius r_lo to 30 m, notched when r_lo is small,
    its vertices rounded to whole metres when `lattice`: at sweep 0 and a
    whole-metre spacing they then sit exactly on sweep lines."""
    v = oracles.star_polygon(np.random.default_rng(seed), n, r_lo=r_lo, r_hi=30.0)
    return Polygon(np.round(v) if lattice else v)


@st.composite
def _sweep_cases(draw):
    """(polygon, track spacing, sweep direction)."""
    args = draw(st.integers(0, 2**32 - 1)), draw(st.integers(5, 16)), draw(st.sampled_from([3.0, 8.0, 15.0]))
    try:
        poly = _star(*args, lattice=draw(st.booleans()))
    except GeometryError:  # rounding made it self-intersect
        assume(False)
    delta = draw(st.sampled_from([2.0, 2.5, 4.0]))
    sweep_dir = draw(st.sampled_from([0.0, 0.7, -1.2]) | st.floats(-math.pi / 2, math.pi / 2, exclude_max=True))
    return poly, delta, sweep_dir


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ConfigError, GeometryError) as exc:
        return f"{type(exc).__name__}: {exc}"


#: star 143 has hops that clamp onto one outline vertex, so waypoints repeat
#: and are dropped; star 10 has a cell whose bottom chain runs backwards
SWEEP_EXAMPLES = [
    (_star(143, 13, 3.0, True), 2.0, 0.0),
    (_star(10, 12, 3.0, True), 2.0, 0.0),
]


@settings(max_examples=100)
@given(_sweep_cases())
@example(SWEEP_EXAMPLES[0])
@example(SWEEP_EXAMPLES[1])
def test_sweep_lines_match_the_per_line_oracle(case):
    """All sweep lines cast at once give the same lines and crossings, to
    the byte, as casting them one at a time."""
    got, expected = _outcome(sweep_polygon, *case), _outcome(oracles.sweep_per_line, *case)
    if isinstance(expected, str):
        assert got == expected
        return
    assert got.ts.tobytes() == expected[0].tobytes()
    assert [c.tobytes() for c in got.crossings] == [c.tobytes() for c in expected[1]]
    assert got.counts.tolist() == [len(c) for c in expected[1]]


@settings(max_examples=100)
@given(_sweep_cases())
@example(SWEEP_EXAMPLES[0])
@example(SWEEP_EXAMPLES[1])
def test_chains_walked_by_edge_index_match_the_boundary_search(case):
    """Each cell's chains, walked from the edges the sweep cast found,
    hold the same points, to the byte, as the chains between the same
    ends when a search over every edge locates each end; the outline
    runs up the top chain and back along the bottom one."""
    poly = case[0]
    try:
        cells, _ = partition_monotone(*case)
    except (ConfigError, GeometryError):
        assume(False)
    for cell in cells:
        c0, c1, c2, c3 = cell.corners
        top = [c1, *oracles.trace_boundary(c1, c2, poly), c2]
        back = oracles.trace_boundary(c3, c0, poly)
        assert cell.top_chain.tobytes() == np.asarray(top).tobytes()
        assert cell.bottom_chain.tobytes() == np.asarray([c0, *back[::-1], c3]).tobytes()
        assert cell.boundary.tobytes() == np.asarray([c0, *top, c3, *back]).tobytes()


@settings(max_examples=60)
@given(_sweep_cases())
@example(SWEEP_EXAMPLES[0])
@example(SWEEP_EXAMPLES[1])
def test_lawnmower_matches_the_per_leg_oracle(case):
    """Every cell mowed from every corner gives the same waypoints, to the
    byte, as densifying each leg and clamping each hop on its own."""
    poly, delta, sweep_dir = case
    try:
        cells, _ = partition_monotone(poly, delta, sweep_dir)
    except (ConfigError, GeometryError):
        assume(False)
    for cell in cells:
        for corner in range(4):
            got = _outcome(lawnmower_cell, cell, corner, delta, sweep_dir)
            expected = _outcome(oracles.mow_per_leg, cell, corner, delta, sweep_dir)
            assert type(got) is type(expected)
            assert got == expected if isinstance(got, str) else got.tobytes() == expected.tobytes()


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from([0.0, 4e-10, 6e-10, 1e-9, 1.5e-9, 1.0]), st.booleans()), max_size=12))
def test_repeated_waypoints_drop_against_the_last_one_kept(steps):
    """Waypoints along a line, each a chosen step past the previous one;
    a droppable one goes when it lies within 1e-9 m of the last one kept,
    tested one at a time, even after a run of drops."""
    x = np.cumsum([0.0, *(step for step, _ in steps)])
    way = np.column_stack([x, np.zeros_like(x)])
    droppable = np.array([False, *(flag for _, flag in steps)])
    kept = [0]
    for i in range(1, len(way)):
        if not (droppable[i] and not np.hypot(*(way[i] - way[kept[-1]])) > 1e-9):
            kept.append(i)
    assert coverage._drop_repeats(way, droppable).tobytes() == way[kept].tobytes()


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
    # forced down through the base and back up, bending only at its two inner corners
    assert _path_length(way) == pytest.approx(2.0 * math.hypot(5.0, 25.0) + 10.0, abs=1e-9)
    assert way[[0, -1]].tolist() == [[5.0, 35.0], [25.0, 35.0]]
    for corner in ([10.0, 10.0], [20.0, 10.0]):
        assert corner in way.tolist()
    assert np.hypot(*np.diff(way, axis=0).T).max() <= 2.0 + 1e-9
    with pytest.raises(ConfigError):
        plan_transit((5.0, 35.0), [], U_SHAPE, 2.0)


def test_a_transit_from_a_reflex_vertex_routes():
    # a zero-length edge joins the start to the vertex it sits on
    way, idx = plan_transit((10.0, 10.0), [(25.0, 35.0)], U_SHAPE, 2.0)
    assert _path_length(way) == pytest.approx(10.0 + math.hypot(5.0, 25.0), abs=1e-9)


def test_a_transit_from_outside_the_polygon_has_no_route():
    with pytest.raises(GeometryError, match="no transit route reaches any target"):
        plan_transit((15.0, 35.0), [(5.0, 35.0), (25.0, 35.0)], U_SHAPE, 2.0)


#: a nonconvex star whose notches block a few straight transits at delta = 4
STAR = Polygon(oracles.star_polygon(np.random.default_rng(0), 16, r_lo=10.0))
#: a corridor that winds inward: heading straight for the goal leads into dead ends
SPIRAL = Polygon(
    [(0, 0), (40, 0), (40, 40), (0, 40), (0, 22), (30, 22), (30, 26), (6, 26), (6, 34), (34, 34), (34, 14), (0, 14)]
)


def test_reflex_graph_built_only_when_a_transit_is_blocked(monkeypatch):
    built = []

    class Recorded(coverage._Transits):
        def __init__(self, poly):
            super().__init__(poly)
            built.append(self)

    monkeypatch.setattr(coverage, "_Transits", Recorded)
    plan_coverage(RECT, (1.0, 1.0), 2.0, 0.0)  # every transit is straight
    assert len(built) == 1
    assert "reflex" not in built[0].__dict__
    plan_transit((5.0, 35.0), [(25.0, 35.0)], U_SHAPE, 2.0)  # blocked by the notch
    assert len(built) == 2
    assert "reflex" in built[1].__dict__


def test_a_plan_tests_its_reflex_pairs_once(monkeypatch):
    """One batch of segments for the pairs of reflex vertices, then one per
    blocked transit, however many transits the plan routes."""
    straight, batches = [], []

    def recorded(p, q, poly):
        straight.append(segment_in_polygon(p, q, poly))
        return straight[-1]

    def counted(p, q, poly):
        batches.append(len(p))
        return segments_in_polygon(p, q, poly)

    monkeypatch.setattr(coverage, "segment_in_polygon", recorded)
    monkeypatch.setattr(coverage, "segments_in_polygon", counted)
    plan_coverage(SPIRAL, (2.0, 38.0), 2.0, -1.2)
    assert straight.count(False) == 3
    assert len(batches) == 1 + straight.count(False)


def _blocked_starts(rng, poly, targets, count):
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
        if not segment_in_polygon(p, nearest, poly):
            out.append(tuple(p))
    return out


def _transit_cases():
    """(polygon, delta, starts, targets): every shrunk corner of every cell
    as a target, from starts whose nearest target is out of sight."""
    rng = np.random.default_rng(8)
    shapes = [(U_SHAPE, 2.0, 0.0), (SPIRAL, 2.0, 0.0), (STAR, 4.0, 0.7)]
    shapes += [
        (Polygon(oracles.star_polygon(rng, int(rng.integers(10, 20)), r_lo=8.0)), 4.0, float(rng.uniform(-1.5, 1.5)))
        for _ in range(8)
    ]
    for poly, delta, sweep_dir in shapes:
        cells, _ = partition_monotone(poly, delta, sweep_dir)
        targets = []
        for cell in cells:
            try:
                targets.extend(shrink_corners(cell, delta, sweep_dir))
            except GeometryError:
                continue  # sliver cell, skipped by the planner too
        yield poly, delta, _blocked_starts(rng, poly, targets, 3), targets


def test_transit_matches_the_visibility_graph_oracle():
    """The chosen target and its route length, within 1e-9 m, are those of
    Dijkstra over the visibility graph of every vertex, its segments
    sampled every 20 cm; every leg of the route stays inside."""
    searched = 0
    for poly, delta, starts, targets in _transit_cases():
        for start in starts:
            expected = oracles.shortest_transit(start, targets, poly, 0.2)
            if expected is None:
                with pytest.raises(GeometryError, match="no transit route"):
                    plan_transit(start, targets, poly, delta)
                continue
            way, idx = plan_transit(start, targets, poly, delta)
            assert idx == expected[1]
            assert _path_length(way) == pytest.approx(expected[0], abs=1e-9)
            assert way[0].tolist() == list(start) and way[-1].tolist() == targets[idx].tolist()
            assert np.hypot(*np.diff(way, axis=0).T).max() <= delta + 1e-9
            assert segments_in_polygon(way[:-1], way[1:], poly).all()
            searched += 1
    assert searched >= 20  # every start searches, so this counts routed transits


def test_blocked_transit_tie_goes_to_the_lower_target_index():
    # an upside-down T, mirrored about x = 0: from the top of the stem, the
    # two feet are out of sight and their routes are equal to the bit
    poly = Polygon([(-40, 0), (40, 0), (40, 20), (5, 20), (5, 60), (-5, 60), (-5, 20), (-40, 20)])
    left, right = (-30.0, 5.0), (30.0, 5.0)
    for targets in ([left, right], [right, left]):
        way, idx = plan_transit((0.0, 50.0), targets, poly, 2.0)
        assert idx == 0 and way[-1].tolist() == list(targets[0])
        assert _path_length(way) == pytest.approx(math.hypot(5.0, 30.0) + math.hypot(25.0, 15.0), abs=1e-9)
        assert oracles.shortest_transit((0.0, 50.0), targets, poly, 0.05)[1] == 0


def test_blocked_transit_routes_a_target_just_inside_the_bound():
    # the target round the corner is nearer in a straight line, and its
    # route round the inner corner is 2.8 m shorter than the straight run
    # down to the other
    poly = Polygon([(0, 0), (60, 0), (60, 20), (20, 20), (20, 80), (0, 80)])
    start, targets = (10.0, 60.0), [(36.0, 20.0), (10.0, 0.0)]
    way, idx = plan_transit(start, targets, poly, 2.0)
    assert idx == 0 and _path_length(way) == pytest.approx(math.sqrt(1700.0) + 16.0, abs=1e-9)
    assert oracles.shortest_transit(start, targets, poly, 0.05) == (pytest.approx(math.sqrt(1700.0) + 16.0), 0)


#: sha256 of plan_coverage(...).waypoints.tobytes(), or the error a plan
#: raises, for 12 notched stars (rng 2, 10 + k vertices, r_lo 8 m) at sweep
#: directions 0 and 1.1, delta 4 m, from the origin. Pinned from the
#: shortest transits on the reflex-vertex graph; a change that moves any
#: plan must say why.
PLAN_DIGESTS = {
    (0, 0.0): "1d974f7992c84fc89a16b21bcc4be9f56a658b8cb0fd820eeda2a9a575fadf60",
    (0, 1.1): "1b19bbdfcb13dcc3cf1fa7a103eaf1065f1ff8a3b9c12251709fe174d98163b7",
    (1, 0.0): "7ac23b69b93ef4318b9857af5b1a2107071b906381e98c5ae88d401ae7f4779c",
    (1, 1.1): "ca1484384f972398fdad9e7e44528ae66f7400c279d469007d39c7ea34f0e293",
    (2, 0.0): "700d8b1bb3e17a0d3c2f5ac6d0e51b70c2df2bc17e3238ce1f0da3066fa8dc29",
    (2, 1.1): "2254a0145bccd6f51b856453cae31a959022f53118b8a5e4d5edca14c077de1c",
    (3, 0.0): "1a2a8b576c280c819523adfd09c05c7212125144cd15aa57f0c180230a8eabf6",
    (3, 1.1): "91484f5572e63193e8b28675146412b8208558bca1c1a70da0fd8704be492096",
    (4, 0.0): "79884aca3b9c06bde4420f1d2904b2ad4fb2e5f8c4e56bcaf8baaae6e91717fe",
    (4, 1.1): "9782218e2d3dbf1584b43abca7fe0a1266b806c7fee1c563cf403255026aeb72",
    (5, 0.0): "33edf4c1c25d08a4967fd8476588d444eb3b691eda672c5d005b9710d8558d3c",
    (5, 1.1): "39edeba2855fc4c88c9d56dde45920394e4e99be4e7f608e8f7ea68b4068f35e",
    (6, 0.0): "0f3fc6f602db65a4977cd01e20feca91150955a4856baa5bd6530fd99a83680d",
    (6, 1.1): "5031ccc6f8423c455ff6815ab90a604812c87e65b2546b28b94ef109f09b0db6",
    (7, 0.0): "efb28f75318b9c02714786e12d85257be8c4714cc1f99c3b4dea1a68ab44b16a",
    (7, 1.1): "635ea399d10c0cccffee1619e5b213f4ebf2c4492992701fea083b304e4dedfa",
    (8, 0.0): "eaffc2405ba222feacbe92d5753178ae07a1cc3a83ff0d098354227c821a6785",
    (8, 1.1): "e28da3e7d382a56b88495c3d7fff1a67a51d90ea1ffd21df6398b9688ab43783",
    (9, 0.0): "b3c61bb2a2cd6c4d35fa9e460c59ffbcda8eb4736d13c49268e284079579a4d7",
    (9, 1.1): "85c89f4bf9e9b3224de8669df047f23eaadf6c12f3e8feddcb5b09e8fefb2e5c",
    (10, 0.0): "bcadd988d33f78c611ed3fefce8f9db9ab28ac416c1474e1cb85f5aea722e1e3",
    (10, 1.1): "a42ddb0b3cfb6f555831862b067984a69492f836f50e2b08b6ca2f5a040329db",
    (11, 0.0): "7eb1b9945fc676e821aa3f83a13152dd89f7cbfd85b5e45d25b55990e7f71b5b",
    (11, 1.1): "1ccc9bcfddcb65a1e8dca027b2177865ab1f45f982c4275db8b89015750b98e9",
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


@pytest.mark.filterwarnings("ignore:skipping cell")
def test_every_transit_leg_of_the_pinned_plans_stays_inside():
    rng = np.random.default_rng(2)
    for k in range(12):
        poly = Polygon(oracles.star_polygon(rng, 10 + k, r_lo=8.0, r_hi=60.0))
        for sweep_dir in (0.0, 1.1):
            try:
                plan = plan_coverage(poly, (0.0, 0.0), 4.0, sweep_dir)
            except GeometryError:
                continue
            for seg in plan.segments:
                if seg.kind == "transit":
                    assert segments_in_polygon(seg.points[:-1], seg.points[1:], poly).all()


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

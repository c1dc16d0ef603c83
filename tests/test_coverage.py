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
    Cell,
    PathPlan,
    _path_length,
    lawnmower_cell,
    partition_monotone,
    plan_coverage,
    plan_transit,
    shrink_corners,
    sweep_frame,
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


def test_partition_argument_validation():
    with pytest.raises(ConfigError):
        partition_monotone(RECT, 0.0, 0.0)
    with pytest.raises(ConfigError):
        partition_monotone(RECT, 2.0, math.pi / 2)
    with pytest.raises(ConfigError, match="track spacing 12.0 is not below the polygon extent 10 along the sweep"):
        partition_monotone(RECT, 12.0, 0.0)  # spacing above the sweep extent


def test_partition_rectangle_single_cell():
    cells = partition_monotone(RECT, 2.0, 0.0)
    assert len(cells) == 1
    c = cells[0]
    assert c.opens_at_min and c.closes_at_max
    assert c.grid_origin == 0.0 and (c.t_open, c.t_close) == (0.0, 10.0)
    assert c.outline().area == pytest.approx(RECT.area, rel=1e-6)
    # corner order: opening low-s, opening high-s, closing high-s, closing low-s
    assert c.corners[0] == pytest.approx([0.0, 0.0], abs=1e-6)
    assert c.corners[1] == pytest.approx([20.0, 0.0], abs=1e-6)
    assert c.corners[2] == pytest.approx([20.0, 10.0], abs=1e-6)
    assert c.corners[3] == pytest.approx([0.0, 10.0], abs=1e-6)


def test_partition_u_shape_three_cells():
    cells = partition_monotone(U_SHAPE, 2.0, 0.0)
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
    cells = partition_monotone(poly, 2.0, 0.0)
    assert len(cells) == 3
    for c in cells:
        c.outline()  # every boundary must still form a simple polygon


def test_shrink_corners_rectangle_exact():
    cells = partition_monotone(RECT, 2.0, 0.0)
    got = shrink_corners(cells[0], 2.0, 0.0)
    assert got == pytest.approx(np.array([[2.0, 2.0], [18.0, 2.0], [18.0, 8.0], [2.0, 8.0]]), abs=1e-6)


def test_lawnmower_rectangle_serpentine():
    cells = partition_monotone(RECT, 2.0, 0.0)
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
    cells = partition_monotone(RECT, 2.0, 0.0)
    corners = shrink_corners(cells[0], 2.0, 0.0)
    for entry in range(4):
        pts = lawnmower_cell(cells[0], entry, 2.0, 0.0)
        assert pts[0] == pytest.approx(corners[entry], abs=1e-6)
    with pytest.raises(ConfigError):
        lawnmower_cell(cells[0], 4, 2.0, 0.0)


def test_hops_stay_inside_at_a_step_of_the_boundary():
    # the east side steps out along the sweep line y = 6, on a track: np.interp
    # reads the step's far end, which a hop from the track below cuts past
    poly = Polygon([(0, 0), (10, 0), (12, 6), (20, 6), (14, 12), (0, 12)])
    (cell,) = partition_monotone(poly, 2.0, 0.0)
    for corner in range(4):
        assert points_in_polygon(lawnmower_cell(cell, corner, 2.0, 0.0), poly).all()


def test_an_east_west_sweep_runs_along_the_axis():
    # every north-south line cuts the U in one interval, and its walls keep one sweep coordinate
    u, _ = sweep_frame(-math.pi / 2)
    assert u.tolist() == [-1.0, 0.0]
    assert len(partition_monotone(U_SHAPE, 2.0, -math.pi / 2)) == 1


def test_single_centered_track():
    # sweep span 2.5 fits no grid track but is wide enough to center one
    poly = Polygon([(0, 0), (20, 0), (20, 2.5), (0, 2.5)])
    cells = partition_monotone(poly, 2.0, 0.0)
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
        cells = partition_monotone(poly, delta, sweep)
        u, _ = sweep_frame(sweep)
        for cell in cells:
            try:
                pts = lawnmower_cell(cell, 0, delta, sweep)
            except GeometryError:
                continue  # degenerate sliver cell
            ts = _trackline_positions(pts, u)
            if len(ts) < 2:
                continue  # lone centered track may float off the grid
            ks = (ts - cell.grid_origin) / delta
            assert np.abs(ks - np.round(ks)).max() < 1e-5
            assert np.diff(ts) == pytest.approx(delta, abs=1e-6)


def _star(seed: int, n: int, r_lo: float, lattice: bool) -> Polygon:
    """A star polygon of radius r_lo to 30 m, notched when r_lo is small,
    its vertices rounded to whole metres when `lattice`: at sweep 0 and a
    whole-metre spacing they then sit exactly on track positions."""
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


#: lattice stars whose vertices sit on track positions: a partition read from
#: crossings on the lines gave star 143 hops that left their cell, and star
#: 10 a cell whose bottom chain ran backwards
SWEEP_EXAMPLES = [
    (_star(143, 13, 3.0, True), 2.0, 0.0),
    (_star(10, 12, 3.0, True), 2.0, 0.0),
]


def _runs_forward(cell: Cell, sweep_dir: float) -> bool:
    """Whether both chains of the cell never decrease in sweep coordinate."""
    u, _ = sweep_frame(sweep_dir)
    return all((np.diff(chain @ u) >= 0.0).all() for chain in (cell.top_chain, cell.bottom_chain))


@settings(max_examples=100)
@given(_sweep_cases())
@example(SWEEP_EXAMPLES[0])
@example(SWEEP_EXAMPLES[1])
def test_cells_tile_the_polygon(case):
    """Every cell outline is a simple polygon, the cell areas sum to the
    polygon's, both chains of every cell run forward along the sweep, and
    every waypoint mowed from each corner lies inside its cell."""
    poly, delta, sweep_dir = case
    try:
        cells = partition_monotone(*case)
    except ConfigError:
        assume(False)
    outlines = [cell.outline() for cell in cells]
    assert sum(outline.area for outline in outlines) == pytest.approx(poly.area, rel=1e-9)
    for cell, outline in zip(cells, outlines):
        assert _runs_forward(cell, sweep_dir)
        for corner in range(4):
            try:
                way = lawnmower_cell(cell, corner, delta, sweep_dir)
            except GeometryError:
                continue  # narrower than the track spacing: the planner skips it
            assert points_in_polygon(way, outline).all()


#: two star polygons with their sweep directions whose boundary turns back
#: between two sweep lines 10 m apart; a partition read from crossings on
#: those lines broke the first plan's transits and the second's cell outline
TURNING_SHAPES = {
    "notch_between_lines": (
        [
            (-97.86517810220732, 65.31537944833094),
            (-190.76328884202204, 42.901583417214965),
            (-74.05896994369667, -8.02663142326967),
            (-120.19650297981704, -68.09184823469754),
            (-115.99208618726816, -131.36366277043066),
            (-36.957710478858885, -78.48517451980607),
            (-47.86563245508357, -163.69385308696312),
            (19.556927085565533, -135.8089049678178),
            (37.83224895405562, -88.00117615497263),
            (140.12887137950383, -142.08095166681133),
            (113.05575827513863, -68.9129462778075),
            (148.6104312518968, -24.005292643409945),
            (104.57183356225048, 22.923967287472763),
            (171.24733742150556, 60.47376954159044),
            (51.92849620750188, 58.97294034605685),
            (49.953109054461265, 100.122439215013),
            (17.003829479527035, 115.4785997310086),
            (-9.684990993366625, 175.04960780502196),
            (-54.115015303342034, 102.81034086380438),
            (-131.56032182870447, 142.1002536780038),
        ],
        0.4377224400317197,
    ),
    "vertex_past_a_line": (
        [
            (-38.56680776704518, 58.57539064113658),
            (-101.54405843696333, 53.34381437549716),
            (-124.01145364767478, 20.534809847668036),
            (-147.2606331114686, -16.13145500881142),
            (-143.4483423981084, -94.17183490335663),
            (-110.25462576934862, -103.75977580636729),
            (-45.813377050063764, -87.46405901637667),
            (11.67038904567056, -149.5937353016344),
            (28.782126705352574, -104.49366919002657),
            (53.88492155562006, -64.34682877868794),
            (103.13742232853832, -67.81377858738767),
            (91.20289995750909, -12.916319789089904),
            (128.94091825547926, 4.519262416652765),
            (98.78200116572683, 43.14779281437493),
            (109.49633382218212, 145.07773227761442),
            (50.92045041780835, 137.75042831039568),
            (11.212697465950313, 140.35765251080952),
            (-51.53405704676523, 157.18772914188213),
        ],
        -0.7993711279514123,
    ),
}


@pytest.mark.filterwarnings("ignore:skipping cell")
@pytest.mark.parametrize("name", TURNING_SHAPES)
def test_a_turn_between_sweep_lines_plans(name):
    vertices, sweep_dir = TURNING_SHAPES[name]
    poly = Polygon(vertices)
    plan = plan_coverage(poly, (0.0, 0.0), 10.0, sweep_dir)
    assert all(_runs_forward(cell, sweep_dir) for cell in plan.cells)
    assert points_in_polygon(plan.waypoints, poly).all()


@settings(max_examples=100)
@given(_sweep_cases())
@example(SWEEP_EXAMPLES[0])
@example(SWEEP_EXAMPLES[1])
def test_chains_walked_by_edge_index_match_the_boundary_search(case):
    """Each cell's chains, clipped from the polygon's monotone chains,
    hold the same points, to the byte, as the chains between the same
    ends when a search over every edge locates each end; the outline
    runs up the top chain and back along the bottom one."""
    poly = case[0]
    try:
        cells = partition_monotone(*case)
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
    byte, as densifying each leg and reading each hop station's span on
    its own."""
    poly, delta, sweep_dir = case
    try:
        cells = partition_monotone(poly, delta, sweep_dir)
    except (ConfigError, GeometryError):
        assume(False)
    for cell in cells:
        for corner in range(4):
            got = _outcome(lawnmower_cell, cell, corner, delta, sweep_dir)
            expected = _outcome(oracles.mow_per_leg, cell, corner, delta, sweep_dir)
            assert type(got) is type(expected)
            assert got == expected if isinstance(got, str) else got.tobytes() == expected.tobytes()


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
    plan_coverage(SPIRAL, (38.0, 2.0), 2.0, -0.5)
    assert straight.count(False) == 3
    assert len(batches) == 1 + straight.count(False)


def test_a_plan_tests_each_reflex_to_target_segment_once(monkeypatch):
    """The blocked transits of one plan share their targets, and a segment
    from a reflex vertex to a target reaches segments_in_polygon once."""
    reflex = set(map(tuple, coverage._Transits(SPIRAL).reflex[0].tolist()))
    tested, offered = [], []

    def recorded(p, q, poly):
        tested.extend((a, b) for a, b in zip(map(tuple, p.tolist()), map(tuple, q.tolist())) if a in reflex and b not in reflex)
        return segments_in_polygon(p, q, poly)

    class Recorded(coverage._Transits):
        def routes(self, position, targets):
            offered.append(len(targets))
            return super().routes(position, targets)

    monkeypatch.setattr(coverage, "segments_in_polygon", recorded)
    monkeypatch.setattr(coverage, "_Transits", Recorded)
    plan_coverage(SPIRAL, (38.0, 2.0), 2.0, -0.5)
    # 3 blocked transits offer the targets of the cells not yet mowed
    assert len(offered) == 3
    assert 0 < len(tested) == len(set(tested)) < len(reflex) * sum(offered)
    # a transit to targets already seen tests only the segments from its start
    transits, batches = coverage._Transits(U_SHAPE), []
    monkeypatch.setattr(coverage, "segments_in_polygon", lambda p, q, poly: batches.append(len(p)) or segments_in_polygon(p, q, poly))
    for start in ((5.0, 35.0), (4.0, 30.0)):
        plan_transit(start, [(25.0, 35.0), (24.0, 30.0)], U_SHAPE, 2.0, transits=transits)
    k = len(transits.reflex[0])
    assert batches[1:] == [k + 2 + 2 * k, k + 2]


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
        cells = partition_monotone(poly, delta, sweep_dir)
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
#: cells between the polygon's monotone chains; a change that moves any
#: plan must say why.
PLAN_DIGESTS = {
    (0, 0.0): "bf3c6de94974e68b717b18fe093c5f90b46754909580ac0614d9970a40a7919c",
    (0, 1.1): "322f9b1ae699ffd5bdf465bc82ffd55f3c1ecad7b295a236c9480ea1b9832a4b",
    (1, 0.0): "cfce9d76059f9faf1d00f4acb0ec5fea050c0b82f5c6042cb6d489e8d0626cdb",
    (1, 1.1): "7df221bd640e49c142d10dc71a6091207700101898adf2935f538246c3a0120a",
    (2, 0.0): "8120750341f48f526be959e5d7499e75d31bbac0acdac1693e5c4dc6efbe0b6c",
    (2, 1.1): "a7f847eefb796f454dd29b3e8c658edff9e7c66a170dab690fdb9d6f7a1fa3b3",
    (3, 0.0): "fdcc5c77db00247971f596dfecff8a1a90eaf68057aa5f58e087f62e7f3811a7",
    (3, 1.1): "2b256276fee2fad01f0c46d9e60b9819e2f97f46a3228fb7e930d3c4b84dbf29",
    (4, 0.0): "146b23a8e52841aa2e1f753d21032d731892e40d7380b5b8f0daf67d52396520",
    (4, 1.1): "edd8fc87e6c01ee39e3fdfb2cfda966f3fb406bd9618b1e43e814558278f8b4b",
    (5, 0.0): "5436858993dd4d716118a5d1930ec96be624d8b053e56332ef1e27c28d20756f",
    (5, 1.1): "d7be8277cd481252606791f88509c286d85fea83221971008cba5b618557f6c8",
    (6, 0.0): "5442b0b2a4e51e891e27d65a942012464caecc19520ffa923af5d89bfc2cb831",
    (6, 1.1): "e4c889d64fa3082855fba26d9cb8c4a8ebd2bce6ca98be9010363457ac10ea5f",
    (7, 0.0): "22bf50f326b46705f3bcf1523c8bd9d300076423ab02494aa137ef1420857039",
    (7, 1.1): "ffeb6b1434af0a557775da29c4a839394d9746903970d3d902720e711bcccaf0",
    (8, 0.0): "e5bd47ed6913c69245b60ff39530301b788c3f051df13580df02370b575d6439",
    (8, 1.1): "62bae088d0bc8a88a3ff1530842ff9aba23f9e2f92a0ca7eccc2fd16cdcd04b1",
    (9, 0.0): "2dc260e3c5241247e020879b59578f95fc274f437e1711d5fdcb02bd4265959f",
    (9, 1.1): "29f47e66196199284446b1ecbb903d1df3368ff90bdfc89cbeb6c08ae1f41258",
    (10, 0.0): "c636379a55bb8ab07f222a963a0b0101f6d2e0408ae7075ca80b0c39ddd97b9b",
    (10, 1.1): "4f6ff9d6f660a00a33ac0998a955d131428f044c0f95ebecada1d92857bd4520",
    (11, 0.0): "c2608e7dde520d86c1cb0919ef3cf855841dd6746ff1744b55b0e7ed28180b23",
    (11, 1.1): "d5f8bc7dcfae94ac45c17eaacf5bcd4f0c16f034ef9b6dd11a0966372f2c4748",
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
    assert plan.save(tmp_path) == ["cells.geojson", "plan.csv", "path.geojson"]
    with open(tmp_path / "plan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x", "y", "label"]
    assert len(rows) - 1 == len(plan.waypoints)
    xs = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert xs == pytest.approx(plan.waypoints)

    with open(tmp_path / "path.geojson") as fh:
        doc = json.load(fh)
    assert doc["type"] == "Feature"
    assert doc["geometry"]["type"] == "LineString"
    assert len(doc["geometry"]["coordinates"]) == len(plan.waypoints)
    assert doc["properties"]["total_length"] == pytest.approx(plan.total_length)

    with open(tmp_path / "cells.geojson") as fh:
        doc = json.load(fh)
    assert len(doc["features"]) == len(plan.cells)

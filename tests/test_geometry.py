"""Planar geometry against winding-number and exact-intersection oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mutations
import oracles
from bathysurvey import geometry
from bathysurvey.errors import ConfigError, GeometryError
from bathysurvey.geometry import (
    Arc,
    Polygon,
    arc_within_polygon,
    bearing_between,
    bearing_to_unit,
    crossed_edge,
    douglas_peucker,
    edge_vertex_ahead,
    load_polygon,
    nearest_boundary_point,
    nearest_boundary_points,
    next_edge,
    normalize_bearing,
    point_in_polygon,
    points_in_polygon,
    save_polygon,
    segment_in_polygon,
    segments_in_polygon,
    simplify_closed_curve,
)
from bathysurvey.geometry import _first_crossing

SQUARE = Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
# south-opening U shape: two prongs joined across the top
U_SHAPE = Polygon(
    [(0, 0), (30, 0), (30, 40), (20, 40), (20, 10), (10, 10), (10, 40), (0, 40)]
)


def test_bearing_conventions():
    assert bearing_between((0, 0), (0, 1)) == pytest.approx(0.0)  # north
    assert bearing_between((0, 0), (1, 0)) == pytest.approx(math.pi / 2)  # east
    assert bearing_between((0, 0), (0, -1)) == pytest.approx(math.pi)
    assert bearing_between((0, 0), (-1, 0)) == pytest.approx(-math.pi / 2)
    assert normalize_bearing(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_bearing(-math.pi) == pytest.approx(math.pi)
    for psi in (-2.0, 0.0, 0.7, 3.0):
        u = bearing_to_unit(psi)
        assert math.atan2(u[0], u[1]) == pytest.approx(normalize_bearing(psi))


def test_arc_sampling():
    arc = Arc((1.0, 2.0), 5.0, 0.0, math.pi / 2)
    psi = arc.bearings(10)
    assert len(psi) == 11
    assert psi[0] == pytest.approx(0.0) and psi[-1] == pytest.approx(math.pi / 2)
    pts = arc.points(10)
    assert np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 2.0) == pytest.approx(5.0)
    assert pts[0] == pytest.approx([1.0, 7.0])  # due north of center
    assert pts[-1] == pytest.approx([6.0, 2.0])  # due east
    full = Arc((0.0, 0.0), 1.0, 0.3, 0.3)
    assert full.span == pytest.approx(2 * math.pi)
    with pytest.raises(GeometryError):
        Arc((0, 0), -1.0, 0.0, 1.0)


def test_polygon_normalization_and_validation():
    cw = Polygon([(0, 0), (0, 10), (10, 10), (10, 0)])
    assert cw.area == pytest.approx(100.0)  # re-oriented ccw
    closed = Polygon([(0, 0), (5, 0), (5, 5), (0, 5), (0, 0)])
    assert len(closed) == 4
    assert SQUARE.bounds == pytest.approx((0.0, 0.0, 10.0, 10.0))
    assert SQUARE.area == pytest.approx(oracles.shoelace_area(SQUARE.vertices))
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 1)])
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (5, 0), (10, 0)])  # zero area
    with pytest.raises(GeometryError, match="self-intersects"):
        Polygon([(0, 0), (10, 1), (10, 0), (0, 10)])  # asymmetric bow tie
    # the touch branch: an end of one edge lies on a non-adjacent edge
    with pytest.raises(GeometryError, match="edge 0 crosses edge 3"):
        Polygon([(0, 0), (10, 0), (10, 10), (6, 10), (5, 0), (4, 10), (0, 10)])  # vertex 4 on edge 0
    with pytest.raises(GeometryError, match="edge 0 crosses edge 4"):
        Polygon([(0, 0), (-10, 0), (-10, 5), (-14, 5), (-12, 0), (-4, 0), (-4, -5), (0, -5)])  # collinear overlap
    with pytest.raises(GeometryError, match="edge 0 crosses edge 3"):
        Polygon([(0, 0), (5, 5), (10, 0), (10, 10), (5, 5), (0, 10)])  # figure-eight sharing vertex (5, 5)
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, np.nan), (2, 0)])


# vertex rings that stress the edge-pair test's 1e-12 dead zone
_lattice = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (float(p[0]), float(p[1])))
_nudge = st.sampled_from([-1e-12, -5e-13, 0.0, 5e-13, 1e-12])


@st.composite
def _rings(draw):
    n = draw(st.integers(3, 24))
    kind = draw(st.sampled_from(["uniform", "lattice", "near_duplicate", "star", "spike"]))
    if kind == "uniform":
        coord = st.floats(-50.0, 50.0)
        return np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    if kind in ("lattice", "near_duplicate"):  # touching vertices, collinear overlapping edges
        v = np.array(draw(st.lists(_lattice, min_size=n, max_size=n)))
        if kind == "near_duplicate":
            v += np.array(draw(st.lists(st.tuples(_nudge, _nudge), min_size=n, max_size=n)))
        return v
    v = oracles.star_polygon(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    if kind == "spike":  # out to a tip and back to within BOUNDARY_TOL of the base
        i = draw(st.integers(0, n - 1))
        tip = v[i] + draw(st.sampled_from([-1.0, 1.0])) * (v[(i + 2) % n] - v[i]) * draw(st.floats(0.5, 2.0))
        back = v[i] + draw(st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 5e-10])) * np.array([1.0, -1.0])
        v = np.insert(v, i + 1, [tip, back], axis=0)
    return v


@given(_rings())
def test_first_crossing_matches_the_scalar_oracle(v):
    """Same no-crossing verdict, or the same first pair in (i, j) order,
    as the scalar pair test over every pair of edges."""
    assert _first_crossing(v, np.roll(v, -1, axis=0)) == oracles.first_crossing(v)


@st.composite
def _creeping(draw):
    """A ring with a run of vertices inserted after one, each 0.6 nm past
    the one before: some are within BOUNDARY_TOL of the previous vertex
    but not of the last one kept."""
    v = draw(_rings())
    i = draw(st.integers(0, len(v) - 1))
    run = v[i] + np.outer(np.arange(1, draw(st.integers(1, 4)) + 1), [6e-10, 0.0])
    return np.insert(v, i + 1, run, axis=0)


@settings(max_examples=100)
@given(st.one_of(_rings(), _rings().map(lambda v: np.vstack([v, v[:1]])), _creeping()))
def test_polygon_construction_matches_the_vertex_walk(v):
    """The same vertices, edge ends and area, to the byte, or the same
    error, as removing duplicates one vertex at a time."""
    try:
        vertices, ends, area = oracles.polygon_by_walk(v)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as raised:
            Polygon(v)
        assert str(raised.value) == str(exc)
        return
    poly = Polygon(v)
    assert poly.vertices.tobytes() == vertices.tobytes()
    assert poly._edge_ends.tobytes() == ends.tobytes()
    assert poly.area == area


@pytest.mark.parametrize("vertices", [[(1.0, 2.0)], np.zeros((0, 2))], ids=["one", "none"])
def test_a_polygon_of_fewer_than_two_vertices_is_a_geometry_error(vertices):
    with pytest.raises(GeometryError, match="at least 3 distinct vertices"):
        Polygon(vertices)


def test_point_in_polygon_matches_winding_oracle():
    rng = np.random.default_rng(20)
    for _ in range(25):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(5, 12))))
        pts = rng.uniform(-70, 70, (60, 2))
        got = points_in_polygon(pts, poly)
        for p, g in zip(pts, got):
            assert g == oracles.winding_inside(p, poly.vertices), p
        singles = [point_in_polygon(p, poly) for p in pts]
        assert np.array_equal(np.array(singles), got)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_containment_in_the_boundary_band(tol):
    """Points on and within a few tol of the boundary, where the
    tolerance decides: inside exactly when parity says so or an edge
    lies within tol."""
    rng = np.random.default_rng(21)
    polys = [SQUARE, U_SHAPE] + [Polygon(oracles.star_polygon(rng, int(rng.integers(5, 14)))) for _ in range(6)]
    for poly in polys:
        a = poly.vertices
        e = np.roll(a, -1, axis=0) - a
        outward = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
        on_edges = [a + f * e for f in (0.25, 0.5)]
        band = [q + k * tol * outward for q in on_edges for k in (-2.0, -0.5, 0.5, 2.0)]
        pts = np.vstack([a, *on_edges, *band, rng.uniform(-80.0, 80.0, (40, 2))])
        ring = np.vstack([a, a[:1]])
        near = oracles.min_distance_to_polylines(pts, [ring]) <= tol
        parity = np.array([oracles.winding_inside(p, a, tol=0.0) for p in pts])
        expected = parity | near
        assert (near & ~parity).any() and (~expected).any()  # the band holds both outcomes
        assert np.array_equal(points_in_polygon(pts, poly, tol), expected)
        assert [point_in_polygon(p, poly, tol) for p in pts] == expected.tolist()


def test_point_on_boundary_counts_inside():
    assert point_in_polygon((5.0, 0.0), SQUARE)
    assert point_in_polygon((10.0, 10.0), SQUARE)
    assert not point_in_polygon((10.0 + 1e-6, 5.0), SQUARE, tol=1e-9)


def test_crossed_edge_and_traversal_helpers():
    # edges ccw from (0,0): 0 south, 1 east, 2 north, 3 west
    assert crossed_edge(SQUARE, (5, 5), (5, -5)) == 0
    assert crossed_edge(SQUARE, (5, 5), (15, 5)) == 1
    assert crossed_edge(SQUARE, (5, 5), (5, 15)) == 2
    assert crossed_edge(SQUARE, (5, 5), (-5, 5)) == 3
    assert crossed_edge(SQUARE, (5, 5), (25, 5)) == 1  # first crossing wins
    with pytest.raises(GeometryError):
        crossed_edge(SQUARE, (4, 4), (5, 5))
    assert next_edge(SQUARE, 3, 1) == 0
    assert next_edge(SQUARE, 0, -1) == 3
    assert edge_vertex_ahead(SQUARE, 0, 1) == pytest.approx([10.0, 0.0])
    assert edge_vertex_ahead(SQUARE, 0, -1) == pytest.approx([0.0, 0.0])
    with pytest.raises(GeometryError):
        next_edge(SQUARE, 0, 2)


def test_nearest_boundary_point_and_distance():
    np.testing.assert_allclose(nearest_boundary_point((5.0, 4.0), SQUARE), [5.0, 0.0])
    np.testing.assert_allclose(nearest_boundary_point((-3.0, -4.0), SQUARE), [0.0, 0.0])
    for p, dist in (((5.0, 4.0), 4.0), ((13.0, 14.0), 5.0)):
        assert np.hypot(*(np.asarray(p) - nearest_boundary_point(p, SQUARE))) == pytest.approx(dist)


def test_nearest_boundary_point_matches_distance_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(4, 15))))
        pts = rng.uniform(-80.0, 80.0, (30, 2))
        got = np.array([np.hypot(*(p - nearest_boundary_point(p, poly))) for p in pts])
        ring = np.vstack([poly.vertices, poly.vertices[:1]])
        np.testing.assert_allclose(got, oracles.min_distance_to_polylines(pts, [ring]), rtol=0.0, atol=1e-9)


def test_nearest_boundary_points_match_one_point_at_a_time(monkeypatch):
    """Points in blocks of a few rows give each row's closest edge point,
    the first at the least hypot, and that hypot, to the byte."""
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 40)  # 2 to 10 rows a block
    rng = np.random.default_rng(23)
    for _ in range(20):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(4, 15))))
        pts = rng.uniform(-80.0, 80.0, (30, 2))
        closest, dist = nearest_boundary_points(pts, poly)
        for p, c, d in zip(pts, closest, dist):
            on_edges = geometry._closest_on_edges(p[None, :], poly)[0][0]
            gaps = np.hypot(*(p - on_edges).T)
            k = int(np.argmin(gaps))
            assert c.tobytes() == on_edges[k].tobytes() and d == gaps[k]
    assert [a.shape for a in nearest_boundary_points(np.empty((0, 2)), SQUARE)] == [(0, 2), (0,)]


def test_arc_within_polygon_bounds():
    # deep interior: full circle
    psi_s, psi_e = arc_within_polygon((5.0, 5.0), SQUARE, 2.0)
    assert (psi_s, psi_e) == pytest.approx((-math.pi, math.pi))
    # near the west edge: arc must exclude westward bearings
    psi_s, psi_e = arc_within_polygon((1.0, 5.0), SQUARE, 3.0)
    arc = Arc((1.0, 5.0), 3.0, psi_s, psi_e)
    pts = arc.points(50)
    assert points_in_polygon(pts, SQUARE).all()
    assert arc.span < 2 * math.pi
    # and the excluded complement actually leaves the polygon
    comp = Arc((1.0, 5.0), 3.0, psi_e, psi_s)
    mid = comp.points(2)[1]
    assert not point_in_polygon(mid, SQUARE, tol=1e-9)
    with pytest.raises(GeometryError):
        arc_within_polygon((5.0, 5.0), SQUARE, 50.0)


def test_segment_in_polygon_sampling():
    assert segment_in_polygon((1, 1), (9, 9), SQUARE)
    assert not segment_in_polygon((1, 1), (15, 1), SQUARE)
    # crossing the U notch fails, hugging one prong passes
    assert not segment_in_polygon((5, 35), (25, 35), U_SHAPE)
    assert segment_in_polygon((5, 35), (5, 5), U_SHAPE)
    # along an edge, through a reflex vertex, and between two vertices round the notch
    assert segment_in_polygon((0, 0), (30, 0), U_SHAPE)
    assert segment_in_polygon((10, 10), (20, 10), U_SHAPE)
    assert segment_in_polygon((5, 15), (15, 5), U_SHAPE)
    assert not segment_in_polygon((10, 40), (20, 40), U_SHAPE)


#: the 100 m square with a notch 0.5 m wide cut down from the top edge to y = 10
NOTCHED = Polygon([(0, 0), (100, 0), (100, 100), (55.25, 100), (55.25, 10), (54.75, 10), (54.75, 100), (0, 100)])


def test_a_segment_across_a_notch_narrower_than_a_sampling_step_is_not_clear():
    assert not segment_in_polygon((10, 50), (90, 50), NOTCHED)
    assert segment_in_polygon((10, 5), (90, 5), NOTCHED)  # below the notch
    # samples every 10 m step over the notch; samples every 0.1 m find it
    assert oracles.sampled_segments_in_polygon((10, 50), (90, 50), NOTCHED, 10.0)[0]
    assert not oracles.sampled_segments_in_polygon((10, 50), (90, 50), NOTCHED, 0.1)[0]


def test_segments_in_polygon_matches_winding_oracle(monkeypatch):
    """Random segments in blocks of a few rows, each clear exactly when
    both its ends are inside by winding angle and it crosses no edge by
    the scalar segment-pair test."""
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 40)  # 2 to 6 rows a block
    rng = np.random.default_rng(23)
    for _ in range(3):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(6, 14))))
        p = rng.uniform(-70.0, 70.0, (420, 2))
        ang = rng.uniform(-math.pi, math.pi, 420)
        length = np.concatenate([rng.uniform(0.5, 6.0, 300), rng.uniform(6.0, 90.0, 120)])
        q = p + length[:, None] * np.column_stack([np.sin(ang), np.cos(ang)])
        edges = list(zip(poly.vertices, poly._edge_ends))
        expected = [
            oracles.winding_inside(a, poly.vertices)
            and oracles.winding_inside(b, poly.vertices)
            and not any(oracles._segments_intersect(a, b, c, d) for c, d in edges)
            for a, b in zip(p, q)
        ]
        got = segments_in_polygon(p, q, poly)
        assert got.tolist() == expected
        assert any(expected) and not all(expected)
        assert [segment_in_polygon(a, b, poly) for a, b in zip(p[:40], q[:40])] == expected[:40]
    assert segments_in_polygon(np.empty((0, 2)), np.empty((0, 2)), SQUARE).shape == (0,)


@st.composite
def _featured_stars(draw):
    """(polygon, feature width): a random star, one of whose edges may
    carry a notch cut in or a spike out, narrower than the old sampling
    step of a third of the track spacing, as far as BOUNDARY_TOL; and
    the point at mid-depth of the feature, and the edge direction."""
    n = draw(st.integers(6, 14))
    v = oracles.star_polygon(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    i = draw(st.integers(0, n - 1))
    a, b = v[i], v[(i + 1) % n]
    e = (b - a) / np.hypot(*(b - a))
    inward = np.array([-e[1], e[0]])  # left of a ccw edge
    kind = draw(st.sampled_from(["notch", "spike", "plain"]))
    width = draw(st.sampled_from([5e-10, 0.05, 0.4, 1.2]))
    depth = draw(st.floats(2.0, 8.0)) * (1.0 if kind == "notch" else -1.0)
    m = 0.5 * (a + b)
    if kind == "notch":
        feature = [m - 0.5 * width * e, m - 0.5 * width * e + depth * inward, m + 0.5 * width * e + depth * inward, m + 0.5 * width * e]
    elif kind == "spike":
        feature = [m - 0.5 * width * e, m + depth * inward, m + 0.5 * width * e]
    else:
        feature, width = [], 1.0
    try:
        poly = Polygon(np.insert(v, i + 1, feature, axis=0) if feature else v)
    except GeometryError:
        assume(False)
    return poly, width, m + 0.5 * depth * inward, e


@settings(max_examples=60)
@given(_featured_stars(), st.sampled_from(["random", "vertex", "edge", "across"]), st.integers(0, 2**32 - 1))
def test_segments_in_polygon_match_the_sampled_oracle(star, kind, seed):
    """The exact test agrees with samples every quarter of the feature
    width, on segments at random, through vertices, along edges, and
    across the notch or spike."""
    poly, width, mid, e = star
    rng = np.random.default_rng(seed)
    v, ends = poly.vertices, poly._edge_ends
    k = rng.integers(len(v), size=12)
    x_lo, y_lo, x_hi, y_hi = poly.bounds
    if kind == "random":
        p, q = rng.uniform((x_lo, y_lo), (x_hi, y_hi), (2, 12, 2))
    elif kind == "vertex":  # ending at a vertex, or through it
        p = rng.uniform((x_lo, y_lo), (x_hi, y_hi), (12, 2))
        q = v[k] + rng.choice([0.0, 0.5, 1.0], 12)[:, None] * (v[k] - p)
    elif kind == "edge":  # along an edge, cut short or run past its ends
        s = rng.choice([-0.5, 0.0, 0.3, 1.0, 1.5], (2, 12))
        p, q = (v[k] + s[i][:, None] * (ends[k] - v[k]) for i in (0, 1))
    else:  # across the feature at mid-depth
        reach = rng.uniform(0.5, 20.0, (2, 12))
        p, q = mid - reach[0][:, None] * e, mid + reach[1][:, None] * e
    expected = oracles.sampled_segments_in_polygon(p, q, poly, max(width, 0.04) / 4.0)
    assert segments_in_polygon(p, q, poly).tolist() == expected.tolist()


def test_douglas_peucker_known_shape():
    # redundant collinear points on a square outline collapse away
    pts = np.array([(0, 0), (5, 0), (10, 0), (10, 5), (10, 10), (5, 10), (0, 10)], dtype=float)
    out = douglas_peucker(pts, tol=0.1)
    assert [tuple(p) for p in out] == [(0, 0), (10, 0), (10, 10), (0, 10)]
    # small wiggles below tolerance vanish, above survive
    wig = np.array([(0, 0), (5, 0.05), (10, 0)])
    assert len(douglas_peucker(wig, tol=0.1)) == 2
    assert len(douglas_peucker(wig, tol=0.01)) == 3


def test_simplify_closed_curve_accepts_noisy_ring():
    ring = oracles.circle_trace(400, 20.0)
    rng = np.random.default_rng(23)
    noisy = ring + rng.normal(0.0, 0.02, ring.shape)
    out = simplify_closed_curve(noisy, tol=0.5)
    assert len(out) < 40
    poly = Polygon(out)
    assert poly.area == pytest.approx(math.pi * 400.0, rel=0.05)


def test_polygon_file_roundtrip(tmp_path):
    path = tmp_path / "poly.txt"
    save_polygon(U_SHAPE, path)
    back = load_polygon(path)
    assert np.allclose(back.vertices, U_SHAPE.vertices)
    with pytest.raises(ConfigError):
        load_polygon(tmp_path / "nope.txt")


def test_a_nan_vertex_is_rejected_not_dropped(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("0,0\n10,0\n10,nan\n0,10\n")
    with pytest.raises(GeometryError, match="finite"):
        load_polygon(path)


def test_a_polygon_whose_area_overflows_is_rejected(tmp_path):
    # the U shape with a vertex moved to y = 1e308 loaded, with area NaN
    path = tmp_path / "poly.txt"
    path.write_text("0,0\n30,0\n30,1e308\n20,40\n20,10\n10,10\n10,40\n0,40\n")
    with pytest.raises(GeometryError, match="area overflows"):
        load_polygon(path)


#: a valid polygon file: the U shape's vertices, one 'x,y' per line
POLYGON_LINES = [[str(x), str(y)] for x, y in U_SHAPE.vertices.tolist()]


@given(mutations.mutated_lines(POLYGON_LINES))
def test_mutated_polygon_loads_or_raises_a_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("polygon") / "poly.txt"
    path.write_text(text)
    try:
        poly = load_polygon(path)
    except (ConfigError, GeometryError):
        return
    assert len(poly) >= 3 and np.isfinite(poly.vertices).all() and poly.area > 0.0

"""Planar geometry against winding-number and exact-intersection oracles."""

import math

import numpy as np
import pytest

import oracles
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
    next_edge,
    normalize_bearing,
    point_in_polygon,
    points_in_polygon,
    ray_cross_polygon,
    save_polygon,
    segment_in_polygon,
    segments_in_polygon,
    simplify_closed_curve,
    trace_boundary,
)

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
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, np.nan), (2, 0)])


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


def test_ray_crossings_match_exact_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(4, 10))))
        origin = rng.uniform(-80, 80, 2)
        bearing = rng.uniform(-math.pi, math.pi)
        got = ray_cross_polygon(origin, bearing, poly)
        ref = oracles.ray_hits(origin, bearing, poly.vertices)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.hypot(*(g - r)) < 1e-9


def test_ray_interior_origin_odd_crossings():
    rng = np.random.default_rng(22)
    for _ in range(40):
        bearing = rng.uniform(-math.pi, math.pi)
        hits = ray_cross_polygon((5.0, 5.0), bearing, SQUARE)
        assert len(hits) == 1


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


def test_trace_boundary_vertex_walks():
    # ccw from mid-south to mid-north passes the two east corners
    out = trace_boundary((5.0, 0.0), (5.0, 10.0), SQUARE)
    assert [tuple(p) for p in out] == [(10.0, 0.0), (10.0, 10.0)]
    # same edge, ahead: nothing between
    assert trace_boundary((2.0, 0.0), (8.0, 0.0), SQUARE) == []
    # same edge but behind: full ccw lap
    out = trace_boundary((8.0, 0.0), (2.0, 0.0), SQUARE)
    assert len(out) == 4
    with pytest.raises(GeometryError):
        trace_boundary((5.0, 5.0), (5.0, 0.0), SQUARE)


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
    assert segment_in_polygon((1, 1), (9, 9), SQUARE, step=0.5)
    assert not segment_in_polygon((1, 1), (15, 1), SQUARE, step=0.5)
    # crossing the U notch fails, hugging one prong passes
    assert not segment_in_polygon((5, 35), (25, 35), U_SHAPE, step=0.5)
    assert segment_in_polygon((5, 35), (5, 5), U_SHAPE, step=0.5)


def test_segments_in_polygon_matches_winding_oracle():
    """Over 256 segments of one sample count (two containment chunks)
    plus segments of mixed counts, each against the winding oracle at
    every one of its samples."""
    rng = np.random.default_rng(23)
    step = 6.0
    for _ in range(3):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(6, 14))))
        p = rng.uniform(-70.0, 70.0, (420, 2))
        ang = rng.uniform(-math.pi, math.pi, 420)
        length = np.concatenate([rng.uniform(0.5, step, 300), rng.uniform(step, 90.0, 120)])
        q = p + length[:, None] * np.column_stack([np.sin(ang), np.cos(ang)])
        counts = np.maximum(2, np.ceil(length / step).astype(int) + 1)
        assert (counts == 2).sum() > 256 and len(np.unique(counts)) > 5
        expected = [
            all(oracles.winding_inside(a + f * (b - a), poly.vertices) for f in np.linspace(0.0, 1.0, k))
            for a, b, k in zip(p, q, counts)
        ]
        got = segments_in_polygon(p, q, poly, step)
        assert got.tolist() == expected
        assert any(expected) and not all(expected)
        assert [segment_in_polygon(a, b, poly, step) for a, b in zip(p[:40], q[:40])] == expected[:40]


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

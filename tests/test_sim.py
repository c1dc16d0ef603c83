"""Fields, vessel kinematics, config plumbing, and full missions."""

import json
import math
import warnings

import numpy as np
import pytest

from bathysurvey.contour import Pose
from bathysurvey.errors import ConfigError, GeometryError
from bathysurvey.geometry import Polygon
from bathysurvey.gp import GpModel
from bathysurvey.sim import (
    GaussianSumField,
    GridField,
    MissionConfig,
    PlaneField,
    VesselState,
    apply_overrides,
    canonical_scenario,
    load_grid_field,
    load_scenario,
    mission_fingerprint,
    run_mission,
    sonar_sample,
    step_vessel,
    true_depth,
    validate_field,
)

SQUARE = Polygon([(0, 0), (60, 0), (60, 60), (0, 60)])


# -- depth fields ----------------------------------------------------------


def test_plane_field_values():
    f = PlaneField(offset=5.0, gradient_x=0.1, gradient_y=-0.2)
    assert true_depth(f, (0, 0)) == pytest.approx(5.0)
    assert true_depth(f, (10, 5)) == pytest.approx(5.0 + 1.0 - 1.0)
    pts = np.array([[0, 0], [1, 1], [2, 0]])
    assert f.depth(pts) == pytest.approx([5.0, 4.9, 5.2])


def test_gaussian_sum_field_matches_formula():
    bumps = ((10.0, 20.0, 2.0, 5.0), (30.0, 5.0, -1.0, 8.0))
    f = GaussianSumField(offset=4.0, gradient_x=0.01, gradient_y=0.02, bumps=bumps)
    rng = np.random.default_rng(50)
    pts = rng.uniform(0, 40, (30, 2))
    want = 4.0 + 0.01 * pts[:, 0] + 0.02 * pts[:, 1]
    for cx, cy, amp, w in bumps:
        want = want + amp * np.exp(-((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) / (2 * w * w))
    assert f.depth(pts) == pytest.approx(want)
    # bump center: plane value plus the full amplitude (other bump negligible)
    assert true_depth(f, (10, 20)) == pytest.approx(4.0 + 0.1 + 0.4 + 2.0, abs=0.01)


def test_grid_field_bilinear():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])  # values[j, i] at (i, j)
    f = GridField(0.0, 0.0, 1.0, 1.0, vals)
    assert true_depth(f, (0, 0)) == pytest.approx(1.0)
    assert true_depth(f, (1, 0)) == pytest.approx(2.0)
    assert true_depth(f, (0, 1)) == pytest.approx(3.0)
    assert true_depth(f, (0.5, 0.5)) == pytest.approx(2.5)
    assert true_depth(f, (0.25, 0.75)) == pytest.approx(
        1.0 * 0.75 * 0.25 + 2.0 * 0.25 * 0.25 + 3.0 * 0.75 * 0.75 + 4.0 * 0.25 * 0.75
    )
    with pytest.raises(GeometryError):
        true_depth(f, (1.5, 0.5))
    with pytest.raises(ConfigError):
        GridField(0.0, 0.0, 1.0, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        GridField(0.0, 0.0, -1.0, 1.0, vals)


def test_validate_field():
    validate_field(PlaneField(offset=2.0), ((0, 0), (10, 10)))
    with pytest.raises(ConfigError, match="negative"):
        validate_field(PlaneField(offset=1.0, gradient_x=-0.5), ((0, 0), (10, 10)))
    with pytest.raises(ConfigError, match="finite"):
        validate_field(PlaneField(offset=math.nan), ((0, 0), (10, 10)))


def test_sonar_sample_statistics():
    f = PlaneField(offset=5.0)
    pose = Pose(1.0, 2.0, 0.0)
    assert sonar_sample(f, pose, 0.0, np.random.default_rng(0)) == pytest.approx(5.0)
    a = [sonar_sample(f, pose, 0.1, np.random.default_rng(51)) for _ in range(5)]
    b = [sonar_sample(f, pose, 0.1, np.random.default_rng(51)) for _ in range(5)]
    assert a == b  # same stream, same draws
    rng = np.random.default_rng(52)
    zs = np.array([sonar_sample(f, pose, 0.1, rng) for _ in range(4000)])
    assert zs.mean() == pytest.approx(5.0, abs=0.01)
    assert zs.std() == pytest.approx(0.1, rel=0.1)


# -- vessel ----------------------------------------------------------------


def test_step_vessel_snaps_without_rate_limit():
    s0 = VesselState(Pose(0.0, 0.0, 0.0), speed=2.0, clock=5.0)
    s1 = step_vessel(s0, math.pi / 2, 0.5)
    assert s1.pose.psi == pytest.approx(math.pi / 2)
    assert (s1.pose.x, s1.pose.y) == pytest.approx((1.0, 0.0))
    assert s1.clock == pytest.approx(5.5)
    s2 = step_vessel(s0, math.pi / 2, 0.5, max_turn_rate=math.inf)
    assert s2.pose.psi == pytest.approx(math.pi / 2)


def test_step_vessel_rate_limited():
    s0 = VesselState(Pose(0.0, 0.0, 0.0), speed=1.0, clock=0.0)
    s1 = step_vessel(s0, math.pi, 1.0, max_turn_rate=0.1)
    assert s1.pose.psi == pytest.approx(0.1)
    assert (s1.pose.x, s1.pose.y) == pytest.approx((math.sin(0.1), math.cos(0.1)))
    # turning the short way across the wrap
    s2 = step_vessel(VesselState(Pose(0, 0, 3.0), 1.0, 0.0), -3.0, 1.0, max_turn_rate=0.1)
    assert s2.pose.psi == pytest.approx(3.1)
    with pytest.raises(ConfigError):
        step_vessel(s0, 0.0, 0.0)


def test_step_vessel_closes_a_circle():
    # constant-rate turn traces a regular polygon that returns home
    n = 100
    dpsi = 2 * math.pi / n
    state = VesselState(Pose(0.0, 0.0, 0.0), speed=1.0, clock=0.0)
    for _ in range(n):
        state = step_vessel(state, state.pose.psi + dpsi, 0.1)
    assert (state.pose.x, state.pose.y) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert state.clock == pytest.approx(10.0)


# -- configuration ---------------------------------------------------------


def test_mission_config_validation():
    MissionConfig()  # defaults are valid
    for bad in (
        {"target_depth": -1.0},
        {"speed": 0.0},
        {"arc_half_width": 4.0},
        {"sweep_dir": math.pi / 2},
        {"loop_buffer": -1},
        {"closure_radius": 0.0},
        {"max_turn_rate": -0.5},
        {"start": (1.0,)},
        {"noise_std": -0.1},
    ):
        with pytest.raises(ConfigError):
            MissionConfig(**bad)


def test_apply_overrides():
    cfg = MissionConfig()
    out = apply_overrides(
        cfg,
        {"target_depth": "3.25", "seed": "11", "start": "10, 20", "closure_radius": "none"},
    )
    assert out.target_depth == 3.25
    assert out.seed == 11
    assert out.start == (10.0, 20.0)
    assert out.closure_radius is None
    assert out.search_radius == cfg.search_radius  # untouched fields survive
    with pytest.raises(ConfigError, match="unknown mission setting"):
        apply_overrides(cfg, {"target_deepness": "3"})
    with pytest.raises(ConfigError, match="cannot parse"):
        apply_overrides(cfg, {"speed": "fast"})
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"speed": "-2.0"})  # parses, fails validation


def test_mission_fingerprint_sensitivity():
    cfg = MissionConfig()
    field = PlaneField(offset=5.0)
    base = mission_fingerprint(cfg, field, SQUARE)
    assert base == mission_fingerprint(cfg, field, SQUARE)
    assert base != mission_fingerprint(apply_overrides(cfg, {"seed": "1"}), field, SQUARE)
    assert base != mission_fingerprint(cfg, PlaneField(offset=5.1), SQUARE)
    assert base != mission_fingerprint(cfg, field, Polygon([(0, 0), (61, 0), (60, 60), (0, 60)]))


# -- scenario files ----------------------------------------------------------


def test_canonical_scenario_contents():
    cfg, field, poly = canonical_scenario()
    assert cfg.target_depth == 4.5
    assert cfg.search_radius == 5.0
    assert cfg.track_spacing == 10.0
    assert cfg.start == (250.0, 350.0)
    assert cfg.max_sim_time == 4000.0
    assert cfg.noise_std > 0.0
    assert isinstance(field, GaussianSumField)
    validate_field(field, ((-15, -15), (515, 415)))
    assert len(poly.vertices) == 4
    assert poly.area > 1e5  # several-hundred-metre survey box


def test_load_scenario_rejects_unknown_keys(tmp_path):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("0,0\n50,0\n50,50\n0,50\n")
    good = "[mission]\ntarget_depth = 3.0\n\n[field]\nkind = plane\noffset = 5.0\n\n[polygon]\nfile = poly.txt\n"
    sc = tmp_path / "ok.ini"
    sc.write_text(good)
    cfg, field, poly = load_scenario(sc)
    assert cfg.target_depth == 3.0
    assert isinstance(field, PlaneField)

    for mangled, pattern in (
        (good.replace("target_depth", "target_deepness"), "unknown"),
        (good.replace("offset = 5.0", "offset = 5.0\nwobble = 2"), "unknown|unexpected"),
        (good.replace("[field]\nkind = plane\noffset = 5.0\n\n", ""), "missing"),
        (good.replace("poly.txt", "absent.txt"), "absent.txt"),
        (good.replace("kind = plane", "kind = fractal"), "fractal"),
    ):
        bad = tmp_path / "bad.ini"
        bad.write_text(mangled)
        with pytest.raises(ConfigError, match=pattern):
            load_scenario(bad)


def test_grid_field_file_roundtrip(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# comment\n0.0,0.0,2.0,3.0\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    f = load_grid_field(path)
    assert f.dx == 2.0 and f.dy == 3.0
    assert true_depth(f, (0, 0)) == pytest.approx(1.0)
    assert true_depth(f, (2, 3)) == pytest.approx(5.0)
    assert true_depth(f, (1, 1.5)) == pytest.approx((1 + 2 + 4 + 5) / 4)
    with pytest.raises(ConfigError):
        load_grid_field(tmp_path / "nope.csv")
    path.write_text("0,0,1,1\n1,2\n")
    with pytest.raises(ConfigError):
        load_grid_field(path)


# -- missions ----------------------------------------------------------------


def test_mission_timeout_returns_partial_log():
    cfg, field, poly = canonical_scenario()
    cfg = apply_overrides(cfg, {"max_sim_time": "30.0"})  # shorter than init
    log = run_mission(cfg, field, poly)
    assert log.aborted is not None and "max_sim_time" in log.aborted
    assert not log.closed
    assert log.intersection is None
    assert log.sim_time >= 30.0
    assert len(log.trace) >= 30
    assert len(log.measurements) >= 30
    assert all(row[4] == "init" for row in log.trace)


def test_mission_start_outside_polygon():
    cfg = MissionConfig(start=(-10.0, -10.0))
    with pytest.raises(GeometryError):
        run_mission(cfg, PlaneField(offset=5.0), SQUARE)


def test_mission_log_save(tmp_path):
    cfg, field, poly = canonical_scenario()
    cfg = apply_overrides(cfg, {"max_sim_time": "30.0"})
    log = run_mission(cfg, field, poly)

    out = tmp_path / "artifacts"
    written = log.save(out)
    for name in ("trace.csv", "measurements.csv", "hypers.csv", "gp_checkpoint.csv", "manifest.json"):
        assert name in written
        assert (out / name).exists()
    rows = (out / "trace.csv").read_text().strip().split("\n")
    assert rows[0] == "t,x,y,psi,mode,z_measured,z_predicted,found_contour"
    assert len(rows) - 1 == len(log.trace)
    cols = rows[1].split(",")
    float(cols[0]), float(cols[1]), float(cols[2])  # parse back cleanly
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config_hash"] == log.config_hash
    assert doc["aborted"] == log.aborted

    # a pre-seeded manifest keeps its keys and gains the outcome
    out2 = tmp_path / "preseeded"
    out2.mkdir()
    (out2 / "manifest.json").write_text('{"sentinel": true}')
    written2 = log.save(out2)
    assert written2 == written
    assert json.loads((out2 / "manifest.json").read_text()) == {
        "sentinel": True,
        "aborted": log.aborted,
        "closed": log.closed,
        "sim_time": log.sim_time,
        "files": written[:-1],
    }


def test_saved_mission_model_reloads_as_the_mission_model(tmp_path, canonical_run):
    log, _ = canonical_run
    path = tmp_path / "gp_checkpoint.csv"
    log.model.save_checkpoint(path)
    clone = GpModel.load_checkpoint(path)
    q = np.array([[400.0, 100.0], [250.0, 350.0], [600.0, 500.0]])
    assert np.abs(clone.predict_mean(q) - log.model.predict_mean(q)).max() < 1e-6


def test_plane_mission_tracks_and_walls():
    """Full mission on a sloped plane: the deep region is the south half.

    The vessel must find the 4.5 m contour, ride it into the east wall,
    walk the boundary around the deep side, close the loop, and mow the
    intersection. Steady contour tracking must hold the depth error
    within gradient * search_radius once captured.
    """
    field = PlaneField(offset=7.0, gradient_y=-1.0 / 12.0)
    cfg = MissionConfig(
        target_depth=4.5,
        search_radius=5.0,
        track_spacing=8.0,
        start=(30.0, 48.0),
        refit_period=60.0,
        init_duration=40.0,
        noise_std=0.01,
        seed=3,
        max_sim_time=1500.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        log = run_mission(cfg, field, SQUARE)

    assert log.aborted is None
    assert log.closed
    modes = {row[4] for row in log.trace}
    assert {"init", "contour", "boundary", "coverage"} <= modes

    # intersection approximates the deep half minus the corner cut
    area = log.intersection.area
    assert 1200.0 < area < 1850.0

    # settle-then-stay: within each contour-mode run, once the true depth
    # error enters the gradient * radius band it never leaves it
    bound = (1.0 / 12.0) * cfg.search_radius
    runs, cur = [], []
    for t, x, y, psi, mode, z, zp, found in log.trace:
        if mode == "contour" and found:
            cur.append(abs(true_depth(field, (x, y)) - cfg.target_depth))
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    assert runs
    settled = 0
    for r in runs:
        a = np.asarray(r)
        inside = a <= bound
        if not inside.any():
            continue
        settled += 1
        first = int(np.argmax(inside))
        assert a[first:].max() <= bound * 1.2
    assert settled >= 1

    # the planner covered every cell of the intersection
    mowed = [s.cell_index for s in log.plan.segments if s.kind == "lawnmower"]
    assert sorted(mowed) == [c.index for c in log.plan.cells if c.index not in log.plan.skipped_cells]


def test_refits_stop_when_the_loop_closes(canonical_run):
    log, _ = canonical_run
    closure_t = max(row[0] for row in log.trace if row[4] != "coverage")
    *steering, final = log.hyper_history
    assert len(steering) >= 2
    assert all(row[0] <= closure_t for row in steering)
    t, hypers, _, _, n = final
    assert t == log.trace[-1][0]
    assert n == len(log.measurements)
    assert log.model.hypers == hypers


def test_refit_period_past_mission_end_keeps_init_fit_only():
    field = PlaneField(offset=7.0, gradient_y=-1.0 / 12.0)
    cfg = MissionConfig(
        target_depth=4.5,
        search_radius=5.0,
        track_spacing=8.0,
        start=(30.0, 48.0),
        refit_period=2000.0,
        init_duration=40.0,
        noise_std=0.01,
        seed=3,
        max_sim_time=1500.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        log = run_mission(cfg, field, SQUARE)
    assert log.aborted is None and log.closed
    assert [row[0] for row in log.hyper_history] == [cfg.init_duration]
    assert log.model.hypers == log.hyper_history[0][1]

"""Fields, vessel kinematics, config plumbing, and full missions."""

import hashlib
import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutations
from bathysurvey import gp, sim
from bathysurvey.cli import main
from bathysurvey.contour import Pose
from bathysurvey.errors import ConfigError, GeometryError, SurveyError
from bathysurvey.geometry import Polygon
from bathysurvey.gp import GpModel
from bathysurvey.sim import (
    REFIT_GROWTH,
    GaussianSumField,
    GridField,
    MissionConfig,
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
    f = GaussianSumField(offset=5.0, gradient_x=0.1, gradient_y=-0.2)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_grid_with_a_depth_that_is_not_finite_is_refused(bad):
    # validate_field passed such a grid, and depth returned NaN next to the cell
    vals = np.full((401, 401), 20.0)
    vals[137, 200] = bad
    with pytest.raises(ConfigError, match="finite"):
        GridField(0.0, 0.0, 10.0, 10.0, vals)


def test_validate_field():
    validate_field(GaussianSumField(offset=2.0), ((0, 0), (10, 10)))
    with pytest.raises(ConfigError, match="negative"):
        validate_field(GaussianSumField(offset=1.0, gradient_x=-0.5), ((0, 0), (10, 10)))
    with pytest.raises(ConfigError, match="finite"):
        validate_field(GaussianSumField(offset=math.nan), ((0, 0), (10, 10)))


def test_settings_near_the_float_limit_end_in_typed_errors_without_warnings():
    # each of these overflows in numpy unless guarded: the box's sample
    # grid (which would refuse a plain plane as "not finite"), the plane
    # itself and the vessel's position
    plane = GaussianSumField(offset=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="mission box"):
            validate_field(plane, ((-1e308, 0.0), (1e308, 10.0)))
        assert GaussianSumField(offset=2.0, gradient_x=1e308).depth([[50.0, 0.0]])[0] == math.inf
        with pytest.raises(ConfigError, match="float range"):
            step_vessel(VesselState(Pose(1e308, 0.0, 0.0), 1e308, 0.0), math.pi / 2, 1.0)
        log = run_mission(MissionConfig(start=(30.0, 30.0), speed=1e308, max_sim_time=5.0), plane, SQUARE)
    assert log.aborted.startswith("ConfigError") and "float range" in log.aborted


def test_sonar_sample_statistics():
    f = GaussianSumField(offset=5.0)
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
        {"search_radius": -1.0},
        {"depth_tolerance": 0.0},
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


@pytest.mark.parametrize(
    "key, value, raw",
    [
        ("init_duration", math.nan, "nan"),  # would circle until max_sim_time
        ("closure_radius", math.nan, "nan"),  # the loop would never close
        ("noise_std", math.nan, "nan"),  # would abort at t=0 on a non-finite sounding
        ("max_turn_rate", math.nan, "nan"),  # would silently mean no limit
        ("seed", 1.5, "1.5"),  # the noise generator takes integers only
        ("loop_buffer", 2.5, "2.5"),  # loop closure counts points
        ("closure_radius", math.inf, "inf"),  # would silently mean 1.5 search radii
        ("init_radius", 1e-320, "1e-320"),  # speed / init_radius overflows: the first init turn is inf
    ],
)
def test_incomplete_settings_are_config_errors(tmp_path, capsys, key, value, raw):
    with pytest.raises(ConfigError, match=key):
        MissionConfig(**{key: value})
    with pytest.raises(ConfigError, match=key):
        apply_overrides(MissionConfig(), {key: raw})
    assert main(["run", "--set", f"{key}={raw}", "--out", str(tmp_path / "run")]) == 2
    assert "configuration error" in capsys.readouterr().err


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
    # an infinite turn rate is no limit, stored as None to keep manifests JSON
    assert apply_overrides(cfg, {"max_turn_rate": "inf"}).max_turn_rate is None
    assert MissionConfig(max_turn_rate=math.inf).max_turn_rate is None
    assert out.search_radius == cfg.search_radius  # untouched fields survive
    with pytest.raises(ConfigError, match="unknown mission setting"):
        apply_overrides(cfg, {"target_deepness": "3"})
    with pytest.raises(ConfigError, match="cannot parse"):
        apply_overrides(cfg, {"speed": "fast"})
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"speed": "-2.0"})  # parses, fails validation


#: the tokens each mission setting is overridden with: a file's mutations,
#: a zero, a subnormal and the word that unsets an optional setting
OVERRIDE_TOKENS = [*mutations.TOKENS, "0", "1e-320", "none"]


@settings(max_examples=300)
@given(st.sampled_from([f.name for f in fields(MissionConfig)]), st.sampled_from(OVERRIDE_TOKENS))
def test_mutated_override_is_refused_or_runs(canonical_inputs, name, token):
    """An override applies or raises ConfigError, and a mission of 5 s
    under an applied one ends without an untyped error. The rates stay
    at 10 Hz or below: at 1e308 Hz, 5 s is more ticks than any run ends."""
    cfg, field, poly = canonical_inputs
    try:
        cfg = apply_overrides(cfg, {name: token})
    except ConfigError:
        return
    cfg = replace(
        cfg,
        max_sim_time=min(cfg.max_sim_time, 5.0),
        control_rate=min(cfg.control_rate, 10.0),
        sonar_rate=min(cfg.sonar_rate, 10.0),
    )
    try:
        run_mission(cfg, field, poly)
    except SurveyError:
        pass


def test_mission_fingerprint_sensitivity():
    cfg = MissionConfig()
    field = GaussianSumField(offset=5.0)
    base = mission_fingerprint(cfg, field, SQUARE)
    assert base == mission_fingerprint(cfg, field, SQUARE)
    assert base != mission_fingerprint(apply_overrides(cfg, {"seed": "1"}), field, SQUARE)
    assert base != mission_fingerprint(cfg, GaussianSumField(offset=5.1), SQUARE)
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


def test_canonical_scenario_manifest_is_pinned():
    # the hash keys manifests and run directories: restructuring the
    # config or the field classes must not move it
    cfg, field, poly = canonical_scenario()
    assert mission_fingerprint(cfg, field, poly) == "53c4f5ab7c12d12b970a530e53a4ad043fb0a154cd74635a4bcb4046f8e895bb"
    assert cfg.as_dict() == {
        "target_depth": 4.5,
        "search_radius": 5.0,
        "track_spacing": 10.0,
        "sweep_dir": 0.0,
        "start": [250.0, 350.0],
        "speed": 1.0,
        "control_rate": 1.0,
        "sonar_rate": 1.0,
        "refit_period": 30.0,
        "init_duration": 50.0,
        "init_radius": 5.0,
        "ema_half_life": 5.0,
        "loop_buffer": 50,
        "arc_half_width": math.pi / 2,
        "depth_tolerance": 0.25,
        "closure_radius": None,
        "noise_std": 0.02,
        "seed": 7,
        "max_turn_rate": None,
        "max_sim_time": 4000.0,
    }


def test_plane_scenario_is_a_gaussian_sum_without_mounds(tmp_path):
    (tmp_path / "poly.txt").write_text("0,0\n50,0\n50,50\n0,50\n")
    text = "[mission]\n\n[field]\nkind = plane\noffset = 5.0\ngradient_y = -0.01\n\n[polygon]\nfile = poly.txt\n"
    sc = tmp_path / "plane.ini"
    sc.write_text(text)
    _, field, _ = load_scenario(sc)
    assert field == GaussianSumField(offset=5.0, gradient_y=-0.01)
    assert field.bumps == ()
    sc.write_text(text.replace("gradient_y = -0.01", "bumps = 10 10 1 5"))
    with pytest.raises(ConfigError, match="bumps"):
        load_scenario(sc)


@pytest.mark.parametrize(
    "setting, pattern",
    [
        ("offset = nan", "offset and gradients must be finite"),
        ("offset = 5.0\ngradient_x = inf", "offset and gradients must be finite"),
        ("offset = 5.0\ngradient_y = -inf", "offset and gradients must be finite"),
        ("offset = 5.0\nbumps = 10 10 1", "4 numbers"),
        ("offset = 5.0\nbumps = 10 10 1 5; 1 2 3 4 5", "4 numbers"),
        ("offset = 5.0\nbumps = nan 10 1 5", "finite centre"),
        ("offset = 5.0\nbumps = 10 10 inf 5", "finite centre"),
        ("offset = 5.0\nbumps = 10 10 1 0", "width above 0"),
        ("offset = 5.0\nbumps = 10 10 1 -5", "width above 0"),
        ("offset = 5.0\nbumps = 10 10 1 nan", "width above 0"),
        ("offset = 5.0\nbumps = 10 10 1 inf", "width above 0"),
    ],
)
def test_gaussian_sum_field_rejects_a_bad_setting(tmp_path, setting, pattern):
    (tmp_path / "poly.txt").write_text("0,0\n50,0\n50,50\n0,50\n")
    sc = tmp_path / "field.ini"
    sc.write_text(f"[mission]\n\n[field]\nkind = gaussian_sum\n{setting}\n\n[polygon]\nfile = poly.txt\n")
    with pytest.raises(ConfigError, match=pattern):
        load_scenario(sc)


@pytest.mark.parametrize("bumps", [((1.0, 2.0, "3", 4.0),), ((1.0, 2.0, 3.0),), (5.0,)], ids=["word", "three", "scalar"])
def test_gaussian_sum_field_rejects_a_bump_that_is_not_four_numbers(bumps):
    with pytest.raises(ConfigError, match="4 numbers"):
        GaussianSumField(offset=1.0, bumps=bumps)


def test_load_scenario_rejects_unknown_keys(tmp_path):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("0,0\n50,0\n50,50\n0,50\n")
    good = "[mission]\ntarget_depth = 3.0\n\n[field]\nkind = plane\noffset = 5.0\n\n[polygon]\nfile = poly.txt\n"
    sc = tmp_path / "ok.ini"
    sc.write_text(good)
    cfg, field, poly = load_scenario(sc)
    assert cfg.target_depth == 3.0
    assert isinstance(field, GaussianSumField)

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


#: a valid grid file: header x0,y0,dx,dy, then three rows of depths
GRID_LINES = [["0.0", "0.0", "2.0", "3.0"], ["1.0", "2.0", "3.0"], ["4.0", "5.0", "6.0"], ["7.0", "8.0", "9.0"]]


@given(mutations.mutated_lines(GRID_LINES))
def test_mutated_grid_loads_or_raises_config_error(tmp_path_factory, text):
    """A grid file with one defect loads or raises ConfigError, and a grid
    that loads passes or fails validate_field over its own extent with a
    typed error."""
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_text(text)
    try:
        grid = load_grid_field(path)
    except ConfigError:
        return
    ny, nx = grid.values.shape
    try:
        validate_field(grid, ((grid.x0, grid.y0), (grid.x0 + (nx - 1) * grid.dx, grid.y0 + (ny - 1) * grid.dy)))
    except (ConfigError, GeometryError):
        pass


#: a valid scenario: the sloped plane with one mound over a 60 m square,
#: one 'key=value' per line
SCENARIO_LINES = [
    ["[mission]"],
    ["target_depth", "4.5"],
    ["track_spacing", "8.0"],
    ["start", "30, 48"],
    ["init_duration", "3.0"],
    ["noise_std", "0.01"],
    ["seed", "3"],
    ["max_sim_time", "5.0"],
    ["[field]"],
    ["kind", "gaussian_sum"],
    ["offset", "7.0"],
    ["gradient_y", "-0.08"],
    ["bumps", "30 20 1 5"],
    ["[polygon]"],
    ["file", "square.txt"],
]


@settings(max_examples=120)
@given(mutations.mutated_lines(SCENARIO_LINES, sep="="))
def test_mutated_scenario_loads_or_exits_with_a_typed_error(tmp_path_factory, text):
    """A scenario with one defect loads or raises ConfigError or
    GeometryError, and `bathysurvey run` on it, held to 5 s of mission,
    exits with the code of a typed error or of the time limit."""
    base = tmp_path_factory.mktemp("scenario")
    (base / "square.txt").write_text("0,0\n60,0\n60,60\n0,60\n")
    path = base / "scenario.ini"
    path.write_text(text)
    try:
        load_scenario(path)
    except (ConfigError, GeometryError):
        pass
    code = main(["run", "--scenario", str(path), "--set", "max_sim_time=5", "--out", str(base / "run")])
    assert code in (2, 3, 5)


@pytest.mark.parametrize("header", ["0,0,nan,1", "nan,0,1,1", "0,inf,1,1", "0,0,1,-inf"])
def test_grid_field_rejects_a_non_finite_header(tmp_path, header):
    path = tmp_path / "grid.csv"
    path.write_text(f"{header}\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ConfigError, match="finite"):
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
    # the message named the start as (np.float64(-10.0), np.float64(-10.0))
    with pytest.raises(GeometryError, match=r"mission start \(-10\.0, -10\.0\) lies outside"):
        run_mission(cfg, GaussianSumField(offset=5.0), SQUARE)


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


#: a mission on a sloped plane whose deep region is the south half: its
#: refits fall at t = 40, 100 and 160 s, and its loop closes at t = 215 s
PLANE_FIELD = GaussianSumField(offset=7.0, gradient_y=-1.0 / 12.0)
PLANE_MISSION = MissionConfig(
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


def _plane_mission_until(max_sim_time: float):
    return run_mission(replace(PLANE_MISSION, max_sim_time=max_sim_time), PLANE_FIELD, SQUARE)


def _mission_digest(log) -> str:
    """sha256 of a mission's trace rows, soundings and hyper fits: every
    number as its float64 bytes, every mode as its name."""
    h = hashlib.sha256()
    for t, x, y, psi, mode, z, z_pred, found in log.trace:
        h.update(np.array([t, x, y, psi, z, z_pred, found], dtype=float).tobytes() + mode.encode())
    h.update(np.array(log.measurements, dtype=float).tobytes())
    for t, hypers, lml, converged, n in log.hyper_history:
        h.update(np.array([t, *hypers.as_array(), lml, converged, n], dtype=float).tobytes())
    return h.hexdigest()


#: _mission_digest of the plane mission, as PLAN_DIGESTS pins plans: a
#: change that moves any bit of its trajectory, soundings or fits must
#: say why
PLANE_MISSION_DIGEST = "70cb30e79af2c78bf3a3b3808cc8d02b04692f59b558326f01e3999893b39d80"


def test_plane_mission_is_pinned():
    log = _plane_mission_until(PLANE_MISSION.max_sim_time)
    assert _mission_digest(log) == PLANE_MISSION_DIGEST
    # the follower's trail holds the position of every row from first
    # contact to closure (this mission never clamps a pose)
    traced = [(x, y) for _, x, y, _, mode, _, _, found in log.trace if found and mode in ("contour", "boundary")]
    assert log.boundary_trace.tobytes() == np.array(traced).tobytes()


def test_plane_mission_tracks_and_walls():
    """Full mission on a sloped plane: the deep region is the south half.

    The vessel must find the 4.5 m contour, ride it into the east wall,
    walk the boundary around the deep side, close the loop, and mow the
    intersection. Steady contour tracking must hold the depth error
    within gradient * search_radius once captured.
    """
    field, cfg = PLANE_FIELD, PLANE_MISSION
    log = _plane_mission_until(cfg.max_sim_time)

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

    # coverage rows predict from the model as the loop closed: its last
    # steering hypers and the soundings up to closure, not those of the
    # water being surveyed
    traced = GpModel(steering[-1][1])
    sounded = np.array([m for m in log.measurements if m[0] <= closure_t])
    traced.append(sounded[:, 1:3], sounded[:, 3])
    coverage = np.array([(x, y, zp) for _, x, y, _, mode, _, zp, _ in log.trace if mode == "coverage"])
    assert len(coverage) > 100
    assert np.abs(coverage[:, 2] - traced.predict_mean(coverage[:, :2])).max() < 1e-6


def _canonical_at_half_scale(seed: int):
    """The packaged scenario at half scale: vertices, start, mound centres
    and widths halve and gradients double, so the seabed keeps its shape."""
    cfg, field, poly = canonical_scenario()
    field = GaussianSumField(
        offset=field.offset,
        gradient_x=2.0 * field.gradient_x,
        gradient_y=2.0 * field.gradient_y,
        bumps=tuple((cx / 2.0, cy / 2.0, amp, width / 2.0) for cx, cy, amp, width in field.bumps),
    )
    cfg = replace(cfg, seed=seed, start=(cfg.start[0] / 2.0, cfg.start[1] / 2.0))
    return cfg, field, Polygon(poly.vertices / 2.0)


#: _mission_digest of _canonical_at_half_scale(1), one mission of the
#: benchmark's gated canonical_half workload, pinned as the plane mission is
CANONICAL_HALF_DIGEST = "82cca3e761bc20e08b0990505340f2b98752ea56c2474a2d41fd6b11e3005196"


def test_canonical_half_mission_is_pinned():
    assert _mission_digest(run_mission(*_canonical_at_half_scale(1))) == CANONICAL_HALF_DIGEST


def test_a_mission_that_met_the_polygon_edge_closes_and_plans():
    # with this sonar noise the follower meets the south edge; a follower
    # whose modes flip on every tick there closes its loop on that
    # dithering trail, a 0.25 m strip the planner refuses as narrower than
    # the track spacing
    log = run_mission(*_canonical_at_half_scale(4010755824))
    assert log.aborted is None
    assert log.closed
    assert log.intersection.area > 1000.0
    assert len(log.plan.waypoints)
    assert any(row[4] == "boundary" for row in log.trace)


_T = np.linspace(0.0, 2.0 * math.pi, 80, endpoint=False)
_OUT = np.linspace(0.0, 10.0, 11)


@pytest.mark.parametrize(
    "loop, why",
    [
        # a figure eight: its simplified ring still crosses itself at the waist
        (np.column_stack([20.0 * np.sin(_T), 10.0 * np.sin(2.0 * _T)]), "self-intersects"),
        # out along a line and back 1 cm beside it: the simplified ring is
        # the line's two ends
        (np.column_stack([np.r_[_OUT, _OUT[-2:0:-1]], np.r_[np.zeros(11), np.full(9, 0.01)]]), "at least 3"),
    ],
    ids=["crossing", "two_points"],
)
def test_a_loop_that_does_not_simplify_to_a_polygon_is_a_geometry_error(loop, why):
    with pytest.raises(GeometryError, match=f"traced contour does not simplify.*{why}"):
        sim._trace_to_polygon(loop, 2.5)


def test_contour_refits_wait_for_the_soundings_to_grow(canonical_run):
    log, _ = canonical_run
    cfg = log.config
    closure_t = max(row[0] for row in log.trace if row[4] != "coverage")
    steering = [(t, n) for t, _, _, _, n in log.hyper_history if t < closure_t]
    for (_, n_prev), (_, n) in zip(steering, steering[1:]):
        assert n >= REFIT_GROWTH * n_prev
    # every due tick of the contour phase fits exactly when n has grown
    # enough since the last fit, and passes with no fit otherwise
    sounded = np.array([m[0] for m in log.measurements])
    expected = [steering[0]]
    for t in np.arange(cfg.init_duration + cfg.refit_period, closure_t, cfg.refit_period):
        n = int((sounded <= t).sum())
        if n >= REFIT_GROWTH * expected[-1][1]:
            expected.append((float(t), n))
    assert steering == expected
    assert len(steering) >= 4


def _recorded_fits(monkeypatch):
    """Record the soundings, options and result of every hyper fit a
    mission runs."""
    fits = []

    def recorded(model, **options):
        fits.append((model.n, options, gp.optimize_hypers(model, **options)))
        return fits[-1][2]

    monkeypatch.setattr(sim, "optimize_hypers", recorded)
    return fits


def test_a_fit_runs_on_the_bound_iff_it_has_more_than_inducing_soundings(monkeypatch):
    on_bound = set()  # soundings of the fits that evaluated the bound

    def bound_factor(lam, ell, yc, *distances, factor=gp._bound_factor):
        on_bound.add(len(yc))
        return factor(lam, ell, yc, *distances)

    monkeypatch.setattr(gp, "_bound_factor", bound_factor)
    fits = _recorded_fits(monkeypatch)
    log = run_mission(*_canonical_at_half_scale(1))
    assert log.aborted is None
    ns = [n for n, _, _ in fits]
    assert ns == [row[4] for row in log.hyper_history]
    # every fit asks for the same inducing inputs, the steering ones and the end fit alike
    assert [options for _, options, _ in fits] == [{"inducing": gp.INDUCING}] + [{"max_iter": 25, "inducing": gp.INDUCING}] * (len(fits) - 1)
    assert on_bound == {n for n in ns if n > gp.INDUCING}
    # fits on both sides of the rule, and steering fits on the bound
    closure_t = max(row[0] for row in log.trace if row[4] != "coverage")
    assert any(n <= gp.INDUCING for n in ns)
    assert any(n > gp.INDUCING and row[0] < closure_t for n, row in zip(ns, log.hyper_history))
    # with no refit due after the init fit, the mission-end fit still runs,
    # on the bound, since the soundings have grown by REFIT_GROWTH since then
    fits.clear()
    on_bound.clear()
    log = run_mission(replace(PLANE_MISSION, refit_period=2000.0), PLANE_FIELD, SQUARE)
    assert log.closed
    n_init = log.hyper_history[0][4]
    assert log.model.n >= REFIT_GROWTH * n_init
    assert [n for n, _, _ in fits] == [n_init, log.model.n]
    assert n_init <= gp.INDUCING < log.model.n
    assert on_bound == {log.model.n}


def test_every_row_logs_the_exact_likelihood_of_the_factor_it_applied(monkeypatch):
    # a row reads the likelihood of the factor set_hypers built, not the
    # value the fit maximised: the bound, or the exact likelihood of the
    # fit's own factorization. The mission-end row agrees with a fresh
    # factorization when that factor took no jitter
    jitters, applied = [], []

    def factored(st, xs, ys, jitter, factor=gp._factored):
        jitters.append(jitter)
        return factor(st, xs, ys, jitter)

    def set_hypers(model, hypers, apply=GpModel.set_hypers):
        apply(model, hypers)
        applied.append(model.snapshot())

    monkeypatch.setattr(gp, "_factored", factored)
    monkeypatch.setattr(GpModel, "set_hypers", set_hypers)
    fits = _recorded_fits(monkeypatch)
    log = run_mission(*_canonical_at_half_scale(1))
    assert log.aborted is None
    assert jitters and not any(jitters)
    assert [row[2] for row in log.hyper_history] == [st.log_likelihood() for st in applied]
    exact = log.model.log_marginal_likelihood().lml
    assert log.hyper_history[-1][2] == pytest.approx(exact, rel=1e-8)
    # an exact fit maximised the same likelihood, the bound lies below it
    for (n, _, fit), row in zip(fits, log.hyper_history, strict=True):
        if n > gp.INDUCING:
            assert fit.lml < row[2]
        else:
            assert fit.lml == pytest.approx(row[2], rel=1e-8)


def test_a_mission_aborted_in_coverage_delivers_every_sounding():
    log = _plane_mission_until(222.0)
    assert "in phase coverage" in log.aborted
    assert sum(row[4] == "coverage" for row in log.trace) == 7
    assert log.model.n == len(log.measurements) == len(log.trace)
    assert np.array_equal(log.model.train_y, [m[3] for m in log.measurements])
    # the refit due at t = 220 waits for a mission end that never comes
    assert [row[0] for row in log.hyper_history] == [40.0, 100.0, 160.0]
    assert log.model.hypers == log.hyper_history[-1][1]


def test_a_refit_applies_in_the_tick_that_logs_it():
    # the t = 100 refit's hypers waited for the next tick, where the time
    # limit aborted first: hypers.csv named hypers the model never had
    log = _plane_mission_until(100.0)
    assert "max_sim_time" in log.aborted
    assert [row[0] for row in log.hyper_history] == [40.0, 100.0]
    assert log.model.hypers == log.hyper_history[-1][1]


def test_sonar_noise_that_overflows_the_model_aborts_the_mission_at_once():
    # soundings near 1e308 left the model's weights inf: z_predicted read
    # NaN from the second tick, and the mission ran on until a sounding
    # itself overflowed
    cfg, field, poly = canonical_scenario()
    cfg = apply_overrides(cfg, {"noise_std": "1e308", "max_sim_time": "30"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_mission(cfg, field, poly)
    assert "weights overflow" in log.aborted
    assert len(log.trace) == log.model.n == len(log.measurements) == 1
    assert math.isfinite(log.trace[0][6])


def test_refit_period_past_mission_end_steers_on_the_init_fit_alone():
    field = GaussianSumField(offset=7.0, gradient_y=-1.0 / 12.0)
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
    log = run_mission(cfg, field, SQUARE)
    assert log.aborted is None and log.closed
    # no contour refit falls due; the mission-end fit follows the growth rule
    init, end = log.hyper_history
    assert init[0] == cfg.init_duration
    assert end[0] == log.trace[-1][0]
    assert end[4] == log.model.n >= REFIT_GROWTH * init[4]
    assert log.model.hypers == end[1]

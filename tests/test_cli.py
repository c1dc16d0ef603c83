"""CLI subcommands: exit codes, artifacts, and manifests."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from bathysurvey import cli
from bathysurvey.cli import main

SQUARE_TXT = "0,0\n60,0\n60,60\n0,60\n"

PLANE_SCENARIO = """\
[mission]
target_depth = 4.5
search_radius = 5.0
track_spacing = 8.0
start = 30, 48
refit_period = 60.0
init_duration = 40.0
noise_std = 0.01
seed = 3
max_sim_time = 1500.0

[field]
kind = plane
offset = 7.0
gradient_y = -0.0833333333333333

[polygon]
file = square.txt
"""


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TXT)
    return path


def test_run_scenario_completes(tmp_path, square_file, capsys):
    sc = tmp_path / "plane.ini"
    sc.write_text(PLANE_SCENARIO)
    out = tmp_path / "mission"
    # the constant-mean model fits the sloped plane only along an unbounded
    # ridge, so a late refit may stop early; whether one does turns on
    # rounding, which moves with the BLAS thread count. test_gp covers the
    # warning itself; here it is allowed, and no other warning is.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--scenario", str(sc), "--out", str(out)])
    others = [w for w in caught if not (w.category is RuntimeWarning and "hyper fit stopped early" in str(w.message))]
    assert others == []
    stdout = capsys.readouterr().out
    assert code == 0
    assert "contour closed: True" in stdout
    for name in ("manifest.json", "trace.csv", "measurements.csv", "boundary.geojson", "plan.csv", "intersection.txt"):
        assert (out / name).exists()
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["command"] == "run"
    assert doc["config"]["seed"] == 3


def test_run_timeout_exits_5_after_manifest(tmp_path, capsys):
    out = tmp_path / "mission"
    code = main(["run", "--set", "max_sim_time=30", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 5
    assert "aborted" in captured.err
    # manifest was written before execution started
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["scenario"] == "packaged canonical"
    assert doc["overrides"] == {"max_sim_time": "30"}
    assert (out / "trace.csv").exists()


def test_run_manifest_records_the_outcome(tmp_path, capsys):
    out = tmp_path / "mission"
    code = main(["run", "--set", "max_sim_time=10", "--out", str(out)])
    capsys.readouterr()
    assert code == 5
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["command"] == "run" and doc["overrides"] == {"max_sim_time": "10"}
    assert "max_sim_time=10" in doc["aborted"]
    assert doc["closed"] is False and doc["sim_time"] == pytest.approx(11.0)
    assert sorted(doc["files"]) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_run_seed_flag_overrides(tmp_path, capsys):
    out = tmp_path / "mission"
    code = main(["run", "--set", "max_sim_time=10", "--seed", "99", "--out", str(out)])
    capsys.readouterr()
    assert code == 5
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["config"]["seed"] == 99


def test_run_bad_setting_exits_2(tmp_path, capsys):
    code = main(["run", "--set", "warp_speed=9", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_a_mission_of_too_many_ticks_exits_2_at_once(tmp_path, capsys, monkeypatch):
    # 5 s at 1e9 Hz is 5e9 ticks: it ran for days instead of erring
    def never(*args):
        raise AssertionError("the mission started")

    monkeypatch.setattr(cli, "run_mission", never)
    t0 = time.perf_counter()
    code = main(["run", "--set", "control_rate=1e9", "--set", "max_sim_time=5", "--out", str(tmp_path / "x")])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert "max_sim_time" in err and "Traceback" not in err


def test_run_with_a_negative_zero_noise_runs_without_noise(tmp_path, capsys):
    # numpy's normal() refused the -0.0 scale that passed the >= 0 check
    out = tmp_path / "mission"
    code = main(["run", "--set", "noise_std=-0", "--set", "max_sim_time=10", "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    assert code == 5  # the time limit, not the sonar
    with open(out / "manifest.json") as fh:
        noise = json.load(fh)["config"]["noise_std"]
    assert noise == 0.0 and math.copysign(1.0, noise) == 1.0


def test_partition_writes_cells(tmp_path, square_file, capsys):
    out = tmp_path / "part"
    code = main(["partition", "--polygon", str(square_file), "--delta", "10", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "1 monotone cells" in stdout
    with open(out / "cells.geojson") as fh:
        doc = json.load(fh)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 1


def test_partition_error_codes(tmp_path, capsys):
    code = main(["partition", "--polygon", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "a")])
    assert code == 2
    bow = tmp_path / "bow.txt"
    bow.write_text("0,0\n10,1\n10,0\n0,10\n")
    code = main(["partition", "--polygon", str(bow), "--out", str(tmp_path / "b")])
    assert code == 3
    assert "geometry error" in capsys.readouterr().err
    square = tmp_path / "sq.txt"
    square.write_text(SQUARE_TXT)
    assert main(["partition", "--polygon", str(square), "--delta", "-1", "--out", str(tmp_path / "c")]) == 2


def test_plan_rejects_a_nan_vertex(tmp_path, capsys):
    poly = tmp_path / "poly.txt"
    poly.write_text("0,0\n10,0\n10,nan\n0,10\n")
    assert main(["plan", "--polygon", str(poly), "--out", str(tmp_path / "p")]) == 3
    assert "finite" in capsys.readouterr().err


def test_plan_rejects_a_one_vertex_polygon(tmp_path, capsys):
    poly = tmp_path / "poly.txt"
    poly.write_text("5,5\n")
    assert main(["plan", "--polygon", str(poly), "--out", str(tmp_path / "p")]) == 3
    assert "at least 3 distinct vertices" in capsys.readouterr().err


def test_run_grid_with_a_nan_spacing_exits_2(tmp_path, square_file, capsys):
    (tmp_path / "grid.csv").write_text("0,0,nan,1\n" + "5.0,5.0\n" * 2)
    sc = tmp_path / "grid.ini"
    sc.write_text(PLANE_SCENARIO.replace("kind = plane\noffset = 7.0\ngradient_y = -0.0833333333333333", "kind = grid\nfile = grid.csv"))
    assert main(["run", "--scenario", str(sc), "--out", str(tmp_path / "m")]) == 2
    assert "finite" in capsys.readouterr().err


def test_run_with_a_zero_bump_width_exits_2(tmp_path, square_file, capsys):
    sc = tmp_path / "bump.ini"
    sc.write_text(PLANE_SCENARIO.replace("kind = plane", "kind = gaussian_sum\nbumps = 30 30 2 0"))
    assert main(["run", "--scenario", str(sc), "--out", str(tmp_path / "m")]) == 2
    assert "width above 0" in capsys.readouterr().err


def test_plan_artifacts_and_start(tmp_path, square_file, capsys):
    out = tmp_path / "plan"
    code = main(["plan", "--polygon", str(square_file), "--delta", "8", "--start", "5,5", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "waypoints" in stdout
    for name in ("manifest.json", "plan.csv", "path.geojson", "cells.geojson"):
        assert (out / name).exists()
    # default start: the first polygon vertex
    code = main(["plan", "--polygon", str(square_file), "--delta", "8", "--out", str(tmp_path / "p2")])
    capsys.readouterr()
    assert code == 0
    # start outside the polygon is a geometry error
    code = main(["plan", "--polygon", str(square_file), "--start=-5,-5", "--out", str(tmp_path / "p3")])
    assert code == 3
    capsys.readouterr()


def test_gp_fit_checkpoint(tmp_path, capsys):
    rng = np.random.default_rng(60)
    pts = rng.uniform(0, 50, (40, 2))
    z = 5.0 + 0.05 * pts[:, 0] + rng.normal(0, 0.05, 40)
    data = tmp_path / "soundings.csv"
    data.write_text("x,y,depth\n" + "\n".join(f"{p[0]},{p[1]},{v}" for p, v in zip(pts, z)))
    out = tmp_path / "fit"
    code = main(["gp-fit", str(data), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "sigma_f=" in stdout and "length_scale=" in stdout
    assert (out / "gp_checkpoint.csv").exists()

    assert main(["gp-fit", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "f2")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    assert main(["gp-fit", str(bad), "--out", str(tmp_path / "f3")]) == 2
    capsys.readouterr()


def test_gp_fit_reads_a_first_row_in_exponent_form(tmp_path, capsys):
    data = tmp_path / "soundings.csv"
    data.write_text("1e-3,0,5.0\n10,0,5.2\n0,10,4.9\n10,10,5.1\n")
    assert main(["gp-fit", str(data), "--out", str(tmp_path / "fit")]) == 0
    assert "fitted 4 points" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "plan", "gp-fit"])
def test_unwritable_output_exits_2(tmp_path, square_file, capsys, command):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    data = tmp_path / "soundings.csv"
    data.write_text("x,y,depth\n0,0,5.0\n10,0,5.2\n0,10,4.9\n")
    args = {"run": ["run"], "plan": ["plan", "--polygon", str(square_file)], "gp-fit": ["gp-fit", str(data)]}[command]
    assert main([*args, "--out", str(blocker / "sub")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bench_ops_prints_model_ratio(tmp_path, capsys):
    code = main(["bench-ops", "500", "50", "--out", str(tmp_path / "bench")])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "model op ratio (sequential/batch): 37.8" in stdout
    assert "measured wall-time ratio" in stdout
    assert main(["bench-ops", "0", "5", "--out", str(tmp_path / "b2")]) == 2
    capsys.readouterr()


def test_out_env_default(tmp_path, square_file, capsys, monkeypatch):
    monkeypatch.setenv("BATHYSURVEY_OUT", str(tmp_path / "root"))
    code = main(["partition", "--polygon", str(square_file)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "root" / "partition" / "cells.geojson").exists()

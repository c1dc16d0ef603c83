"""The one text format: exact artifact bytes and the shared input grammar."""

import json
import re

import numpy as np
import pytest

from bathysurvey.cli import _load_points
from bathysurvey.coverage import plan_coverage
from bathysurvey.errors import ConfigError
from bathysurvey.geometry import Polygon, load_polygon
from bathysurvey.gp import GpModel, HyperParams
from bathysurvey.sim import MissionConfig, MissionLog, load_grid_field

RECT = Polygon([(0.0, 0.0), (20.0, 0.0), (20.0, 10.0), (0.0, 10.0)])
H = HyperParams(2.0, 0.01, 8.0)

# the exact text of each CSV and text artifact of _hand_built_log(); a change
# here is a change of the artifact format
EXPECTED_TEXT = {
    "trace.csv": (
        "t,x,y,psi,mode,z_measured,z_predicted,found_contour\n"
        "0.0,1.0,2.0,0.5,init,5.0,nan,0\n"
        "1.5,1.25,2.0,-0.125,contour,nan,4.875,1\n"
        "2.0,3.0,0.1,0.0,boundary,6.0,0.001,1\n"
    ),
    "measurements.csv": "t,x,y,depth\n0.0,1.0,2.0,5.0\n1.5,3.0,2.0,5.5\n",
    "hypers.csv": "t,sigma_f2,sigma_n2,length_scale,lml,converged,n\n40.0,2.0,0.01,8.0,-3.25,1,3\n",
    "plan.csv": (
        "index,x,y,label\n"
        "0,1.0,1.0,transit\n"
        "1,3.0,3.0,transit\n"
        "2,5.0,5.0,transit\n"
        "3,10.0,5.0,lawnmower\n"
        "4,15.0,5.000000000000001,lawnmower\n"
    ),
    "intersection.txt": (
        "# polygon vertices, one 'x,y' per line, counter-clockwise\n0.0,0.0\n20.0,0.0\n20.0,10.0\n0.0,10.0\n"
    ),
    "gp_checkpoint.csv": (
        "sigma_f2,sigma_n2,length_scale,subtract_mean\n2.0,0.01,8.0,1\nx,y,depth\n1.0,2.0,5.0\n3.5,2.0,5.5\n1.0,4.25,4.75\n"
    ),
}


def _hand_built_log() -> MissionLog:
    """A log whose rows mix Python, numpy and flag types, as missions and callers do."""
    model = GpModel(H, subtract_mean=True)
    model.append(np.array([[1.0, 2.0], [3.5, 2.0], [1.0, 4.25]]), np.array([5.0, 5.5, 4.75]))
    plan = plan_coverage(RECT, (1.0, 1.0), 5.0, 0.0)
    nan = float("nan")
    return MissionLog(
        config=MissionConfig(),
        config_hash="0" * 64,
        field_summary={"kind": "plane", "offset": 5.0},
        trace=[
            (0.0, 1.0, 2.0, 0.5, "init", 5.0, nan, False),
            (np.float64(1.5), np.float64(1.25), 2.0, np.float64(-0.125), "contour", nan, np.float64(4.875), np.bool_(True)),
            (np.int64(2), np.int64(3), np.float64(0.1), 0, "boundary", np.int64(6), 1e-3, 1),
        ],
        measurements=[(0.0, 1.0, 2.0, 5.0), (np.float64(1.5), np.int64(3), 2.0, np.float64(5.5))],
        hyper_history=[(40.0, H, -3.25, np.bool_(True), np.int64(3))],
        boundary_trace=np.array([[1.0, 2.0], [3.5, 2.0]]),
        intersection=RECT,
        cells=plan.cells,
        plan=plan,
        model=model,
        closed=True,
        sim_time=2.0,
    )


def test_artifacts_keep_their_bytes(tmp_path):
    out = tmp_path / "log"
    written = _hand_built_log().save(out)
    assert written == [
        "trace.csv",
        "measurements.csv",
        "hypers.csv",
        "boundary.geojson",
        "cells.geojson",
        "plan.csv",
        "path.geojson",
        "intersection.txt",
        "gp_checkpoint.csv",
        "manifest.json",
    ]
    for name, text in EXPECTED_TEXT.items():
        assert (out / name).read_text(encoding="utf-8") == text, name
    # JSON: two-space indent, no trailing newline, keys sorted only in the manifest
    for name in ("boundary.geojson", "cells.geojson", "path.geojson", "manifest.json"):
        text = (out / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=name == "manifest.json"), name
    assert json.loads((out / "boundary.geojson").read_text())["geometry"]["coordinates"] == [[1.0, 2.0], [3.5, 2.0]]
    assert json.loads((out / "manifest.json").read_text())["files"] == written[:-1]

    again = tmp_path / "again.csv"
    GpModel.load_checkpoint(out / "gp_checkpoint.csv").save_checkpoint(again)
    assert again.read_text(encoding="utf-8") == EXPECTED_TEXT["gp_checkpoint.csv"]


def _polygon(path):
    return np.asarray(load_polygon(path).vertices).ravel().tolist()


def _grid(path):
    f = load_grid_field(path)
    return [f.x0, f.y0, f.dx, f.dy, *np.asarray(f.values).ravel()]


def _checkpoint(path):
    m = GpModel.load_checkpoint(path)
    return [*m.hypers.as_array(), *np.column_stack([m.train_x, m.train_y]).ravel()]


def _points(path):
    xy, z = _load_points(path)
    return np.column_stack([xy, z]).ravel().tolist()


# each reader: a file using comments, inline comments and both separators,
# the numbers it holds, and a file whose given line holds a bad number
READERS = {
    "polygon": (
        _polygon,
        "# survey box\n0 0   # origin\n60,0\n\n60 60\n0,\t60\n",
        [0, 0, 60, 0, 60, 60, 0, 60],
        "0,0\n60,0\n60,6o\n0,60\n",
        3,
    ),
    "grid field": (
        _grid,
        "# grid\n0 0 2 3  # x0 y0 dx dy\n1, 2 3\n\n4 5,6 # north row\n",
        [0, 0, 2, 3, 1, 2, 3, 4, 5, 6],
        "0,0,2,3\n1,2,3\n4,five,6\n",
        3,
    ),
    "checkpoint": (
        _checkpoint,
        "sigma_f2,sigma_n2,length_scale\n# hypers\n2.0 0.01 8.0\nx,y,depth\n1 2 5.0  # first\n\n3.5,2,5.5\n",
        [2.0, 0.01, 8.0, 1, 2, 5.0, 3.5, 2, 5.5],
        "sigma_f2,sigma_n2,length_scale\n2.0,0.01,8.0\nx,y,depth\n1,2,5.0\n3.5,2,?\n",
        5,
    ),
    "points": (
        _points,
        "x y depth  # header\n# soundings\n1 2 5\n\n3.5, 2, 5.5  # second\n",
        [1, 2, 5, 3.5, 2, 5.5],
        "x,y,depth\n1,2,5\n3.5,2,5..5\n",
        3,
    ),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_share_one_grammar(tmp_path, kind):
    read, text, numbers, bad_text, bad_line = READERS[kind]
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert read(path) == pytest.approx(numbers)
    path.write_text(bad_text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}:{bad_line}:")):
        read(path)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_unreadable_manifest_is_a_config_error(tmp_path, text):
    out = tmp_path / "log"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    with pytest.raises(ConfigError, match="manifest.json"):
        _hand_built_log().save(out)

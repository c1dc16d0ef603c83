"""Self-test of the benchmark at smoke size: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run  # puts this checkout's src/ first on sys.path
import tracing
import workloads
from bathysurvey import gp, sim

HERE = Path(__file__).resolve().parent
SMOKE_POLYGONS = 8


def smoke_mission(seed: int):
    """The first mission of a canonical_half run: a few seconds."""
    cfg, field, poly = workloads.canonical_half(seed)
    return replace(cfg, seed=workloads.mission_seed(seed, 0)), field, poly


def mission_facts(m: workloads.Mission) -> tuple:
    log = m.log
    hypers = [(t, h, lml, conv, n) for t, h, lml, conv, n in log.hyper_history]
    return m.error, log.sim_time, log.model.n, hypers, m.depth_rmse_m, len(log.plan.waypoints)


def test_same_seed_same_mission():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = workloads.run_mission(*smoke_mission(3))
        second = workloads.run_mission(*smoke_mission(3))
    assert first.error is None, first.error
    assert mission_facts(first) == mission_facts(second)
    assert len(first.ticks) == len(first.log.trace)
    assert first.ticks.sum() == pytest.approx(first.wall_s)


def test_same_seed_same_plans():
    jobs = workloads.plan_sweep(5, SMOKE_POLYGONS)
    again = workloads.plan_sweep(5, SMOKE_POLYGONS)
    other = workloads.plan_sweep(6, SMOKE_POLYGONS)
    assert all(np.array_equal(a.vertices, b.vertices) and da == db for (a, da), (b, db) in zip(jobs, again))
    assert not np.array_equal(jobs[0][0].vertices, other[0][0].vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, first = workloads.sweep_pass(jobs)
        _, second = workloads.sweep_pass(again)

    def facts(plans):
        return [(p.error, p.plan.total_length if p.plan else None, len(p.steps)) for p in plans]

    assert facts(first) == facts(second)
    for p in first:
        assert p.steps.sum() == pytest.approx(p.seconds)


def test_turning_a_polygon_keeps_its_plan():
    """Seeds turn the same shapes; the plans keep their shape and length."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plans = [workloads.sweep_pass(workloads.plan_sweep(seed, SMOKE_POLYGONS))[1] for seed in (5, 6)]
    for a, b in zip(*plans):
        assert a.error == b.error
        if a.error is None:
            assert len(a.plan.waypoints) == len(b.plan.waypoints)
            assert a.plan.total_length == pytest.approx(b.plan.total_length, rel=1e-6)
    for poly, sweep_dir in workloads.plan_sweep(5, SMOKE_POLYGONS):
        assert -np.pi / 2 <= sweep_dir < np.pi / 2


def test_cycle_repeats_from_the_first_item():
    calls = []
    results = run.cycle(3, lambda i: calls.append(i) or i, 0.0)
    assert calls == [0, 1, 2] and results == [[0], [1], [2]]


def test_traced_mission_fires_every_wrapper_and_restores_bindings():
    tracer = tracing.Tracer()
    with warnings.catch_warnings(), tracing.installed(tracer):
        warnings.simplefilter("ignore")
        m = workloads.run_mission(*smoke_mission(3), root=tracer.root)
    assert sim.GpModel is gp.GpModel and sim.optimize_hypers is gp.optimize_hypers
    totals = tracing.layer_totals(tracer, tracing.MISSION_SPANS)
    assert totals["wall_s"] == pytest.approx(m.wall_s, rel=1e-3)
    assert sum(tracer.self_times()) == pytest.approx(totals["wall_s"])
    assert totals["calls"]["gp.append"] == m.log.model.n
    assert totals["calls"]["sim.step_vessel"] == len(m.log.trace) - 1


def test_missing_wrapper_fails_loudly():
    tracer = tracing.Tracer()
    with tracer.root("sweep"):
        pass
    with pytest.raises(RuntimeError, match="never fired"):
        tracing.layer_totals(tracer, tracing.PLAN_SPANS)


def test_fallback_warnings_counted_by_source():
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        warnings.warn_explicit("skipping cell 3: too thin", UserWarning, "coverage.py", 1)
        warnings.warn_explicit("hyper fit stopped early (x)", RuntimeWarning, "gp.py", 1)
        warnings.warn_explicit("something else", UserWarning, "gp.py", 1)
    assert run.count_fallbacks(warned) == {"gp": 1, "contour": 0, "coverage": 1, "other": 1}


def test_percentile_counts_failures_as_slowest():
    assert run.percentile([1.0, 2.0, 3.0], 1, 50) == 2.0
    with pytest.raises(RuntimeError):
        run.percentile([1.0], 2, 50)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "plan_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

"""Mission-level benchmark of bathysurvey, with an optional per-layer trace.

    python3 benchmarks/run.py --workload canonical_half --seed 1 --seconds 45 --trace 0

Runs one workload from this checkout's ``src/`` (no install needed) in
one thread, checks every operation's output, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Workloads (see workloads.py):

- ``canonical_half``: the canonical scenario at half scale, one mission
  per 2.8 s of ``--seconds``, each with its own sonar-noise seed; hyper
  refits dominate.
- ``plan_sweep``: coverage plans of 2 star polygons per second of
  ``--seconds``, a fixed mix of shapes that the seed turns; coverage
  and geometry do all the work.
- ``canonical_mission`` and ``long_survey`` (the packaged scenario, and
  the scenario at 1.5x scale with one hyper fit): one mission takes 35
  to 60 s and its figures swing with the seed, so BENCHMARK.json leaves
  them out; run them by hand to profile those missions, traced or with
  a small ``--seconds`` (they too make one mission per 2.8 s of it, and
  at least two).

A run makes the operations of its inputs once, then repeats them from
the first input until ``--seconds`` have passed, and averages each
operation's timings over its repeats. So ``attempted`` and ``failed``
count operations on distinct inputs and depend only on the seed and
``--seconds``; a repeat must reproduce its input's first outcome.

With ``--trace 0`` it prints the end-to-end metrics. Each applies to
every workload; plan_sweep reads the whole set of polygons as a mission
and a greedy step of the planner (reach a cell, mow it) as a tick:

- ``mission_wall_s``: median wall time of a mission (plan_sweep: the
  time to plan every polygon once, failed plans included);
- ``tick_p50_ms``, ``tick_p99_ms``: compute time per control tick, split
  at each call to ``sim.step_vessel`` (per planner step, split at each
  call to ``coverage.lawnmower_cell``);
- ``survey_sim_s``: median simulated time to finish a survey (plan_sweep:
  median plan length at the mission speed of 1 m/s);
- ``depth_rmse_m``: median RMSE of the final posterior mean against the
  true depth on a 4 m grid inside the traced contour (plan_sweep: median
  over plans of the 95th percentile distance from a 4 m grid over the
  polygon to the nearest waypoint, a coverage gap);
- ``plan_p50_ms``, ``plan_p90_ms``: per coverage plan; a mission
  workload plans each mission's traced polygon again at 24 sweep
  directions;
- ``plans_per_s``: plans that passed per second spent planning, the
  time of failed plans included;
- ``peak_rss_mb``: peak resident memory of this process;
- ``setup_s``: median over this and four fresh processes of importing
  the package and building the workload's inputs, as measured;
- ``success_frac``: operations (missions, their replans, plans) that
  passed their checks over those attempted.

The host's speed drifts by 15% from minute to minute, so the measured
times and rates above are reported at the nominal speed of a fixed
kernel timed between operations (speed.py): measured time x nominal
kernel time / median kernel time of the run. The factor goes to stderr.

A failed mission or plan counts as slower than every one that passed in
``mission_wall_s`` and the plan percentiles, and its ticks are left out;
a run where failures reach a reported percentile exits with an error
instead of a number. With ``--trace 1`` it runs one operation untraced
and the same one traced (plan_sweep: one pass over its polygons), and prints
per-layer metrics named ``<module>.<function>.<quantity>`` instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: BLAS threads, fixed so that runs on different commits compare
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path[:0] = [str(SRC), str(HERE)]
# numpy and the package are imported inside functions: setup() times their import

WORKLOADS = ("canonical_half", "plan_sweep", "canonical_mission", "long_survey")
#: fresh processes whose set-up time joins this process's own in setup_s
SETUP_CHILDREN = 4
#: missions a traced run tries, untraced, to find one that passes (and
#: plan_sweep polygons it warms up on)
TRACE_TRIES = 5


def setup(workload: str, seed: int, seconds: float):
    """Import the package and build the workload's inputs for a run of
    `seconds` (plan_sweep plans more polygons in a longer run).

    Returns (seconds taken, inputs). Fails when the import does not
    resolve to this checkout's ``src/``.
    """
    t0 = time.perf_counter()
    import bathysurvey

    if Path(bathysurvey.__file__).resolve().parent != (SRC / "bathysurvey").resolve():
        raise SystemExit(f"bathysurvey resolved to {bathysurvey.__file__}, not to {SRC}")
    import workloads

    if workload == "plan_sweep":
        inputs = workloads.plan_sweep(seed, workloads.sweep_count(seconds))
    else:
        inputs = getattr(workloads, workload)(seed)
    return time.perf_counter() - t0, inputs


def setup_seconds(workload: str, seed: int, seconds: float, own: float) -> float:
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def percentile(values, failed: int, q: float) -> float:
    """q-th percentile with `failed` extra samples counted as infinitely slow."""
    import numpy as np

    x = np.concatenate([np.asarray(values, dtype=float), np.full(failed, np.inf)])
    if len(x) == 0:
        raise RuntimeError("no operation to take a percentile of")
    # nearest-rank on the sorted samples, so an infinite sample is never interpolated
    v = float(np.sort(x)[min(len(x) - 1, max(0, math.ceil(q / 100.0 * len(x)) - 1))])
    if not math.isfinite(v):
        raise RuntimeError(f"{failed} of {len(x)} operations failed: the p{q:g} is a failure")
    return v


class Outcome:
    """Attempted / failed counts and whether every returned output was
    right. Missions, plans and a mission's replans each count as one
    operation."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.errors: dict = {}

    def add(self, op) -> bool:
        self.attempted += 1
        if op.error is None:
            return True
        self.failed += 1
        self.correct &= not op.wrong
        self.errors[op.error] = self.errors.get(op.error, 0) + 1
        return False


# -- end-to-end ---------------------------------------------------------------


def cycle(count: int, run_one, seconds: float, between=lambda: None) -> list:
    """Run items 0..count-1 once each, then again from item 0 on until
    `seconds` have passed since the start, calling `between` after each.
    Returns each item's results.

    The items, and so what is attempted and what fails, depend only on
    the seed and `seconds`; the repeats only re-time the same inputs.
    """
    t_start = time.perf_counter()
    results = [[] for _ in range(count)]
    for k in itertools.count():
        if k >= count and time.perf_counter() - t_start >= seconds:
            break
        results[k % count].append(run_one(k % count))
        between()
    return results


def check_repeats(reps: list, facts, outcome: "Outcome") -> list:
    """A repeat must reproduce its input's first outcome; returns the
    runs to time the input by (only the first one if a repeat differs)."""
    if all(facts(r) == facts(reps[0]) for r in reps[1:]):
        return reps
    outcome.correct = False
    error = "a repeat did not reproduce its input's first run"
    outcome.errors[error] = outcome.errors.get(error, 0) + 1
    return reps[:1]


def mission_facts(m) -> tuple:
    return m.error, len(m.ticks), m.sim_time, m.model_n, [p.error for p in m.replans]


def plan_facts(p) -> tuple:
    return p.error, None if p.plan is None else p.plan.waypoints.tobytes()


def run_missions(inputs, seconds: float, outcome: "Outcome", reference) -> dict:
    """workloads.mission_count(seconds) missions, each with its own
    sonar-noise seed, then the first ones again until `seconds` are up.

    Timings are scaled to the speed reference's nominal speed and
    averaged over an input's repeats. A failed mission is fast, so it
    counts as slower than every mission that passed in mission_wall_s;
    its ticks and plans are left out.
    """
    import numpy as np
    import workloads

    cfg, field, poly = inputs

    def one(i):
        t0 = time.perf_counter()
        m = workloads.run_mission(replace(cfg, seed=workloads.mission_seed(cfg.seed, i)), field, poly)
        m.replans = workloads.replan_mission(m) if m.error is None else []
        m.span = (t0, time.perf_counter())
        m.sim_time, m.model_n = m.log.sim_time, m.log.model.n
        m.log = None  # a run holds one mission's model at a time, as a survey would
        return m

    walls, ticks, sim_s, rmse, plan_ms = [], [], [], [], []
    failed_missions = failed_plans = 0
    failed_ms = 0.0  # time spent on plans that failed
    for reps in cycle(workloads.mission_count(seconds), one, seconds, reference.keep_up):
        reps = check_repeats(reps, mission_facts, outcome)
        m = reps[0]
        if not outcome.add(m):
            failed_missions += 1
            continue
        scales = [reference.scale(*r.span) for r in reps]
        walls.append(statistics.fmean(r.wall_s * f for r, f in zip(reps, scales)))
        ticks.append(np.mean([r.ticks * f for r, f in zip(reps, scales)], axis=0))
        sim_s.append(m.sim_time)
        rmse.append(m.depth_rmse_m)
        for k, p in enumerate(m.replans):
            ms = 1e3 * statistics.fmean(r.replans[k].seconds * f for r, f in zip(reps, scales))
            if outcome.add(p):
                plan_ms.append(ms)
            else:
                failed_plans += 1
                failed_ms += ms
    tick_ms = 1e3 * np.concatenate(ticks)
    return {
        "mission_wall_s": (percentile(walls, failed_missions, 50), "s"),
        "tick_p50_ms": (percentile(tick_ms, 0, 50), "ms"),
        "tick_p99_ms": (percentile(tick_ms, 0, 99), "ms"),
        "survey_sim_s": (statistics.median(sim_s), "s"),
        "depth_rmse_m": (statistics.median(rmse), "m"),
        "plan_p50_ms": (percentile(plan_ms, failed_plans, 50), "ms"),
        "plan_p90_ms": (percentile(plan_ms, failed_plans, 90), "ms"),
        "plans_per_s": (len(plan_ms) / (1e-3 * (sum(plan_ms) + failed_ms)), "1/s"),
    }


def run_sweeps(jobs, seconds: float, outcome: "Outcome", reference) -> dict:
    """Plan every polygon once, then the first ones again until
    `seconds` are up.

    Timings are scaled to the speed reference's nominal speed and
    averaged over a polygon's repeats. A failed plan counts as slower
    than every plan that passed in the plan percentiles, and its time
    but not the plan in plans_per_s; its greedy steps are left out of
    the tick ones.
    """
    import numpy as np
    import workloads

    with workloads.step_stamps() as stamps:

        def one(i):
            poly, sweep_dir = jobs[i]
            return workloads.check_plan(workloads.plan_polygon(poly, sweep_dir, stamps), poly)

        results = cycle(len(jobs), one, seconds, reference.keep_up)
    plan_ms, steps, lengths, gaps = [], [], [], []
    failed_plans = 0
    failed_ms = 0.0  # time spent on plans that failed
    for reps, (poly, _) in zip(results, jobs):
        reps = check_repeats(reps, plan_facts, outcome)
        p = reps[0]
        scales = [reference.scale(r.started, r.started + r.seconds) for r in reps]
        ms = 1e3 * statistics.fmean(r.seconds * f for r, f in zip(reps, scales))
        if not outcome.add(p):
            failed_plans += 1
            failed_ms += ms
            continue
        plan_ms.append(ms)
        steps.append(np.mean([r.steps * f for r, f in zip(reps, scales)], axis=0))
        lengths.append(p.plan.total_length)
        gaps.append(workloads.coverage_gap(p.plan, poly))
    step_ms = 1e3 * np.concatenate(steps)
    return {
        "mission_wall_s": (1e-3 * (sum(plan_ms) + failed_ms), "s"),
        "tick_p50_ms": (percentile(step_ms, 0, 50), "ms"),
        "tick_p99_ms": (percentile(step_ms, 0, 99), "ms"),
        "survey_sim_s": (statistics.median(lengths) / workloads.SWEEP_SPEED, "s"),
        "depth_rmse_m": (statistics.median(gaps), "m"),
        "plan_p50_ms": (percentile(plan_ms, failed_plans, 50), "ms"),
        "plan_p90_ms": (percentile(plan_ms, failed_plans, 90), "ms"),
        "plans_per_s": (len(plan_ms) / (1e-3 * (sum(plan_ms) + failed_ms)), "1/s"),
    }


# -- traced -------------------------------------------------------------------


def run_traced(workload: str, inputs, outcome: Outcome, warned: list) -> dict:
    """One untraced then one traced operation; per-layer metrics of the latter.

    A mission workload traces the run's first mission that passes its
    checks untraced, so that every layer fires; the failed ones before
    it count as failures. That first pass also warms the process up, so
    the untraced reference for trace.overhead_frac is timed warm, as is
    the traced operation; plan_sweep warms up on a few polygons.
    """
    import numpy as np
    import tracing
    import workloads

    mission = workload != "plan_sweep"
    phase = {"init": 0.0, "contour": 0.0, "coverage": 0.0}
    if mission:
        cfg, field, poly = inputs
        for i in range(TRACE_TRIES):
            inputs = (replace(cfg, seed=workloads.mission_seed(cfg.seed, i)), field, poly)
            untraced = workloads.run_mission(*inputs)
            if outcome.add(untraced):
                break
        else:
            raise RuntimeError(f"none of the first {TRACE_TRIES} missions passed its checks")
        untraced_wall = workloads.run_mission(*inputs).wall_s
    else:
        workloads.sweep_pass(inputs[:TRACE_TRIES])
        untraced_wall, plans = workloads.sweep_pass(inputs)
        for p in plans:
            outcome.add(p)
    del warned[:]  # count fallbacks of the traced operation only
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        if mission:
            m = workloads.run_mission(*inputs, root=tracer.root)
            outcome.add(m)
            for row, tick in zip(m.log.trace, m.ticks):
                phase[row[4] if row[4] in phase else "contour"] += tick  # contour and boundary modes
        else:
            plans = workloads.sweep_pass(inputs, root=tracer.root)[1]
            for p in plans:
                outcome.add(p)
    totals = tracing.layer_totals(tracer, tracing.MISSION_SPANS if mission else tracing.PLAN_SPANS)
    calls, secs, self_s = totals["calls"], totals["s"], totals["self_s"]
    counts = tracer.counts
    spans = tracer.spans
    fallbacks = count_fallbacks(warned)

    def durations(name):
        return np.array([end - start for n, start, end, _ in spans if n == name])

    fits = durations("gp.optimize_hypers")
    appends = durations("gp.append")
    evals = counts["gp.optimize_hypers.evals"]
    out = {
        "gp.optimize_hypers.calls": (calls["gp.optimize_hypers"], "count"),
        "gp.optimize_hypers.s": (secs["gp.optimize_hypers"], "s"),
        "gp.optimize_hypers.evals": (evals, "count"),
        "gp.optimize_hypers.ms_per_eval": (1e3 * secs["gp.optimize_hypers"] / evals if evals else 0.0, "ms"),
        "gp.optimize_hypers.ms_per_eval_last": (
            1e3 * fits[-1] / counts["gp.optimize_hypers.last_evals"] if len(fits) else 0.0,
            "ms",
        ),
        "gp.optimize_hypers.converged_frac": (
            counts["gp.optimize_hypers.converged"] / len(fits) if len(fits) else 0.0,
            "ratio",
        ),
        "gp.optimize_hypers.early_stops": (fallbacks["gp"], "count"),
        "gp.set_hypers.calls": (calls["gp.set_hypers"], "count"),
        "gp.set_hypers.s": (secs["gp.set_hypers"], "s"),
        "gp.append.calls": (calls["gp.append"], "count"),
        "gp.append.s": (secs["gp.append"], "s"),
        "gp.append.tail_ms": (1e3 * appends[-max(1, len(appends) // 10) :].mean() if len(appends) else 0.0, "ms"),
        "gp.predict_mean.calls": (calls["gp.predict_mean"], "count"),
        "gp.predict_mean.points": (counts["gp.predict_mean.points"], "count"),
        "gp.predict_mean.s": (secs["gp.predict_mean"], "s"),
        "contour.step.calls": (calls["contour.step"], "count"),
        "contour.step.s": (secs["contour.step"], "s"),
        "contour.step.self_s": (self_s["contour.step"], "s"),
        "contour.complete.s": (secs["contour.complete"], "s"),
        "contour.boundary_ticks": (counts["contour.boundary_ticks"], "count"),
        "contour.mode_switches": (counts["contour.mode_switches"], "count"),
        "contour.pose_clamps": (fallbacks["contour"], "count"),
    }
    for name in ("plan_coverage", *tracing.COVERAGE_CALLS):
        out[f"coverage.{name}.calls"] = (calls[f"coverage.{name}"], "count")
        out[f"coverage.{name}.s"] = (secs[f"coverage.{name}"], "s")
    out["coverage.cells"] = (counts["coverage.cells"], "count")
    out["coverage.skipped_cells"] = (fallbacks["coverage"], "count")
    total_m = counts["coverage.total_m"]
    out["coverage.transit_frac"] = (counts["coverage.transit_m"] / total_m if total_m else 0.0, "ratio")
    for name in tracing.GEOMETRY_CALLS:
        out[f"geometry.{name}.calls"] = (calls[f"geometry.{name}"], "count")
        out[f"geometry.{name}.s"] = (secs[f"geometry.{name}"], "s")
    for name, s in phase.items():
        out[f"sim.phase.{name}.s"] = (float(s), "s")
    out["sim.sonar_sample.s"] = (secs["sim.sonar_sample"], "s")
    out["sim.step_vessel.s"] = (secs["sim.step_vessel"], "s")
    out["sim.self_s"] = (self_s["sim.run_mission"] + self_s["sweep"], "s")
    out["trace.wall_s"] = (totals["wall_s"], "s")
    out["trace.overhead_frac"] = (totals["wall_s"] / untraced_wall - 1.0, "ratio")
    out["warnings.other"] = (fallbacks["other"], "count")
    return out


#: (module file stem, message prefix) of each fallback warning the package emits
FALLBACKS = {
    "gp": "hyper fit stopped early",
    "contour": "pose ",
    "coverage": "skipping cell",
}


def count_fallbacks(warned: list) -> dict:
    counts = {source: 0 for source in (*FALLBACKS, "other")}
    for w in warned:
        source = Path(w.filename).stem
        key = source if str(w.message).startswith(FALLBACKS.get(source, "\0")) else "other"
        counts[key] += 1
    return counts


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    own_setup, inputs = setup(args.workload, args.seed, args.seconds)
    if args.setup_only:
        print(repr(own_setup))
        return 0

    outcome = Outcome()
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        if args.trace:
            metrics = run_traced(args.workload, inputs, outcome, warned)
        else:
            setup_s = setup_seconds(args.workload, args.seed, args.seconds, own_setup)
            import speed

            reference = speed.Speed(args.workload)
            if args.workload == "plan_sweep":
                metrics = run_sweeps(inputs, args.seconds, outcome, reference)
            else:
                metrics = run_missions(inputs, args.seconds, outcome, reference)
            print(f"host speed: measured times x {reference.scale():.4f} = reported times", file=sys.stderr)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics["setup_s"] = (setup_s, "s")
            metrics["success_frac"] = (1.0 - outcome.failed / outcome.attempted, "ratio")
    for error, count in sorted(outcome.errors.items()):
        print(f"failed x{count}: {error}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

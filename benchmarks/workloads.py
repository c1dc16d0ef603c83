"""Workload inputs generated from a seed, the timed runs, and output checks.

Every workload is a closed loop in one thread: the next operation starts
when the previous one returns. The package only ever receives the inputs
built here.
"""

from __future__ import annotations

import contextlib
import math
import time
import dataclasses
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from bathysurvey import GaussianSumField, Polygon, SurveyError, canonical_scenario, coverage, sim
from bathysurvey.geometry import points_in_polygon

#: scale of the long survey's polygon and field against the canonical ones
LONG_SCALE = 1.5
#: plan_sweep: polygons planned per second of --seconds, the fixed
#: stream the shapes come from, vertex counts of its simple and complex
#: polygons, vertex radius range, track spacing
SWEEP_PER_SECOND = 2
SWEEP_SHAPES_SEED = 1
SWEEP_SIMPLE = (6, 12)
SWEEP_COMPLEX = (13, 20)
SWEEP_RADIUS = (60.0, 200.0)
SWEEP_DELTA = 10.0
#: vessel speed that turns a plan's length into survey time
SWEEP_SPEED = sim.MissionConfig().speed
#: missions run per second of --seconds
MISSIONS_PER_SECOND = 1.0 / 2.8
#: sweep directions, evenly spread, at which each mission's traced
#: polygon is planned again for the plan metrics
MISSION_REPLANS = 24
#: grid step of the depth RMSE check, and the RMSE above which a mission fails
RMSE_GRID_M = 4.0
RMSE_TOL_M = 0.05


def mission_count(seconds: float) -> int:
    """Missions in a mission run of `seconds`."""
    return max(2, round(MISSIONS_PER_SECOND * seconds))


def mission_seed(seed: int, index: int) -> int:
    """Sonar-noise seed of the index-th mission of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _scaled(scale: float):
    """The canonical scenario grown by `scale`: vertices, start, bump
    centres and widths scale and gradients shrink by it, so the seabed
    keeps its shape over a larger or smaller area."""
    cfg, field, poly = canonical_scenario()
    field = GaussianSumField(
        offset=field.offset,
        gradient_x=field.gradient_x / scale,
        gradient_y=field.gradient_y / scale,
        bumps=tuple((cx * scale, cy * scale, amp, width * scale) for cx, cy, amp, width in field.bumps),
    )
    cfg = replace(cfg, start=(cfg.start[0] * scale, cfg.start[1] * scale))
    return cfg, field, Polygon(poly.vertices * scale)


def canonical_mission(seed: int):
    """The packaged canonical scenario. Mission i of a run draws its sonar
    noise from mission_seed(seed, i), kept in the config's seed."""
    cfg, field, poly = canonical_scenario()
    return replace(cfg, seed=seed), field, poly


def canonical_half(seed: int):
    """The canonical scenario at half scale, with its refit schedule."""
    cfg, field, poly = _scaled(0.5)
    return replace(cfg, seed=seed), field, poly


def long_survey(seed: int):
    """The canonical scenario at LONG_SCALE, with one hyper fit at init end.

    A wider init circle lets the single fit see the length scale.
    """
    cfg, field, poly = _scaled(LONG_SCALE)
    max_sim_time = 8000.0
    cfg = replace(
        cfg,
        seed=seed,
        init_radius=25.0,
        init_duration=160.0,
        max_sim_time=max_sim_time,
        refit_period=2.0 * max_sim_time,
    )
    return cfg, field, poly


def star_polygon(rng, n_verts: int, r_lo: float, r_hi: float) -> Polygon:
    """Random star-shaped polygon around the origin, simple by construction:
    vertex angles are a jittered uniform grid, so every angular gap stays
    inside (0, pi)."""
    ang = 2.0 * np.pi * (np.arange(n_verts) + rng.uniform(0.15, 0.85, n_verts)) / n_verts
    rad = rng.uniform(r_lo, r_hi, n_verts)
    return Polygon(np.column_stack([rad * np.sin(ang), rad * np.cos(ang)]))


def sweep_count(seconds: float) -> int:
    """Polygons in a plan_sweep run of `seconds`."""
    return max(6, round(SWEEP_PER_SECOND * seconds))


def turned(poly: Polygon, sweep_dir: float, angle: float) -> tuple:
    """The polygon and its sweep direction turned together by `angle`
    (a bearing, clockwise) about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    v = poly.vertices
    return Polygon(np.column_stack([v[:, 0] * c + v[:, 1] * s, v[:, 1] * c - v[:, 0] * s])), sweep_dir + angle


def plan_sweep(seed: int, count: int) -> list:
    """`count` (polygon, sweep_dir) pairs, each planned from the origin.

    The shapes and their sweep directions come from one fixed stream
    (SWEEP_SHAPES_SEED), the same for every seed, and the seed turns each
    polygon with its sweep direction by a random angle about the origin.
    The turn keeps the sweep direction inside [-pi/2, pi/2), so the
    partition, the transits and the cost of each plan stay those of the
    unturned polygon while every coordinate the planner sees changes.
    Plan cost is heavy-tailed over shapes (10 ms to 700 ms), so shapes
    drawn afresh for each seed would make the seed, not the program,
    set the run's figures.

    Plans are bimodal: a polygon with few vertices is one or two cells
    joined by straight transits (about 10 ms), one with many needs A*
    transits between several cells (100 to 700 ms). Two thirds of the
    polygons are simple and one third complex, with every vertex count
    equally often within each class and sweep directions spread evenly,
    so the median plan is a simple one and the 90th percentile a
    complex one. Shapes and radii are random.
    """
    shapes = np.random.default_rng(SWEEP_SHAPES_SEED)
    n_simple = 2 * count // 3
    counts = np.concatenate([
        SWEEP_SIMPLE[0] + np.arange(n_simple) % (SWEEP_SIMPLE[1] - SWEEP_SIMPLE[0] + 1),
        SWEEP_COMPLEX[0] + np.arange(count - n_simple) % (SWEEP_COMPLEX[1] - SWEEP_COMPLEX[0] + 1),
    ])  # fmt: skip
    dirs = -math.pi / 2 + math.pi * (shapes.permutation(count) + shapes.uniform(size=count)) / count
    polys = [star_polygon(shapes, int(n), *SWEEP_RADIUS) for n in counts]
    turns = np.random.default_rng(seed).uniform(size=count)
    # angle in [-pi/2 - d, pi/2 - d): the turned direction stays in range
    return [turned(poly, d, math.pi * (t - 0.5) - d) for poly, d, t in zip(polys, dirs, turns)]


# -- runs ---------------------------------------------------------------------


@dataclass
class Mission:
    """One mission: its log, per-tick compute seconds and check outcome."""

    log: sim.MissionLog
    wall_s: float
    ticks: np.ndarray
    error: str | None = None  # the mission failed: aborted, or an output check failed
    wrong: bool = False  # the failure is a wrong output, not a reported abort
    depth_rmse_m: float = math.nan
    replans: list = dataclasses.field(default_factory=list)  # checked Plans of replan_mission


def run_mission(cfg, field, poly, root=None) -> Mission:
    """Run one mission, timestamping each call to sim.step_vessel.

    The step_vessel calls split the mission into len(log.trace) ticks:
    the first tick starts with run_mission and the last ends with it.
    `root` opens the tracer's root span around the call when tracing.
    """
    stamps = []
    step = sim.step_vessel

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return step(*args, **kwargs)

    sim.step_vessel = stamped
    try:
        with root("sim.run_mission") if root is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            log = sim.run_mission(cfg, field, poly)
            t1 = time.perf_counter()
    finally:
        sim.step_vessel = step
    mission = Mission(log, t1 - t0, np.diff([t0, *stamps, t1]))
    expected = len(log.trace) - 1
    if log.aborted:
        mission.error = f"aborted: {log.aborted}"
        # an abort before the tick's trace row leaves one more step than rows
        expected_ok = len(stamps) in (expected, expected + 1)
    else:
        expected_ok = len(stamps) == expected
        mission.error = _mission_problem(log)
        mission.wrong = mission.error is not None
        if not mission.wrong:
            mission.depth_rmse_m = depth_rmse(log, field)
            if not mission.depth_rmse_m <= RMSE_TOL_M:
                mission.error = f"depth RMSE {mission.depth_rmse_m:.4f} m above {RMSE_TOL_M} m"
                mission.wrong = True
    if not expected_ok:
        raise RuntimeError(f"step_vessel ran {len(stamps)} times for {len(log.trace)} trace rows")
    return mission


def _mission_problem(log) -> str | None:
    if not log.closed or log.intersection is None:
        return "mission ended without closing the contour"
    if log.plan is None or len(log.plan.waypoints) == 0:
        return "mission ended without a coverage plan"
    reach = min(log.config.track_spacing / 2.0, 2.0 * log.config.speed / log.config.control_rate)
    end = log.trace_positions()[-1]
    if float(np.hypot(*(end - log.plan.waypoints[-1]))) >= reach:
        return "mission ended before the end of the plan"
    if len(log.measurements) != log.model.n:
        return f"{len(log.measurements)} measurements but the model holds {log.model.n}"
    return None


def depth_rmse(log, field, chunk: int = 512) -> float:
    """RMSE of the final posterior mean against the true depth on a
    RMSE_GRID_M grid inside the traced intersection polygon."""
    x_lo, y_lo, x_hi, y_hi = log.intersection.bounds
    gx, gy = np.meshgrid(np.arange(x_lo, x_hi, RMSE_GRID_M), np.arange(y_lo, y_hi, RMSE_GRID_M))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[points_in_polygon(pts, log.intersection)]
    pred = np.concatenate([log.model.predict_mean(pts[i : i + chunk]) for i in range(0, len(pts), chunk)])
    return float(np.sqrt(np.mean((pred - field.depth(pts)) ** 2)))


@dataclass
class Plan:
    """One timed coverage plan and its check outcome."""

    seconds: float
    plan: object | None
    error: str | None = None  # the plan failed: it raised, or a check failed
    wrong: bool = False  # the failure is a wrong output, not a raised error
    started: float = 0.0  # perf_counter at the call
    steps: np.ndarray | None = None  # seconds per greedy step, in plan_sweep


def run_plan(poly, start, delta: float, sweep_dir: float) -> Plan:
    """Time one sim.plan_coverage call; a typed survey error is a failure."""
    t0 = time.perf_counter()
    try:
        plan = sim.plan_coverage(poly, start, delta, sweep_dir)
    except SurveyError as exc:
        return Plan(time.perf_counter() - t0, None, f"{exc.__class__.__name__}: {exc}", started=t0)
    return Plan(time.perf_counter() - t0, plan, started=t0)


def check_plan(p: Plan, poly) -> Plan:
    """Fail a plan with a waypoint outside the polygon."""
    if p.error is None:
        outside = int((~points_in_polygon(p.plan.waypoints, poly)).sum())
        if outside:
            p.error, p.wrong = f"{outside} waypoints outside the polygon", True
    return p


def coverage_gap(plan, poly, grid_m: float = RMSE_GRID_M) -> float:
    """95th percentile distance (m) from the points of a grid over the
    polygon to the plan's nearest waypoint."""
    x_lo, y_lo, x_hi, y_hi = poly.bounds
    gx, gy = np.meshgrid(np.arange(x_lo, x_hi, grid_m), np.arange(y_lo, y_hi, grid_m))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    dist, _ = cKDTree(plan.waypoints).query(pts[points_in_polygon(pts, poly)])
    return float(np.percentile(dist, 95))


def replan_mission(mission: Mission, count: int = MISSION_REPLANS) -> list:
    """Plan the mission's traced polygon again from the mission plan's
    start, once at each of `count` sweep directions spread evenly over
    [-pi/2, pi/2). Whether a traced polygon splits into one cell or two
    depends on the sweep direction, so the spread keeps the plan
    figures from jumping with the sonar noise."""
    log = mission.log
    start = log.plan.segments[0].points[0]
    dirs = -math.pi / 2 + math.pi * (np.arange(count) + 0.5) / count
    plans = [run_plan(log.intersection, start, log.config.track_spacing, float(d)) for d in dirs]
    return [check_plan(p, log.intersection) for p in plans]


@contextlib.contextmanager
def step_stamps():
    """Timestamp the return of every coverage.lawnmower_cell call into
    the yielded list, while the block runs."""
    stamps = []
    mow = coverage.lawnmower_cell

    def stamped(*args, **kwargs):
        out = mow(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    coverage.lawnmower_cell = stamped
    try:
        yield stamps
    finally:
        coverage.lawnmower_cell = mow


def plan_polygon(poly, sweep_dir: float, stamps: list) -> Plan:
    """Plan one plan_sweep polygon from the origin, unchecked.

    `stamps` is the list step_stamps() fills: its stamps split the plan
    into greedy steps (partition or transit, then one cell mowed); the
    short tail after the last cell joins the last step.
    """
    first = len(stamps)
    p = run_plan(poly, np.zeros(2), SWEEP_DELTA, sweep_dir)
    p.steps = np.diff([p.started, *stamps[first:-1], p.started + p.seconds])
    return p


def sweep_pass(jobs, root=None) -> tuple:
    """Plan every job once, then check the plans. Returns (wall seconds
    of the planning alone, checked plans). `root` opens the tracer's
    root span around the planning when tracing."""
    with step_stamps() as stamps, root("sweep") if root is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        plans = [plan_polygon(poly, d, stamps) for poly, d in jobs]
        wall = time.perf_counter() - t0
    return wall, [check_plan(p, poly) for p, (poly, _) in zip(plans, jobs)]

"""Synthetic seafloor, kinematic vessel, and the full survey mission.

The mission loop is single threaded and fully deterministic for a fixed
seed and configuration: sonar noise is the only stochastic input, each
hyper fit runs inline at its scheduled tick and applies in that tick,
and planning happens once, between two ticks, when the traced contour
closes. Scheduled refits run only while the follower steers by the
model, and only once the data have grown by REFIT_GROWTH since the last
fit; those that fall due during coverage collapse into one refit at
mission end. Every fit, the steering ones and the mission-end one
alike, maximises the exact likelihood on up to gp.INDUCING soundings
and the inducing-point bound past that. From closure on, the
trace's z_predicted reads the model as it stood at closure, so on
coverage rows it checks the traced model against water it had not
sounded.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import files
from .contour import ContourFollower, Pose
from .coverage import PathPlan, _check_sweep_args, plan_coverage
from .errors import ConfigError, GeometryError, MissionAbort, SurveyError
from .geometry import (
    Polygon,
    bearing_between,
    load_polygon,
    nearest_boundary_point,
    normalize_bearing,
    point_in_polygon,
    save_polygon,
    simplify_closed_curve,
)
from .gp import INDUCING, GpModel, optimize_hypers


# -- bathymetry fields ----------------------------------------------------


@dataclass(frozen=True)
class GaussianSumField:
    """Plane z = offset + gradient_x * x + gradient_y * y plus radial
    Gaussian mounds; with no bumps it is the plane alone.

    Each bump is (center_x, center_y, amplitude, width); positive
    amplitude deepens the water, negative raises the seabed.
    """

    offset: float
    gradient_x: float = 0.0
    gradient_y: float = 0.0
    bumps: tuple = ()

    def __post_init__(self):
        plane = (self.offset, self.gradient_x, self.gradient_y)
        if not all(isinstance(c, numbers.Real) and math.isfinite(c) for c in plane):
            raise ConfigError(f"field offset and gradients must be finite numbers, got {plane}")
        for bump in self.bumps:
            try:
                cx, cy, amp, width = bump
                four_numbers = all(isinstance(c, numbers.Real) for c in bump)
            except (TypeError, ValueError):
                four_numbers = False
            if not four_numbers:
                raise ConfigError(f"each bump needs 4 numbers (cx cy amplitude width), got {bump!r}")
            if not (all(map(math.isfinite, bump)) and width > 0):
                raise ConfigError(f"a bump needs a finite centre and amplitude and a finite width above 0, got {bump!r}")

    def depth(self, p) -> np.ndarray:
        """Depths at points; where the plane overflows they read inf,
        which validate_field refuses, and a mound whose squared distance
        overflows adds exp(-inf) = 0, its true share to rounding."""
        p = np.asarray(p, dtype=float)
        # [()] reads one point's coordinates as numpy scalars, whose arithmetic
        # is cheaper than that of 0-d arrays; many points stay arrays
        x, y = p[..., 0][()], p[..., 1][()]
        with np.errstate(over="ignore"):
            z = self.offset + self.gradient_x * x + self.gradient_y * y
            for cx, cy, amp, width in self.bumps:
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                z = z + amp * np.exp(-d2 / (2.0 * width * width))
        return z

    def to_dict(self) -> dict:
        return {
            "kind": "gaussian_sum",
            "offset": self.offset,
            "gradient_x": self.gradient_x,
            "gradient_y": self.gradient_y,
            "bumps": [list(b) for b in self.bumps],
        }


@dataclass(frozen=True)
class GridField:
    """Regular depth grid with bilinear interpolation.

    values[j, i] is the depth at (x0 + i * dx, y0 + j * dy). Depths that
    are not finite raise ConfigError; queries outside the grid raise
    GeometryError.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ConfigError(f"grid field needs a 2-D value array of at least 2x2, got {vals.shape}")
        if not (np.isfinite([self.x0, self.y0, self.dx, self.dy]).all() and self.dx > 0 and self.dy > 0):
            raise ConfigError(f"grid origin must be finite and spacing finite and positive, got {(self.x0, self.y0, self.dx, self.dy)}")
        if not np.isfinite(vals).all():
            j, i = np.argwhere(~np.isfinite(vals))[0]
            raise ConfigError(f"grid depths must be finite, got {vals[j, i]} at row {j}, column {i}")
        object.__setattr__(self, "values", vals)

    def depth(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        ny, nx = self.values.shape
        fx = (p[..., 0] - self.x0) / self.dx
        fy = (p[..., 1] - self.y0) / self.dy
        tol = 1e-9
        if np.any(fx < -tol) or np.any(fx > nx - 1 + tol) or np.any(fy < -tol) or np.any(fy > ny - 1 + tol):
            raise GeometryError("query point outside the depth grid")
        fx = np.clip(fx, 0.0, nx - 1)
        fy = np.clip(fy, 0.0, ny - 1)
        i0 = np.minimum(fx.astype(int), nx - 2)
        j0 = np.minimum(fy.astype(int), ny - 2)
        wx = fx - i0
        wy = fy - j0
        v = self.values
        return (
            v[j0, i0] * (1 - wx) * (1 - wy)
            + v[j0, i0 + 1] * wx * (1 - wy)
            + v[j0 + 1, i0] * (1 - wx) * wy
            + v[j0 + 1, i0 + 1] * wx * wy
        )

    def to_dict(self) -> dict:
        digest = hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()
        return {
            "kind": "grid",
            "x0": self.x0,
            "y0": self.y0,
            "dx": self.dx,
            "dy": self.dy,
            "shape": list(self.values.shape),
            "values_sha256": digest,
        }


def true_depth(field, p) -> float:
    """Ground-truth depth at one point."""
    return float(field.depth(np.asarray(p, dtype=float)))


def sonar_sample(field, pose: Pose, noise_std: float, rng) -> float:
    """One sonar measurement under the vessel: truth plus Gaussian noise."""
    return true_depth(field, (pose.x, pose.y)) + float(rng.normal(0.0, noise_std))


#: grid points along each side of the box validate_field samples
_FIELD_SAMPLES = 40


def validate_field(field, bounds) -> None:
    """Check the field is finite and non-negative over a bounding box,
    whose corners and sides must be finite themselves."""
    (x_lo, y_lo), (x_hi, y_hi) = bounds
    if not (math.isfinite(float(x_hi) - float(x_lo)) and math.isfinite(float(y_hi) - float(y_lo))):
        raise ConfigError(f"mission box ({x_lo:g}, {y_lo:g}) to ({x_hi:g}, {y_hi:g}) is not finite")
    gx, gy = np.meshgrid(np.linspace(x_lo, x_hi, _FIELD_SAMPLES), np.linspace(y_lo, y_hi, _FIELD_SAMPLES))
    z = field.depth(np.stack([gx.ravel(), gy.ravel()], axis=1))
    if not np.all(np.isfinite(z)):
        raise ConfigError("bathymetry field is not finite over the mission box")
    if np.any(z < 0.0):
        raise ConfigError(f"bathymetry field goes negative over the mission box (min {z.min():.3g} m)")


# -- vessel ---------------------------------------------------------------


@dataclass(frozen=True)
class VesselState:
    pose: Pose
    speed: float
    clock: float


def step_vessel(state: VesselState, psi_d: float, dt: float, max_turn_rate: float | None = None) -> VesselState:
    """Advance one tick: turn toward psi_d (rate limited), then move.

    With max_turn_rate None or infinite the heading snaps to psi_d, the
    perfect-control case. The position advances speed * dt along the new
    heading; a position that leaves the float range raises ConfigError.
    """
    if dt <= 0.0:
        raise ConfigError(f"time step must be positive, got {dt}")
    if max_turn_rate is None or math.isinf(max_turn_rate):
        psi = normalize_bearing(psi_d)
    else:
        err = normalize_bearing(psi_d - state.pose.psi)
        step = min(max(err, -max_turn_rate * dt), max_turn_rate * dt)
        psi = normalize_bearing(state.pose.psi + step)
    dist = state.speed * dt
    x = state.pose.x + dist * math.sin(psi)
    y = state.pose.y + dist * math.cos(psi)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"a step of {dist:g} m from ({state.pose.x:g}, {state.pose.y:g}) leaves the float range")
    return VesselState(
        pose=Pose(x, y, psi),
        speed=state.speed,
        clock=state.clock + dt,
    )


# -- mission configuration ------------------------------------------------

#: most control ticks a mission may run, max_sim_time * control_rate: a
#: short mission at a high control rate errs instead of running for days
_MAX_TICKS = 1_000_000


@dataclass(frozen=True)
class MissionConfig:
    """Every knob of the simulated survey; defaults follow the canonical
    simulation settings (1 m/s, 1 Hz, z_t 4.5 m, r 5 m, delta 10 m).

    The one declaration of each setting: the follower reads its settings
    from here, apply_overrides parses by the declared field types, and
    __post_init__ checks every value, raising ConfigError.
    """

    target_depth: float = 4.5
    search_radius: float = 5.0
    track_spacing: float = 10.0
    sweep_dir: float = 0.0
    start: tuple = (250.0, 350.0)
    speed: float = 1.0
    control_rate: float = 1.0
    sonar_rate: float = 1.0
    refit_period: float = 30.0
    init_duration: float = 50.0
    init_radius: float = 5.0
    ema_half_life: float = 5.0
    loop_buffer: int = 50
    arc_half_width: float = math.pi / 2
    depth_tolerance: float = 0.25
    closure_radius: float | None = None
    noise_std: float = 0.0
    seed: int = 0
    max_turn_rate: float | None = None
    max_sim_time: float = 4000.0

    def __post_init__(self):
        def check(name: str, ok: bool, rule: str) -> None:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

        for name in (
            "target_depth",
            "search_radius",
            "speed",
            "control_rate",
            "sonar_rate",
            "refit_period",
            "init_radius",
            "depth_tolerance",
            "ema_half_life",
            "max_sim_time",
        ):
            val = getattr(self, name)
            check(name, math.isfinite(val) and val > 0.0, "positive and finite")
        for name in ("init_duration", "noise_std"):
            val = getattr(self, name)
            check(name, math.isfinite(val) and val >= 0.0, "non-negative and finite")
            object.__setattr__(self, name, abs(val))  # -0.0 is stored as 0.0, which numpy's scale accepts
        for name in ("loop_buffer", "seed"):
            val = getattr(self, name)
            check(name, isinstance(val, numbers.Integral) and val >= 0, "a non-negative integer")
            object.__setattr__(self, name, int(val))
        check("max_sim_time", self.max_sim_time * self.control_rate <= _MAX_TICKS, f"at most {_MAX_TICKS} ticks long at control_rate={self.control_rate}")
        check("arc_half_width", 0.0 < self.arc_half_width <= math.pi, "in (0, pi]")
        check("init_radius", math.isfinite(self.speed / self.init_radius), "large enough that speed / init_radius is finite")
        _check_sweep_args(self.track_spacing, self.sweep_dir)
        if self.max_turn_rate == math.inf:
            # no limit, stored as None so a manifest never holds Infinity
            object.__setattr__(self, "max_turn_rate", None)
        for name in ("closure_radius", "max_turn_rate"):
            val = getattr(self, name)
            check(name, val is None or (math.isfinite(val) and val > 0.0), "positive and finite when set")
        check("start", len(self.start) == 2 and all(math.isfinite(c) for c in self.start), "a finite (x, y) pair")
        object.__setattr__(self, "start", (float(self.start[0]), float(self.start[1])))

    def as_dict(self) -> dict:
        out = {}
        for f in dc_fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out


def apply_overrides(cfg: MissionConfig, overrides: dict) -> MissionConfig:
    """Return a config with string key=value overrides applied and
    re-validated; unknown keys raise ConfigError."""
    by_name = {f.name: f for f in dc_fields(MissionConfig)}
    parsed = {}
    for key, raw in overrides.items():
        if key not in by_name:
            raise ConfigError(f"unknown mission setting {key!r}")
        parsed[key] = _parse_setting(by_name[key], raw)
    return replace(cfg, **parsed)


def _parse_setting(setting, raw: str):
    """Parse one value by the type its MissionConfig field declares."""
    raw = raw.strip()
    try:
        if setting.type == "int":
            return int(raw)
        if setting.type == "tuple":
            return files.parse_point(raw)
        if setting.type == "float | None" and raw.lower() in ("none", ""):
            return None
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {setting.name}={raw!r}: {exc}") from exc


def mission_fingerprint(cfg: MissionConfig, field, poly: Polygon) -> str:
    """Stable hash of everything that determines a mission's outputs."""
    doc = {
        "config": cfg.as_dict(),
        "field": field.to_dict(),
        "polygon": np.asarray(poly.vertices).tolist(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


# -- mission log ----------------------------------------------------------

TRACE_COLUMNS = ("t", "x", "y", "psi", "mode", "z_measured", "z_predicted", "found_contour")


@dataclass
class MissionLog:
    """Everything a mission produced, saveable as a directory of artifacts."""

    config: MissionConfig
    config_hash: str
    field_summary: dict
    trace: list = dc_field(default_factory=list)
    measurements: list = dc_field(default_factory=list)
    hyper_history: list = dc_field(default_factory=list)
    boundary_trace: np.ndarray = dc_field(default_factory=lambda: np.zeros((0, 2)))
    intersection: Polygon | None = None
    plan: PathPlan | None = None
    model: GpModel | None = None
    closed: bool = False
    aborted: str | None = None
    sim_time: float = 0.0

    def trace_positions(self) -> np.ndarray:
        return np.array([[row[1], row[2]] for row in self.trace]).reshape(-1, 2)

    def save(self, out_dir) -> list:
        """Write all artifacts; returns the list of file names written.

        The manifest records the outcome (aborted, closed, sim_time) and
        the other files written. An existing manifest.json, written before
        execution by the CLI, keeps its keys and gains those four;
        otherwise one is created here.
        """
        out = files.make_dir(out_dir)
        files.write_text(out / "trace.csv", files.csv_text(",".join(TRACE_COLUMNS), self.trace, "ffffsffi"))
        files.write_text(out / "measurements.csv", files.csv_text("t,x,y,depth", self.measurements, "ffff"))
        header = "t,sigma_f2,sigma_n2,length_scale,lml,converged,n"
        hypers = [(t, *h.as_array(), lml, converged, n) for t, h, lml, converged, n in self.hyper_history]
        files.write_text(out / "hypers.csv", files.csv_text(header, hypers, "fffffii"))
        written = ["trace.csv", "measurements.csv", "hypers.csv"]

        if len(self.boundary_trace):
            boundary = files.feature("LineString", self.boundary_trace, {"closed": self.closed})
            files.write_json(out / "boundary.geojson", boundary)
            written.append("boundary.geojson")

        if self.plan is not None:
            written.extend(self.plan.save(out))
        if self.intersection is not None:
            save_polygon(self.intersection, out / "intersection.txt")
            written.append("intersection.txt")
        if self.model is not None and self.model.n:
            self.model.save_checkpoint(out / "gp_checkpoint.csv")
            written.append("gp_checkpoint.csv")

        manifest = out / "manifest.json"
        if manifest.exists():
            doc = files.read_json(manifest)
            if not isinstance(doc, dict):
                raise ConfigError(f"{manifest} does not hold a JSON object")
        else:
            doc = {
                "seed": self.config.seed,
                "config_hash": self.config_hash,
                "config": self.config.as_dict(),
                "field": self.field_summary,
            }
        doc.update(aborted=self.aborted, closed=self.closed, sim_time=self.sim_time, files=list(written))
        files.write_json(manifest, doc, sort_keys=True)
        written.append("manifest.json")
        return written


# -- mission orchestration -------------------------------------------------

#: a contour refit runs only once the soundings number this many times
#: those of the last fit: fits then grow geometrically in n, so all of
#: them together cost at most 1 / (1 - REFIT_GROWTH**-3), about 2.05
#: times the last one, where a fixed period makes that total grow as n^4
REFIT_GROWTH = 1.25


def _trace_to_polygon(loop: np.ndarray, tolerance: float) -> Polygon:
    """Simplify a closed traced loop into a simple polygon, raising
    GeometryError when it does not simplify to one."""
    simplified = simplify_closed_curve(loop, tolerance)
    try:
        return Polygon(simplified)
    except GeometryError as exc:
        raise GeometryError(f"traced contour does not simplify to a valid polygon: {exc}") from exc


def run_mission(cfg: MissionConfig, field, poly: Polygon) -> MissionLog:
    """Run the full survey and return its log.

    Phases: a turn-rate-limited init circle while sonar accumulates, a
    first hyper fit, the contour/boundary follower until its complete()
    hands back the closed loop, that loop's simplification into the
    survey polygon and coverage planning between two ticks, then
    waypoint following to the end of the plan. Hypers are
    fitted at init end. While the follower steers by the model, a refit
    falls due at init end plus each multiple of the refit period, and
    runs only if model.n is at least REFIT_GROWTH times the n of the
    last fit; otherwise that due time passes with no fit. Each fit runs
    on the then-current data, is logged in hyper_history and applies at
    once. Refits after the loop closes would steer nothing, so the
    refit clock stops there; once the plan is done, one refit on all the
    data runs under the same growth rule, and the delivered model carries
    it as the last hyper_history row. Every fit, the init fit, the contour
    refits and the mission-end fit alike, passes gp.INDUCING to
    optimize_hypers: a fit on more than gp.INDUCING soundings maximises
    the inducing-point bound (O(n m^2) per evaluation, on every
    max(6, ceil(n / m))-th sounding as inducing input), one on fewer the
    exact likelihood. Each row logs the exact log marginal
    likelihood of the factor it applied, not the value the fit maximised;
    the model and its predictions stay exact. Every sounding goes to
    log.measurements and to the delivered log.model. A trace row's
    z_predicted is the model's mean at the vessel; from closure on it
    reads the model as it stood at closure, so on coverage rows it is a
    prediction on water that model had not sounded. Any survey error
    ends the mission with the partial log and the reason recorded; the
    delivered model then holds every sounding taken and the hypers of
    the last fit.
    """
    start = np.asarray(cfg.start, dtype=float)
    if not point_in_polygon(start, poly):
        raise GeometryError(f"mission start {cfg.start} lies outside the survey polygon")
    x_lo, y_lo, x_hi, y_hi = poly.bounds
    margin = cfg.search_radius + cfg.init_radius
    validate_field(field, ((x_lo - margin, y_lo - margin), (x_hi + margin, y_hi + margin)))

    log = MissionLog(config=cfg, config_hash=mission_fingerprint(cfg, field, poly), field_summary=field.to_dict())
    rng = np.random.default_rng(cfg.seed)
    model = GpModel()
    log.model = model
    traced_model = model  # what z_predicted reads: frozen at closure

    def refit(**options) -> None:
        """Fit the hypers on the data so far, apply the fit and log it with
        the exact log marginal likelihood of the factor it applied, read
        in O(n), whichever objective the fit maximised. Once a fit exists,
        return without one until model.n reaches REFIT_GROWTH times the n
        of the last."""
        if log.hyper_history and model.n < REFIT_GROWTH * log.hyper_history[-1][4]:
            return
        fit = optimize_hypers(model, inducing=INDUCING, **options)
        model.set_hypers(fit.hypers)
        log.hyper_history.append((t, fit.hypers, model.snapshot().log_likelihood(), fit.converged, model.n))

    dt = 1.0 / cfg.control_rate
    eps_t = 1e-9 * dt
    sonar_period = 1.0 / cfg.sonar_rate
    reach = min(cfg.track_spacing / 2.0, 2.0 * cfg.speed / cfg.control_rate)

    state = VesselState(Pose(*cfg.start, 0.0), cfg.speed, 0.0)
    follower: ContourFollower | None = None
    phase = "init"
    next_sonar = 0.0
    z_last = math.nan
    waypoints = np.zeros((0, 2))
    wp_i = 0

    try:
        while True:
            t = state.clock
            if t > cfg.max_sim_time + eps_t:
                raise MissionAbort(f"mission exceeded max_sim_time={cfg.max_sim_time} s in phase {phase}")

            pose = state.pose
            pos = pose.position
            z = math.nan
            if t >= next_sonar - eps_t:
                z = sonar_sample(field, pose, cfg.noise_std, rng)
                model.append(pos, [z])
                log.measurements.append((t, pose.x, pose.y, z))
                next_sonar += sonar_period
                z_last = z

            if phase == "init" and t >= cfg.init_duration - eps_t:
                refit()
                next_refit = cfg.init_duration + cfg.refit_period
                follower = ContourFollower(cfg, poly, model, initial_heading=pose.psi)
                phase = "contour"

            if phase == "init":
                mode = "init"
                found = False
                psi_d = pose.psi + (cfg.speed / cfg.init_radius) * dt
            elif phase == "contour":
                psi_d = follower.step(pose, z_last, dt)
                mode = follower.state.mode.value
                found = follower.state.found_contour
                loop = follower.complete(pose)
                if loop is not None:
                    log.intersection = _trace_to_polygon(loop, cfg.track_spacing / 4.0)
                    log.closed = True
                    plan_start = pos if point_in_polygon(pos, log.intersection) else nearest_boundary_point(pos, log.intersection)
                    log.plan = plan_coverage(log.intersection, plan_start, cfg.track_spacing, cfg.sweep_dir)
                    waypoints = log.plan.waypoints
                    wp_i = 0
                    phase = "coverage"
                    traced_model = model.snapshot()
            else:  # coverage
                mode = "coverage"
                found = True
                while wp_i < len(waypoints) and float(np.hypot(*(waypoints[wp_i] - pos))) < reach:
                    wp_i += 1
                if wp_i >= len(waypoints):
                    phase = "done"
                    psi_d = pose.psi
                else:
                    psi_d = bearing_between(pos, waypoints[wp_i])

            z_pred = float(traced_model.predict_mean(pos)[0]) if traced_model.n else math.nan
            log.trace.append((t, pose.x, pose.y, pose.psi, mode, z, z_pred, found))

            if phase == "done":
                break

            if phase == "contour" and t >= next_refit - eps_t:
                # warm-started from the current hypers; capped iterations bound
                # the evaluations, which past INDUCING soundings cost O(n m^2)
                refit(max_iter=25)
                next_refit += cfg.refit_period

            state = step_vessel(state, psi_d, dt, cfg.max_turn_rate)

        # coverage follows fixed waypoints, so no refit there steers the
        # vessel; one fit on all the data, under the same growth rule,
        # stands in for them all
        refit(max_iter=25)
    except MissionAbort as exc:
        log.aborted = str(exc)
    except SurveyError as exc:
        log.aborted = f"{exc.__class__.__name__}: {exc}"

    log.sim_time = state.clock
    if follower is not None:
        log.boundary_trace = follower.state.trace.copy()
    return log


# -- scenario files --------------------------------------------------------

_FIELD_KINDS = ("plane", "gaussian_sum", "grid")


def _field_from_section(items: dict, base_dir: Path):
    kind = items.pop("kind", None)
    if kind not in _FIELD_KINDS:
        raise ConfigError(f"field kind must be one of {_FIELD_KINDS}, got {kind!r}")
    try:
        if kind == "grid":
            fld = load_grid_field(base_dir / items.pop("file"))
        else:  # a plane is a Gaussian sum without mounds
            bumps = []
            raw = items.pop("bumps", "").strip() if kind == "gaussian_sum" else ""
            if raw:
                for chunk in raw.split(";"):
                    bumps.append(tuple(float(tok) for tok in chunk.replace(",", " ").split()))
            fld = GaussianSumField(
                offset=float(items.pop("offset")),
                gradient_x=float(items.pop("gradient_x", 0.0)),
                gradient_y=float(items.pop("gradient_y", 0.0)),
                bumps=tuple(bumps),
            )
    except KeyError as exc:
        raise ConfigError(f"field section is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad number in field section: {exc}") from exc
    if items:
        raise ConfigError(f"unknown field settings: {sorted(items)}")
    return fld


def load_grid_field(path) -> GridField:
    """Read a grid field file: header 'x0,y0,dx,dy' then one CSV row of
    depths per grid row (south to north)."""
    rows = files.read_rows(path)
    if len(rows) < 3:
        raise ConfigError(f"grid field {path} needs a header and at least two rows")
    x0, y0, dx, dy = files.numbers(path, rows[0], 4)
    values = np.array([files.numbers(path, row, len(rows[1][1])) for row in rows[1:]])
    return GridField(x0, y0, dx, dy, values)


def load_scenario(path):
    """Parse a scenario file into (MissionConfig, field, Polygon).

    The file has [mission], [field] and [polygon] sections; the polygon
    section names a vertex file relative to the scenario's directory.
    Unknown keys anywhere are rejected.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"scenario {path} does not parse: {exc}") from exc
    for section in ("mission", "field", "polygon"):
        if not parser.has_section(section):
            raise ConfigError(f"scenario {path} is missing the [{section}] section")

    cfg = apply_overrides(MissionConfig(), dict(parser.items("mission")))
    fld = _field_from_section(dict(parser.items("field")), path.parent)
    poly_items = dict(parser.items("polygon"))
    poly_file = poly_items.pop("file", None)
    if poly_file is None:
        raise ConfigError(f"scenario {path} must name a polygon file")
    if poly_items:
        raise ConfigError(f"unknown polygon settings: {sorted(poly_items)}")
    poly = load_polygon(path.parent / poly_file)
    return cfg, fld, poly


def canonical_scenario():
    """The packaged reference scenario (trapezoid survey box, plane plus
    mounds field, canonical parameter set)."""
    from importlib import resources

    base = resources.files("bathysurvey").joinpath("data")
    with resources.as_file(base.joinpath("canonical_scenario.ini")) as p:
        return load_scenario(Path(p))

"""Span tracing installed from outside the package.

Wrappers are bound into the module namespaces where the package looks
its collaborators up at call time (``sim.GpModel``, ``sim.ContourFollower``,
``coverage.plan_transit`` and so on), so nothing under ``src/`` knows it
is being traced. Spans live in memory as ``[name, start, end, parent]``
lists; a layer's self time is its duration minus its direct children's.

Spans and counts are recorded only while a root span is open, so set-up
and output checks that call into the package stay out of the trace.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from bathysurvey import contour, coverage, geometry, gp, sim

#: geometry functions, wrapped in every namespace that imports them
GEOMETRY_CALLS = ("segment_in_polygon", "point_in_polygon", "points_in_polygon")
COVERAGE_CALLS = ("partition_monotone", "plan_transit", "lawnmower_cell")

#: span names each traced workload must fire; a refactor that routes
#: around a wrapper then fails the run instead of zeroing a layer
PLAN_SPANS = (
    "coverage.plan_coverage",
    *(f"coverage.{name}" for name in COVERAGE_CALLS),
    *(f"geometry.{name}" for name in GEOMETRY_CALLS),
)
MISSION_SPANS = PLAN_SPANS + (
    "gp.optimize_hypers",
    "gp.set_hypers",
    "gp.append",
    "gp.predict_mean",
    "contour.step",
    "contour.complete",
    "sim.sonar_sample",
    "sim.step_vessel",
)


class Tracer:
    """In-memory span recorder with a parent stack and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []

    def wrap(self, name: str, fn, note=None):
        """Return fn recording one span per call, and calling
        note(args, result) inside the span, but only under a root."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        span = [name, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


def _bindings(tracer: Tracer) -> list:
    counts = tracer.counts

    def note_predict(args, mean):
        counts["gp.predict_mean.points"] += len(mean)

    def note_fit(args, fit):
        counts["gp.optimize_hypers.evals"] += fit.n_evals
        counts["gp.optimize_hypers.converged"] += bool(fit.converged)
        counts["gp.optimize_hypers.last_evals"] = fit.n_evals

    def note_step(args, psi):
        follower = args[0]
        mode = follower.state.mode
        counts["contour.mode_switches"] += mode is not follower.last_mode
        counts["contour.boundary_ticks"] += mode is contour.Mode.BOUNDARY
        follower.last_mode = mode

    def note_plan(args, plan):
        counts["coverage.cells"] += len(plan.cells)
        counts["coverage.transit_m"] += plan.transit_length
        counts["coverage.total_m"] += plan.total_length

    class TracedGpModel(gp.GpModel):
        append = tracer.wrap("gp.append", gp.GpModel.append)
        set_hypers = tracer.wrap("gp.set_hypers", gp.GpModel.set_hypers)
        predict_mean = tracer.wrap("gp.predict_mean", gp.GpModel.predict_mean, note_predict)

    class TracedFollower(contour.ContourFollower):
        last_mode = contour.Mode.CONTOUR  # a new follower starts in contour mode
        step = tracer.wrap("contour.step", contour.ContourFollower.step, note_step)
        complete = tracer.wrap("contour.complete", contour.ContourFollower.complete)

    bindings = [
        (sim, "GpModel", TracedGpModel),
        (sim, "ContourFollower", TracedFollower),
        (sim, "optimize_hypers", tracer.wrap("gp.optimize_hypers", gp.optimize_hypers, note_fit)),
        (sim, "plan_coverage", tracer.wrap("coverage.plan_coverage", coverage.plan_coverage, note_plan)),
        (sim, "sonar_sample", tracer.wrap("sim.sonar_sample", sim.sonar_sample)),
        (sim, "step_vessel", tracer.wrap("sim.step_vessel", sim.step_vessel)),
    ]
    for name in COVERAGE_CALLS:
        bindings.append((coverage, name, tracer.wrap(f"coverage.{name}", getattr(coverage, name))))
    for name in GEOMETRY_CALLS:
        traced = tracer.wrap(f"geometry.{name}", getattr(geometry, name))
        bindings.extend((module, name, traced) for module in (geometry, coverage, contour, sim) if hasattr(module, name))
    return bindings


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Bind traced wrappers into the package namespaces, restoring on exit.

    Code outside the package that plans directly calls
    ``sim.plan_coverage`` while installed, to go through the wrapper.
    """
    bindings = _bindings(tracer)
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, fn in bindings:
            setattr(module, name, fn)
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def layer_totals(tracer: Tracer, expected: tuple) -> dict:
    """Calls, inclusive seconds and self seconds per span name.

    Raises RuntimeError when an expected span never fired, or when a
    span's children cover more than its own interval: self times are
    then all non-negative, and with them and the root spans' self time
    (``sim.self_s``) they add up to the traced wall time.
    """
    own = tracer.self_times()
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    wall = 0.0
    for (name, start, end, parent), s in zip(tracer.spans, own):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += s
        if parent is None:
            wall += end - start
    missing = [name for name in expected if not calls[name]]
    if missing:
        raise RuntimeError(f"traced wrappers never fired: {missing}")
    for (name, start, end, parent), s in zip(tracer.spans, own):
        outer = tracer.spans[parent] if parent is not None else None
        if s < -1e-9 or end < start or (outer is not None and not outer[1] <= start <= end <= outer[2]):
            raise RuntimeError(f"span {name} does not nest: self time {s:.3g} s")
    return {"calls": calls, "s": total, "self_s": self_s, "wall_s": wall}

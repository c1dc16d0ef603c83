"""Machine speed reference, timed between the benchmark's operations.

The speed of a small shared host drifts from minute to minute: over
eight fresh processes, each planning the same 90 polygons for 45 s on a
2-vCPU Xeon, the time to plan them all spread 0.11 (standard deviation
over mean) and over the same eight runs of 16 fixed half-scale missions
the median mission spread 0.07. A fixed kernel that this benchmark owns,
timed in the same process between operations, drifts with the host.
Scaled by it as below, the same runs spread 0.05 (plans) and 0.08
(missions); the plan figures of the missions went from 0.11 to 0.04
(median) and from 0.11 to 0.06 (plans per second), their 90th
percentile from 0.07 to 0.13.

A run keeps the kernel at about SHARE of its wall time, spread over the
run, and scales each operation's measured times by NOMINAL_S / (median
kernel time within WINDOW_S of the operation): times read as on a host
where the kernel takes its nominal time. The kernel calls nothing in
the package, so a change to the package moves the scaled times exactly
as it moves the measured ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.linalg

#: share of a run's wall time spent timing the kernel
SHARE = 0.15
#: kernel parts per workload: point-in-polygon tests on sampled segments
#: (the planner's A* transits), Cholesky solves (the GP's refits)
PARTS = {"plan_sweep": ("geometry",), "mission": ("geometry", "linalg")}
#: seconds around an operation whose kernel timings scale its times
WINDOW_S = 3.0
#: median seconds of each kernel part on the host the baselines were
#: measured on
NOMINAL_S = {"geometry": 0.009, "linalg": 0.009}

_ANGLES = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
_RADII = 100.0 + 30.0 * np.sin(5.0 * _ANGLES)
_POLY = np.column_stack([_RADII * np.cos(_ANGLES), _RADII * np.sin(_ANGLES)])
_SPD = np.random.default_rng(0).standard_normal((400, 400))
_SPD = _SPD @ _SPD.T + 400.0 * np.eye(400)
_RHS = np.random.default_rng(1).standard_normal((400, 8))


def _geometry() -> int:
    x0, y0 = _POLY[:, 0], _POLY[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = 0
    for i in range(200):
        p = np.array([math.cos(i) * 50.0, math.sin(i) * 50.0])
        pts = p[None, :] + np.linspace(0.0, 1.0, 12)[:, None] * (-1.9 * p)[None, :]
        x, y = pts[:, :1], pts[:, 1:]
        cross = ((y0 > y) != (y1 > y)) & (x < (x1 - x0) * (y - y0) / (y1 - y0) + x0)
        inside += bool((cross.sum(axis=1) % 2 == 1).all())
    return inside


def _linalg() -> float:
    total = 0.0
    for _ in range(3):
        factor = scipy.linalg.cho_factor(_SPD)
        total += float(scipy.linalg.cho_solve(factor, _RHS)[0, 0])
    return total


_KERNELS = {"geometry": _geometry, "linalg": _linalg}


class Speed:
    """Kernel timings of one run, kept at SHARE of the run's wall time."""

    def __init__(self, workload: str):
        self.parts = PARTS["plan_sweep" if workload == "plan_sweep" else "mission"]
        self.samples: list = []
        self.t_start = time.perf_counter()
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        for part in self.parts:
            _KERNELS[part]()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += t1 - t0

    def keep_up(self) -> None:
        """Time the kernel until it has had SHARE of the run so far."""
        self.sample()
        while self.spent < SHARE * (time.perf_counter() - self.t_start):
            self.sample()

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Factor that turns a time measured from t0 to t1 (perf_counter
        seconds; the whole run by default) into a time at the kernel's
        nominal speed."""
        near = [s for t, s in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return sum(NOMINAL_S[p] for p in self.parts) / statistics.median(near or [s for _, s in self.samples])

"""Shared fixtures; the canonical missions are expensive and run once."""

import os
import sys
import time
from pathlib import Path

# One BLAS thread, set outright before numpy loads, as benchmarks/run.py
# does. The mission digests are bit-exact, and bound fits round
# differently under threaded BLAS; on the plane field's trend ridge that
# rounding also decides whether a fit stops early. And the timing checks
# compare algorithms: on a small shared 2-core host OpenBLAS's threaded
# path (matrices of 128 and up) can stall 120-170 ms on each of a
# process's first few calls, so a single 130x130 Cholesky can outlast
# ten 121x121 ones.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and stop at a fixed
# count, so tier-1 stays deterministic and its run time bounded.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("tier1")

from bathysurvey.sim import apply_overrides, canonical_scenario, run_mission


@pytest.fixture(scope="session")
def canonical_inputs():
    return canonical_scenario()


@pytest.fixture(scope="session")
def canonical_run(canonical_inputs):
    """The packaged reference mission plus its wall-clock time."""
    cfg, field, poly = canonical_inputs
    t0 = time.perf_counter()
    log = run_mission(cfg, field, poly)
    wall = time.perf_counter() - t0
    return log, wall


@pytest.fixture(scope="session")
def variant_runs(canonical_inputs):
    """Search-radius robustness reruns keyed by radius."""
    cfg, field, poly = canonical_inputs
    out = {}
    for r in (2.5, 7.5):
        c = apply_overrides(cfg, {"search_radius": str(r)})
        out[r] = run_mission(c, field, poly)
    return out

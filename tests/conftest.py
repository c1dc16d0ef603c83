"""Shared fixtures; the canonical missions are expensive and run once."""

import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, as benchmarks/run.py does: the
# timing checks compare algorithms, and on a small shared 2-core host
# OpenBLAS's threaded path (matrices of 128 and up) can stall 120-170 ms
# on each of a process's first few calls, so a single 130x130 Cholesky
# can outlast ten 121x121 ones.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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

"""
Run the packaged reference survey end to end and audit what it did.

One call to run_mission covers the whole pipeline: an init circle while
the first soundings accumulate, hyper-parameter estimation, contour
following with boundary handling until the traced loop closes, monotone
partitioning of the enclosed region, and lawnmower coverage of every
cell. The scenario is the packaged 500 x 400 m trapezoid with a shoaling
north-east plateau; the vessel hunts the 4.5 m safety contour and then
surveys the shallow region it encloses.

The script prints a phase timeline, the hyper-parameter history, and a
confidence summary over the surveyed region, then writes the full
artifact set (trace, measurements, polygons, plan, manifest) to a
temporary directory.

Takes a second or two of wall time for about 1400 simulated seconds.

Run:  python3 demos/full_mission.py
"""
import math
import tempfile
import time
import warnings

import numpy as np

from bathysurvey import canonical_scenario, run_mission
from bathysurvey.geometry import points_in_polygon

# benign: the line search may stop early on flat LML basins mid-mission
warnings.filterwarnings("ignore", message="hyper fit stopped early")

cfg, field, poly = canonical_scenario()
print(f"scenario: {poly.area:.0f} m^2 survey box, target depth {cfg.target_depth} m, "
      f"search radius {cfg.search_radius} m, track spacing {cfg.track_spacing} m")

t0 = time.perf_counter()
log = run_mission(cfg, field, poly)
wall = time.perf_counter() - t0
assert log.aborted is None, log.aborted

# ---------------------------------------------------------- phase timeline
rows = log.trace
first = {}
for t, x, y, psi, mode, z, zp, found in rows:
    first.setdefault(mode, t)
    if found and "found" not in first:
        first["found"] = t
print(f"\nmission complete: {log.sim_time:.0f} simulated s in {wall:.1f} wall s")
print(f"  t={first.get('init', 0.0):6.0f} s  init circle")
print(f"  t={first.get('contour', 0.0):6.0f} s  contour search begins")
print(f"  t={first.get('found', 0.0):6.0f} s  contour found")
if "boundary" in first:
    print(f"  t={first['boundary']:6.0f} s  first wall-walk")
print(f"  t={first.get('coverage', 0.0):6.0f} s  loop closed "
      f"({log.intersection.area:.0f} m^2 enclosed), coverage begins")
print(f"  t={log.sim_time:6.0f} s  plan exhausted "
      f"({len(log.plan.cells)} cell(s), {log.plan.total_length:.0f} m of track)")

# ------------------------------------------------------------ hyper fits
print(f"\n{len(log.hyper_history)} hyper fits (depths are metres):")
for t, h, lml, converged, n in log.hyper_history[:3]:
    print(f"  t={t:6.0f} s  n={n:4d}  sigma_f={math.sqrt(h.sigma_f2):.3f}  "
          f"sigma_n={math.sqrt(h.sigma_n2):.3f}  l={h.length_scale:.1f}")
if len(log.hyper_history) > 4:
    print(f"  ... {len(log.hyper_history) - 4} more ...")
t, h, lml, converged, n = log.hyper_history[-1]
print(f"  t={t:6.0f} s  n={n:4d}  sigma_f={math.sqrt(h.sigma_f2):.3f}  "
      f"sigma_n={math.sqrt(h.sigma_n2):.3f}  l={h.length_scale:.1f}")

# ------------------------------------------------- confidence where it counts
# grid over the traced polygon: how sure is the model where it surveyed?
lo = log.intersection.vertices.min(axis=0)
hi = log.intersection.vertices.max(axis=0)
gx, gy = np.meshgrid(np.arange(lo[0], hi[0], 5.0), np.arange(lo[1], hi[1], 5.0))
grid = np.column_stack([gx.ravel(), gy.ravel()])
mask = points_in_polygon(grid, log.intersection)
pred = log.model.predict(grid[mask])
sigma_f = math.sqrt(log.model.hypers.sigma_f2)
print(f"\npredictive std over the surveyed polygon ({int(mask.sum())} grid points): "
      f"mean {pred.std.mean():.3f} m, worst {pred.std.max():.3f} m (sigma_f {sigma_f:.3f})")
err = pred.mean - np.asarray(field.depth(grid[mask]), dtype=float)
print(f"true-depth error over the same grid: mean abs {np.abs(err).mean():.3f} m, "
      f"worst {np.abs(err).max():.3f} m")

out = tempfile.mkdtemp(prefix="bathysurvey_demo_")
names = log.save(out)
print(f"\nartifacts in {out}: {', '.join(names)}")

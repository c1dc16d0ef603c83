"""
Trace a depth contour with the arc-search follower, walls included.

The seabed is a plane shoaling to the north, so the 4.5 m contour is a
horizontal line cutting the square survey box in half. A straight
contour has to leave the polygon somewhere; this is exactly the case
the boundary mode exists for. The vessel starts in shallow water, dives
for the contour, follows it west until it meets the wall, walks the
wall in the deep half, and picks the contour back up on the far side
until the loop closes.

The script runs the control loop tick by tick (no mission runner),
prints every mode transition, and finishes with a crude character map
of the traced loop. The follower reads its settings from a
MissionConfig, as in a full mission; only the target depth and the
search radius are set here, the rest keep their defaults.

Run:  python3 demos/contour_trace.py
"""
import math
import warnings

import numpy as np

# the L-BFGS-B line search sometimes stops early on flat LML basins; the
# fit still returns the best point seen, so keep the demo output clean
warnings.filterwarnings("ignore", message="hyper fit stopped early")

from bathysurvey import (
    ContourFollower,
    GaussianSumField,
    GpModel,
    MissionConfig,
    Mode,
    Polygon,
    Pose,
    VesselState,
    optimize_hypers,
    sonar_sample,
    step_vessel,
)

rng = np.random.default_rng(3)

SIDE = 60.0
poly = Polygon([(0, 0), (SIDE, 0), (SIDE, SIDE), (0, SIDE)])
# a plane is a Gaussian sum without mounds: 7 m at the south edge, 2 m at the north
field = GaussianSumField(offset=7.0, gradient_y=-1.0 / 12.0)
TARGET = 4.5  # true contour: the line y = 30

model = GpModel()
vessel = VesselState(pose=Pose(30.0, 48.0, math.pi), speed=1.0, clock=0.0)
DT, INIT_RADIUS = 1.0, 8.0

# init circle: two-dimensional data before the first fit, like the runner's
for _ in range(40):
    z = sonar_sample(field, vessel.pose, 0.01, rng)
    model.append(vessel.pose.position[None, :], [z])
    vessel = step_vessel(vessel, vessel.pose.psi + (vessel.speed / INIT_RADIUS) * DT, DT)
fit = optimize_hypers(model)
model.set_hypers(fit.hypers)
print(f"init done at t={vessel.clock:.0f}s, n={model.n}, "
      f"fitted l={fit.hypers.length_scale:.1f} m")

follower = ContourFollower(
    MissionConfig(target_depth=TARGET, search_radius=5.0),
    poly, model, initial_heading=vessel.pose.psi,
)

mode, found = follower.state.mode, False
modes = []  # the follower's mode at each traced point
next_refit = vessel.clock + 60.0
while vessel.clock < 1500.0:
    z = sonar_sample(field, vessel.pose, 0.01, rng)
    model.append(vessel.pose.position[None, :], [z])
    if vessel.clock >= next_refit:  # periodic re-estimation, as the mission runner does
        model.set_hypers(optimize_hypers(model).hypers)
        next_refit += 60.0
    psi_d = follower.step(vessel.pose, z, DT)
    st = follower.state
    modes += [st.mode] * (len(st.trace) - len(modes))
    if st.found_contour and not found:
        print(f"t={vessel.clock:6.0f}s  contour found at "
              f"({vessel.pose.x:5.1f},{vessel.pose.y:5.1f}), true depth {float(field.depth(vessel.pose.position)):.2f} m")
        found = True
    if st.mode is not mode:
        print(f"t={vessel.clock:6.0f}s  {mode.value} -> {st.mode.value} at "
              f"({vessel.pose.x:5.1f},{vessel.pose.y:5.1f})")
        mode = st.mode
    loop = follower.complete(vessel.pose)
    if loop is not None:
        print(f"t={vessel.clock:6.0f}s  loop closed: {len(loop)} of the trace's {len(st.trace)} points, "
              f"leaving out an approach tail of {len(st.trace) - len(loop)}")
        break
    vessel = step_vessel(vessel, psi_d, DT)
else:
    print("ran out of time before the loop closed")

# -------------------------------------------------------------- ascii map
# '.' survey box, 'o' traced loop, 'S' start; 1 char per 2 m cell
trace = np.asarray(follower.state.trace)
cols, rows = int(SIDE // 2) + 1, int(SIDE // 2) + 1
canvas = [["." for _ in range(cols)] for _ in range(rows)]
for x, y in trace:
    canvas[int(y // 2)][int(x // 2)] = "o"
canvas[48 // 2][30 // 2] = "S"
print()
for row in reversed(canvas):  # north on top
    print("".join(row))
on_contour = np.array([m is Mode.CONTOUR for m in modes])
err = np.abs(field.depth(trace[on_contour]) - TARGET)
print(f"\ndepth error along the traced contour, wall-walking points excluded: "
      f"median {np.median(err):.3f} m over the {int(on_contour.sum())} contour-mode points of {len(trace)}")

"""
Decompose a non-convex survey region and plan full coverage of it.

The running example is a U-shaped quay. Cells open and close where the
boundary turns back along the sweep, so swept from south to north it
needs three sweep-monotone cells (the base, then one cell per prong),
while swept east to west a single cell suffices because every
north-south line cuts the U in one interval. The script partitions the
polygon both ways, prints the cell table, then plans a complete
lawnmower coverage of the three-cell version and draws it.

Tracklines sit on a shared grid anchored at the sweep minimum, so the
tracks of neighbouring cells line up exactly; a transit between cells
takes the shortest path inside the polygon, which bends only at its
reflex vertices.

Run:  python3 demos/partition_and_plan.py
"""
import math

import numpy as np

from bathysurvey import Polygon, partition_monotone, plan_coverage

# a 30 x 40 m U: base along the south edge, prongs 10 m wide
quay = Polygon([(0, 0), (30, 0), (30, 40), (20, 40), (20, 10), (10, 10), (10, 40), (0, 40)])
DELTA = 2.0

for name, sweep in (("south-to-north", 0.0), ("east-to-west", -math.pi / 2)):
    cells = partition_monotone(quay, DELTA, sweep)
    print(f"sweep {name} ({sweep:.3f} rad): {len(cells)} monotone cell(s)")
    for c in cells:
        print(f"  cell {c.index}: opens at t={c.t_open:6.2f}, closes at t={c.t_close:6.2f}, "
              f"{len(c.top_chain) + len(c.bottom_chain)} chain vertices, area {c.outline().area:7.1f} m^2")
print()

plan = plan_coverage(quay, start=(1.0, 1.0), delta=DELTA, sweep_dir=0.0)
total_area = sum(c.outline().area for c in plan.cells)
print(f"coverage plan: {len(plan.waypoints)} waypoints, {plan.total_length:.0f} m of track")
print(f"cell outlines hold {total_area:.0f} of {quay.area:.0f} m^2: the cells tile the polygon")
for seg in plan.segments:
    a, b = seg.points[0], seg.points[-1]
    print(f"  {seg.kind:9s} cell {seg.cell_index}: ({a[0]:5.1f},{a[1]:5.1f}) -> ({b[0]:5.1f},{b[1]:5.1f}), "
          f"{len(seg.points)} waypoints")

# --------------------------------------------------------------- picture
# 1 char per metre: '#' polygon outline, 'o' mowing, '+' transit
W, H = 31, 41
canvas = [[" " for _ in range(W)] for _ in range(H)]
ring = quay.vertices
for i in range(len(ring)):
    a, b = ring[i], ring[(i + 1) % len(ring)]
    for s in np.linspace(0.0, 1.0, 80):
        p = a + s * (b - a)
        canvas[int(round(p[1]))][int(round(p[0]))] = "#"
for seg in plan.segments:
    mark = "o" if seg.kind == "lawnmower" else "+"
    for i in range(len(seg.points) - 1):
        a, b = seg.points[i], seg.points[i + 1]
        for s in np.linspace(0.0, 1.0, 30):
            p = a + s * (b - a)
            r, c = int(round(p[1])), int(round(p[0]))
            if canvas[r][c] == " ":
                canvas[r][c] = mark
print()
for row in reversed(canvas):
    print("".join(row).rstrip())

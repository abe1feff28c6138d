"""Sweep the triangle area over detector angles and classify its landscape.

With the first detector pinned at 0, the information area becomes a surface
over (beta, gamma).  The three tripartite states produce qualitatively
different landscapes: a peak, a saddle, and a flat-in-Euclidean-terms ridge.
Each result is one array per column; the columns are written as CSV for
external plotting.
"""

import csv
import dataclasses
import sys

import numpy as np

from qig import area_surface_fn, critical_points, sweep_surface

GRID = 31  # one point every 3 degrees; pi/4 is a grid point

for name in ("ghz", "w", "product_v"):
    rows = sweep_surface(name, grid_n=GRID)
    areas = rows.area_info
    print(f"=== {name}: information-area surface on a {GRID}x{GRID} grid ===")
    print(f"  area range: [{areas.min():.4f}, {areas.max():.4f}] bits^2")
    violations = (~rows.euclid_defined).sum()
    print(f"  triangle-inequality violations: {violations}")

    points = critical_points(rows, surface_fn=area_surface_fn(name), refine_levels=2)
    interesting = [p for p in points if p.kind in ("max", "min", "saddle")]
    for p in interesting:
        print(f"  stationary point: kind={p.kind:6s} at "
              f"(beta, gamma) = ({p.beta:.4f}, {p.gamma:.4f}), area = {p.value:.4f}")
    print()

# emit one CSV for external plotting: the field order is the header, one
# row per point, floats in full and the bool column as 1/0
out = "w_surface.csv"
rows = sweep_surface("w", grid_n=GRID)
names = [f.name for f in dataclasses.fields(rows)]
columns = [getattr(rows, name) for name in names]
columns = [(c.astype(int) if c.dtype == bool else c).tolist() for c in columns]
with open(out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(names)
    writer.writerows(zip(*columns))
print(f"wrote {rows.beta.size} rows to {out}", file=sys.stderr)

"""Where should one unit disk go to cover the most points?

The angular sweep answers this exactly.  Some optimal disk has a covered
point on its boundary, so the sweep anchors each point on the boundary and
sweeps the arcs from which a center would also cover each point within
distance 2.  An arc's ends are the two unit disks through the anchor and
that point, computed as the candidate disks are, so the sweep's disk is
always one of the candidates below.  One KD-tree pair query, made when the points are read into
arrays, finds those neighbors, so each anchor only sees the few points a
disk through it can reach, and the work follows local density instead of
n^2.  An anchor with d neighbors covers at most d + 1
points, so the table of each anchor's best placement is filled lazily:
anchors are swept in blocks, highest bound first, until the bound falls
below the best count found.  The best entry is the answer, and a greedy
solver later sweeps only the anchors whose bound on the uncovered points
can still reach its best.
"""

import numpy as np

from diskcover import UnitDisk, coverage, generate, solve
from diskcover.geometry import candidate_centers, point_arrays
from diskcover.single_disk import anchor_table, best_placement

SIDE = 25.0
pts = generate(n=400, side=SIDE, seed=2024).points

swept = solve(pts, 1)    # m = 1: the single-disk optimum, nothing more
disk = swept.disks[0]

print(f"instance: {len(pts)} points uniform in [0, {SIDE:g}]^2")
print()
print(f"angular sweep : {swept.rho} points covered, "
      f"center ({disk.cx:.4f}, {disk.cy:.4f})")
points = point_arrays(pts)    # coordinates, ids and near lists, read once
pairs = len(points.near) - len(pts)    # a near list holds its own point too
print(f"the points' near lists hold {pairs} directed "
      f"neighbor pairs (vs n^2 = {len(pts)**2})")

table = anchor_table(points)
best_placement(table, np.zeros(len(pts), dtype=bool))    # the first disk
print(f"the first disk swept {int(table.swept.sum())} of {len(pts)} anchors "
      f"(all {pairs} pairs fit in one sweep block)")
large = anchor_table(point_arrays(generate(n=5000, side=100.0, seed=2024).points))
best_placement(large, np.zeros(5000, dtype=bool))
print(f"on 5000 points in [0, 100]^2 it sweeps {int(large.swept.sum())} of 5000 "
      f"anchors: the others have too few neighbors to reach the best")

# independent check: the best disk among all candidate disks
cx, cy, _ = candidate_centers(points)
brute = max(coverage(UnitDisk(x, y), pts).count for x, y in zip(cx.tolist(), cy.tolist()))
assert swept.rho == brute
assert (disk.cx, disk.cy) in set(zip(cx.tolist(), cy.tolist()))
print()
print(f"the best of {len(cx)} candidate disks covers {brute} points too,")
print("and the sweep's disk is one of those candidates")

"""Where should one unit disk go to cover the most points?

The angular sweep answers this exactly.  Some optimal disk has a covered
point on its boundary, so the sweep anchors each point on the boundary and
sweeps the arcs from which a center would also cover each point within
distance 2.  A KD-tree finds those neighbor pairs, so each anchor only sees
the few points a disk through it can reach, and the work follows local
density instead of n^2.  All anchors are swept at once into a table of each
anchor's best placement; the best entry is the answer, and a greedy solver
later re-sweeps only the anchors next to the points it has covered.
"""

from diskcover import UnitDisk, coverage, generate, solve
from diskcover.geometry import candidate_centers
from diskcover.single_disk import anchor_table

SIDE = 25.0
pts = generate(n=400, side=SIDE, seed=2024).points

swept = solve(pts, 1)    # m = 1: the single-disk optimum, nothing more
disk = swept.disks[0]

print(f"instance: {len(pts)} points uniform in [0, {SIDE:g}]^2")
print()
print(f"angular sweep : {swept.rho} points covered, "
      f"center ({disk.cx:.4f}, {disk.cy:.4f})")
print(f"the sweep's anchor table holds {len(anchor_table(pts).anchor)} directed "
      f"neighbor pairs (vs n^2 = {len(pts)**2})")

# independent check: the best disk among all candidate disks
cx, cy, _ = candidate_centers(pts)
brute = max(coverage(UnitDisk(x, y), pts).count for x, y in zip(cx.tolist(), cy.tolist()))
assert swept.rho == brute
print()
print(f"the best of {len(cx)} candidate disks covers {brute} points too")

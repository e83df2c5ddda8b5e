"""Exact best-k disks by candidate enumeration.

Some optimal solution only uses "candidate" disks: disks centered on a point
or passing through two points.  Enumerating k-subsets of candidates is
therefore exact.  This demo shows the candidate set, what coverage-dedup
does to it, how the combination count explodes with k, and that adding a
disk never reduces coverage.
"""

from diskcover import generate, most_points
from diskcover.geometry import candidate_centers, point_arrays

inst = generate(n=30, side=7.0, seed=99)
pts = inst.points
cx, _, _ = candidate_centers(point_arrays(pts))
print(f"{len(pts)} points -> {len(cx)} candidate disks "
      f"(bound: n^2 = {len(pts) ** 2})")
print()

for k in (1, 2, 3):
    res = most_points(pts, k, dedup=True)
    s = res.stats
    print(f"k={k}: covers {res.covered.count:2d}   "
          f"candidates {s.candidates_generated} -> {s.candidates_after_dedup} deduped, "
          f"{s.combos_evaluated} combinations scored")

print()
off = most_points(pts, 2, dedup=False)
on = most_points(pts, 2, dedup=True)
print("dedup never changes the value, only the work:")
print(f"  dedup off: {off.covered.count} covered, {off.stats.combos_evaluated} pairs")
print(f"  dedup on : {on.covered.count} covered, {on.stats.combos_evaluated} pairs")

pruned = most_points(pts, 3, dedup=True, prune=True)
full = most_points(pts, 3, dedup=True, prune=False)
print()
print("branch-and-bound keeps the value and cuts the work:")
print(f"  prune off: {full.covered.count} covered, {full.stats.combos_evaluated} combos")
print(f"  prune on : {pruned.covered.count} covered, {pruned.stats.combos_evaluated} combos")

"""Output-sensitive exact solver for covering the most points with m disks.

The driver keeps an optimal set of i disks and grows it one disk at a time.
At each step two branches are compared on full-instance coverage:

* greedy extension: the incumbent plus the single best disk on the points it
  does not cover yet.  The instance's anchor table (``single_disk``) is
  built once, for the first disk, and fills lazily; each extension sweeps
  only the anchors whose uncovered neighbors could reach its best, not the
  residual instance;
* neighborhood re-solve: an exact best-(i) search restricted to the points
  within distance 3 of the incumbent's centers.  Any disk sharing a covered
  point with the incumbent lies entirely inside that region, so whenever the
  greedy extension is not optimal the re-solve is.

The better branch is provably optimal at every step, while the expensive
exact search only ever sees the neighborhood, whose size is bounded by a
constant times the single-disk optimum rather than by n.

A call builds one ``PointArrays`` record, of its input.  The anchor table
reads it, and each re-solve reads the neighborhood's rows of it, with the
near lists restricted to them (``neighbor_points``), so no re-solve builds
another record or tree.  Both branches are scored as boolean masks over the
record's rows, and the incumbent's cover is kept as one, from the first
disk on; the ``CoverageSet`` of the result is built from it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import most_points
from .geometry import CoverageSet, Point, PointArrays, UnitDisk, covered_mask, point_arrays
from .single_disk import AnchorTable, anchor_table, best_placement

# Neighborhood circles have radius 3 around each chosen center: a unit disk
# that shares a point with a chosen unit disk has its center within 2 of
# that disk's center, hence covers only points within 3 of it.
NEIGHBOR_RADIUS = 3.0

# Same closed-boundary philosophy as disk coverage, scaled to radius 3
# (slack applies to the squared distance).
NEIGHBOR_EPS = 9e-9


@dataclass
class IterationTrace:
    """Per-iteration record of the branch comparison (i runs from 2 to m)."""

    i: int
    greedy_gain: int
    neighborhood_size: int
    exact_value: int
    chose_greedy: bool
    combos_evaluated: int


@dataclass
class Solution:
    disks: list[UnitDisk]
    covered: CoverageSet
    rho: int
    traces: list[IterationTrace] = field(default_factory=list)
    total_combos: int = 0


def neighbor_points(points: PointArrays, disks: list[UnitDisk]) -> PointArrays:
    """The record of the rows of ``points`` within NEIGHBOR_RADIUS of at least
    one disk center (``PointArrays.restrict``), in id order.

    Distances do not change, so its near lists are those of ``points``
    restricted to these rows; no tree is built.  They could differ from a
    fresh ``point_arrays``' only for a pair whose tree distance rounds
    across REACH, and no filter reads that far: the sweep and the candidates
    stop at 2 + PAIR_EPS and the predicate at about 2 + 1e-9.
    """
    if not disks:
        raise ValueError("neighbor_points requires at least one disk")
    limit = NEIGHBOR_RADIUS * NEIGHBOR_RADIUS + NEIGHBOR_EPS
    return points.restrict(covered_mask(points, disks, limit))


def _greedy_step(table: AnchorTable, covered: np.ndarray) -> tuple[UnitDisk, np.ndarray]:
    """Best single disk on the points outside ``covered``, and the new union.

    ``covered`` and the union are masks over the rows of the table's
    record.  The disk is the sweep's on the uncovered points, read from the
    instance's anchor table.  If every point is already covered there is
    nothing to gain: the disk is centered on the point of least id and
    coverage is unchanged.
    """
    found = best_placement(table, covered)
    if found is None:
        return UnitDisk(float(table.points.x[0]), float(table.points.y[0])), covered
    _, disk = found
    return disk, covered | covered_mask(table.points, [disk])


def solve(pts: list[Point], m: int, prune: bool = False) -> Solution:
    """Exactly cover the maximum number of points with m unit disks.

    The first disk is the best entry of the anchor table; each later disk
    is the better of the greedy extension and the exact neighborhood re-solve
    (ties go to the re-solve).  ``prune`` enables branch-and-bound inside the
    neighborhood searches; it changes combo counts, never values.

    The ids of ``pts`` must be distinct and non-negative, else ValueError.

    combos_evaluated in each trace is the neighborhood search's
    (``ExactSolveStats``): without prune every k-combination of its
    distinct rows, which the count floor accounts for without scoring each,
    and under prune those scored; the greedy branch contributes none.
    """
    if m < 1:
        raise ValueError("solve requires m >= 1")

    table = anchor_table(point_arrays(pts))
    points = table.points
    first, covered = _greedy_step(table, np.zeros(len(points), dtype=bool))
    disks: list[UnitDisk] = [first]
    rho = int(covered.sum())
    traces: list[IterationTrace] = []
    total_combos = 0

    for i in range(2, m + 1):
        greedy_disk, greedy_union = _greedy_step(table, covered)

        nbr = neighbor_points(points, disks)
        refined = most_points(nbr, i, dedup=True, prune=prune)
        # the refined disks may also cover points outside the neighborhood;
        # both branches are compared on full-instance coverage
        refined_cover = covered_mask(points, refined.disks)

        greedy_count, refined_count = int(greedy_union.sum()), int(refined_cover.sum())
        chose_greedy = greedy_count > refined_count
        if chose_greedy:
            disks.append(greedy_disk)
            covered = greedy_union
        else:
            disks = list(refined.disks)
            covered = refined_cover

        traces.append(
            IterationTrace(
                i=i,
                greedy_gain=greedy_count,
                neighborhood_size=len(nbr),
                exact_value=refined_count,
                chose_greedy=chose_greedy,
                combos_evaluated=refined.stats.combos_evaluated,
            )
        )
        total_combos += refined.stats.combos_evaluated

    return Solution(disks, CoverageSet.from_ids(points.ids[covered]), rho, traces, total_combos)


def greedy_solve(pts: list[Point], m: int) -> Solution:
    """Plain greedy: repeatedly add the best disk on the uncovered points.

    Covers at least a (1 - 1/e) fraction of the optimum; used as a baseline
    and as the quality floor the exact solver is tested against.  The ids
    of ``pts`` must be distinct and non-negative, as in ``solve``.
    """
    if m < 1:
        raise ValueError("greedy_solve requires m >= 1")
    table = anchor_table(point_arrays(pts))
    first, covered = _greedy_step(table, np.zeros(len(table.points), dtype=bool))
    disks = [first]
    rho = int(covered.sum())
    for _ in range(2, m + 1):
        disk, covered = _greedy_step(table, covered)
        disks.append(disk)
    return Solution(disks, CoverageSet.from_ids(table.points.ids[covered]), rho)

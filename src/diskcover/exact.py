"""Exact best-k disks by enumeration over the candidate set.

The search space is the finite candidate set from ``geometry.candidate_disks``
(at most n^2 disks); the optimum over all k-subsets of candidates equals the
optimum over arbitrary disk placements.  Coverage sets are integer bitmasks,
so scoring a combination is a union plus a popcount.  The number of complete
k-combinations scored is recorded: for k=2 it is exactly the "pairs of disks
processed" cost metric the benchmark harness compares across solvers.

Enumeration is lexicographic over candidates sorted by center, so stats and
tie-breaks are reproducible.  Two optional reductions:

* dedup: candidates with identical coverage are collapsed to the first
  (smallest-center) representative.  Never changes the optimum value.
* prune: branch-and-bound over candidates re-sorted by coverage count
  descending; a partial selection is abandoned when its union plus the best
  remaining counts cannot beat the incumbent.  Never changes the optimum
  value, but may return a different equally-good disk set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    CoverageSet,
    Point,
    UnitDisk,
    candidate_centers,
    center_coverage_bits,
)
from .single_disk import best_disk_sweep


@dataclass
class ExactSolveStats:
    combos_evaluated: int = 0
    candidates_generated: int = 0
    candidates_after_dedup: int = 0


@dataclass
class MultiDiskResult:
    disks: list[UnitDisk]
    covered: CoverageSet
    stats: ExactSolveStats


def _greedy_seed(bits: list[int], k: int) -> tuple[int, tuple[int, ...]]:
    """Greedy-by-marginal-gain k-subset; a realizable incumbent for pruning."""
    union = 0
    chosen: list[int] = []
    taken = set()
    for _ in range(k):
        best_gain = -1
        best_i = -1
        for i, b in enumerate(bits):
            if i in taken:
                continue
            gain = (b & ~union).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        taken.add(best_i)
        chosen.append(best_i)
        union |= bits[best_i]
    return union.bit_count(), tuple(sorted(chosen))


def _enumerate_exact(
    bits: list[int], k: int, prune: bool
) -> tuple[int, tuple[int, ...], int]:
    """Best k-subset of coverage bitmasks (k <= len(bits)).

    Returns (count, chosen index tuple, combos evaluated), where combos
    counts complete k-subsets whose union was scored.  Without pruning the
    enumeration is lexicographic over indices and the first maximum wins,
    which (for center-sorted candidates) realizes the smallest-sorted-center
    tie-break.  With pruning the incumbent starts at the greedy solution, so
    abandoning branches that can at best tie never loses the optimum value.
    """
    m = len(bits)
    order = list(range(m))
    if prune:
        order.sort(key=lambda i: -bits[i].bit_count())
    counts = [bits[i].bit_count() for i in order]
    combos = 0
    if prune:
        best_count, best_combo = _greedy_seed(bits, k)
    else:
        best_count = -1
        best_combo = ()

    def descend(pos: int, chosen: list[int], union: int) -> None:
        nonlocal best_count, best_combo, combos
        remaining = k - len(chosen)
        if remaining == 1:
            ucount = union.bit_count()
            evaluated = 0
            for t in range(pos, m):
                # counts are descending under prune: nothing later can win
                if prune and ucount + counts[t] <= best_count:
                    break
                c = (union | bits[order[t]]).bit_count()
                evaluated += 1
                if c > best_count:
                    best_count = c
                    best_combo = tuple(chosen) + (order[t],)
            combos += evaluated
            return
        for t in range(pos, m - remaining + 1):
            idx = order[t]
            if prune:
                bound = (union | bits[idx]).bit_count() + sum(
                    counts[t + 1 : t + remaining]
                )
                if bound <= best_count:
                    continue
            chosen.append(idx)
            descend(t + 1, chosen, union | bits[idx])
            chosen.pop()

    descend(0, [], 0)
    return best_count, best_combo, combos


def most_points(
    pts: list[Point], k: int, dedup: bool = True, prune: bool = False
) -> MultiDiskResult:
    """Optimal coverage of pts by k unit disks, over the candidate set.

    Tie-break: maximum coverage first, then the lexicographically smallest
    sorted list of disk centers.  k=1 delegates to the angular sweep (same
    optimum, far less work); its stats count the sweep's scored placements.
    If fewer distinct candidates than k exist, the solution is padded by
    repeating the best disk.
    """
    if not pts:
        raise ValueError("most_points requires a non-empty point list")
    if k < 1:
        raise ValueError("most_points requires k >= 1")

    if k == 1:
        res = best_disk_sweep(pts)
        n_placements = res.placements_examined
        stats = ExactSolveStats(
            combos_evaluated=n_placements,
            candidates_generated=n_placements,
            candidates_after_dedup=n_placements,
        )
        return MultiDiskResult([res.disk], res.covered, stats)

    cx, cy = candidate_centers(pts)
    rows, bits = center_coverage_bits(cx, cy, pts, distinct=dedup)
    xs, ys = cx[rows].tolist(), cy[rows].tolist()
    stats = ExactSolveStats(
        candidates_generated=len(cx), candidates_after_dedup=len(bits)
    )

    if k >= len(bits):
        # every candidate can be used; pad with the single best disk
        union = 0
        for b in bits:
            union |= b
        best_single = min(
            range(len(bits)), key=lambda i: (-bits[i].bit_count(), xs[i], ys[i])
        )
        chosen = [UnitDisk(x, y) for x, y in zip(xs, ys)]
        chosen += [chosen[best_single]] * (k - len(bits))
        stats.combos_evaluated = 1
        return MultiDiskResult(chosen, CoverageSet(union), stats)

    count, combo, combos = _enumerate_exact(bits, k, prune)
    stats.combos_evaluated = combos
    union = 0
    for i in combo:
        union |= bits[i]
    chosen = sorted((UnitDisk(xs[i], ys[i]) for i in combo), key=lambda d: (d.cx, d.cy))
    return MultiDiskResult(chosen, CoverageSet(union), stats)

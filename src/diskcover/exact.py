"""Exact best-k disks by enumeration over the candidate set.

The search space is the finite candidate set from ``geometry.candidate_disks``
(at most n^2 disks); the optimum over all k-subsets of candidates equals the
optimum over arbitrary disk placements.  Coverage sets are integer bitmasks,
so scoring a combination is a union plus a popcount.  Every k, k=1 included,
goes through the same enumeration, so this module is an oracle independent of
the single-disk sweep.  The number of complete k-combinations scored is
recorded: for k=2 it is exactly the "pairs of disks processed" cost metric
the benchmark harness compares across solvers.

Enumeration is lexicographic over candidates sorted by center, so stats and
tie-breaks are reproducible.  Two optional reductions:

* dedup: candidates with identical coverage are collapsed to the first
  (smallest-center) representative.  Never changes the optimum value.
* prune: branch-and-bound over candidates re-sorted by coverage count
  descending; a partial selection is abandoned when its union plus the best
  remaining counts cannot beat the incumbent, and the search stops once the
  incumbent covers every point (on dense inputs that bound exceeds the point
  count and cuts nothing).  Never changes the optimum value, but may return
  a different equally-good disk set.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

from .geometry import (
    CoverageSet,
    Point,
    UnitDisk,
    candidate_centers,
    center_coverage_bits,
)


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


def _greedy_seed(
    bits: list[int], counts: list[int], order: list[int], k: int
) -> tuple[int, tuple[int, ...]]:
    """Greedy-by-marginal-gain k-subset; a realizable incumbent for pruning.

    Each step takes the smallest index of largest gain.  ``order`` lists the
    indices by count descending, and a gain never exceeds its count, so a
    step stops scanning at the first count below the best gain so far.
    """
    union = 0
    chosen: list[int] = []
    for _ in range(k):
        best_gain = -1
        best_i = -1
        for i in order:
            if counts[i] < best_gain:
                break
            if i in chosen:
                continue
            gain = (bits[i] & ~union).bit_count()
            if gain > best_gain or (gain == best_gain and i < best_i):
                best_gain = gain
                best_i = i
        chosen.append(best_i)
        union |= bits[best_i]
    return union.bit_count(), tuple(sorted(chosen))


class _AllCovered(Exception):
    """A pruned search found a combination covering every point."""


def _enumerate_exact(
    bits: list[int], counts: list[int], k: int, prune: bool, full: int
) -> tuple[int, tuple[int, ...], int]:
    """Best k-subset of coverage bitmasks (k <= len(bits)).

    ``counts[i]`` is the popcount of ``bits[i]``, and ``full`` (the point
    count) bounds the popcount of every union.  Returns (count, chosen index
    tuple, combos evaluated), where combos counts complete k-subsets whose
    union was scored.  Without pruning the enumeration is lexicographic over
    indices and the first maximum wins, which (for center-sorted candidates)
    realizes the smallest-sorted-center tie-break.  With pruning the
    incumbent starts at the greedy solution, so abandoning branches that can
    at best tie never loses the optimum value, and reaching ``full`` ends the
    search.
    """
    m = len(bits)
    order = list(range(m))
    if prune:
        order.sort(key=lambda i: -counts[i])
        best_count, best_combo = _greedy_seed(bits, counts, order, k)
        if best_count == full:
            return best_count, best_combo, 0
    else:
        best_count = -1
        best_combo = ()
    ranked = [counts[i] for i in order]
    combos = 0

    def descend(pos: int, chosen: list[int], union: int) -> None:
        nonlocal best_count, best_combo, combos
        remaining = k - len(chosen)
        if remaining == 1:
            ucount = union.bit_count()
            evaluated = 0
            for t in range(pos, m):
                # ranked is descending under prune: nothing later can win
                if prune and ucount + ranked[t] <= best_count:
                    break
                c = (union | bits[order[t]]).bit_count()
                evaluated += 1
                if c > best_count:
                    best_count = c
                    best_combo = tuple(chosen) + (order[t],)
                    if prune and c == full:
                        combos += evaluated
                        raise _AllCovered
            combos += evaluated
            return
        for t in range(pos, m - remaining + 1):
            idx = order[t]
            if prune:
                bound = (union | bits[idx]).bit_count() + sum(
                    ranked[t + 1 : t + remaining]
                )
                if bound <= best_count:
                    continue
            chosen.append(idx)
            descend(t + 1, chosen, union | bits[idx])
            chosen.pop()

    with suppress(_AllCovered):
        descend(0, [], 0)
    return best_count, best_combo, combos


def most_points(
    pts: list[Point], k: int, dedup: bool = True, prune: bool = False
) -> MultiDiskResult:
    """Optimal coverage of pts by k unit disks, over the candidate set.

    Tie-break: maximum coverage first, then the lexicographically smallest
    sorted list of disk centers.  Every k, k=1 included, enumerates the
    candidate set: k=1 returns the first candidate of maximum count in
    center order, and its stats count candidates and scored candidates like
    any other k.  If fewer distinct candidates than k exist, the solution is
    padded by repeating the best disk.
    """
    if not pts:
        raise ValueError("most_points requires a non-empty point list")
    if k < 1:
        raise ValueError("most_points requires k >= 1")

    cx, cy = candidate_centers(pts)
    rows, bits = center_coverage_bits(cx, cy, pts, distinct=dedup)
    xs, ys = cx[rows].tolist(), cy[rows].tolist()
    counts = [b.bit_count() for b in bits]
    stats = ExactSolveStats(
        candidates_generated=len(cx), candidates_after_dedup=len(bits)
    )

    if k >= len(bits):
        # every candidate can be used; pad with the single best disk
        union = 0
        for b in bits:
            union |= b
        best_single = min(range(len(bits)), key=lambda i: (-counts[i], xs[i], ys[i]))
        chosen = [UnitDisk(x, y) for x, y in zip(xs, ys)]
        chosen += [chosen[best_single]] * (k - len(bits))
        stats.combos_evaluated = 1
        return MultiDiskResult(chosen, CoverageSet(union), stats)

    count, combo, combos = _enumerate_exact(bits, counts, k, prune, len(pts))
    stats.combos_evaluated = combos
    union = 0
    for i in combo:
        union |= bits[i]
    chosen = sorted((UnitDisk(xs[i], ys[i]) for i in combo), key=lambda d: (d.cx, d.cy))
    return MultiDiskResult(chosen, CoverageSet(union), stats)

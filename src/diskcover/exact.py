"""Exact best-k disks by enumeration over the candidate set.

The search space is the finite candidate set of ``geometry.candidate_centers``
(at most n^2 disks); the optimum over all k-subsets of candidates equals the
optimum over arbitrary disk placements.  The candidates and their coverage
read one ``geometry.PointArrays`` record of the input.  Each candidate's
coverage is one row of uint64 words with a bit per point, built from the
points within 2 of the candidate's anchor, the point that generated it
(``geometry.coverage_rows``, packed by ``geometry.packed_coverage``, which
also returns each row's count).
Bit l stands for the point of rank l in x, so a disk's bits, and those of
the nearby disks that follow it in center order, share one or two words.
Scoring a combination is an OR of rows and a popcount, and a block of
combinations is scored by a few numpy expressions.  Every k, k=1
included, goes through the same enumeration, so this module is an oracle
independent of the single-disk sweep.  The number of complete k-combinations
scored is recorded: for k=2 it is exactly the "pairs of disks processed"
cost metric the benchmark harness compares across solvers.

Enumeration is lexicographic over candidates sorted by center, so stats and
tie-breaks are reproducible.  Two optional reductions:

* dedup: candidates with identical coverage are collapsed to the first
  (smallest-center) representative.  Never changes the optimum value.
* prune: coverage rows are built only for the candidates whose count bound,
  the length of the anchor's near list, can take part in a combination
  better than a greedy one (``_pruned_rows``), highest bound first; then
  branch-and-bound over those rows re-sorted by coverage count descending:
  a partial selection is abandoned when its union plus the best remaining
  counts cannot beat the incumbent, and the search stops once the
  incumbent covers every point (on dense inputs that bound exceeds the
  point count and cuts nothing).  Never changes the optimum value, but may
  return a different equally-good disk set.

Both searches score their combinations in blocks of at most BLOCK_WORDS
words; a block reproduces, combination for combination, the counts and the
first-maximum-wins order of scoring the combinations one at a time.  The
unpruned search scores each pair exactly, but only on the words where the
outer rows of its block have points outside the prefix's union.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BLOCK_ROWS,
    CoverageSet,
    Point,
    PointArrays,
    UnitDisk,
    candidate_centers,
    coverage_rows,
    csr_entries,
    packed_coverage,
    point_arrays,
    unpack_coverage,
)

# The most uint64 words one scoring block ORs together (1 MB); it bounds the
# memory a block adds, whatever the number of candidates.
BLOCK_WORDS = 1 << 17


@dataclass
class ExactSolveStats:
    """What one ``most_points`` call built and scored.

    ``candidates_generated`` is every candidate center, with or without
    prune (``harness`` derives the faithful enumeration's pair count from
    it).  ``candidates_after_dedup`` is the number of coverage rows searched:
    the candidates left by dedup, all of them without it; under prune only
    the built candidates are deduplicated, so it counts those.
    ``combos_evaluated`` counts the complete k-combinations scored.
    """

    combos_evaluated: int = 0
    candidates_generated: int = 0
    candidates_after_dedup: int = 0


@dataclass
class MultiDiskResult:
    disks: list[UnitDisk]
    covered: CoverageSet
    stats: ExactSolveStats


def _union_counts(words: np.ndarray, union: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """popcount(union | words[r]) for every r in ``rows``, a block at a time."""
    out = np.empty(len(rows), dtype=np.int64)
    step = max(1, BLOCK_WORDS // words.shape[1])
    for lo in range(0, len(rows), step):
        block = words[rows[lo : lo + step]]
        block |= union
        out[lo : lo + step] = np.bitwise_count(block).sum(axis=1, dtype=np.int32)
    return out


def _best_pair(
    cols: np.ndarray, ncols: np.ndarray, union: np.ndarray, base: np.ndarray
) -> tuple[int, tuple[int, int]]:
    """Best pair j < t of the columns of a word-major matrix ORed with ``union``,
    first maximum wins.

    ``cols[w, j]`` is word w of row j, ``ncols`` is ``~cols`` and ``base[t]``
    is popcount(union | row t).  The union of a pair is the disjoint union
    of union | row t and rest_j & ~row t, where rest_j = row j & ~union, so
    its popcount is base[t] plus popcount(rest_j & ~row t), summed only over
    the words in which some rest_j of the block is nonzero.  A block scores
    a few outer rows j, from row a on, against every row t > a; a row too
    long for one block is alone in its block and cut into column blocks,
    which keeps the order.  No entry needs a mask: one with t < j scores as
    (t, j), which comes first in the block, and one with t == j > a at most
    as (a, j), so the row-major argmax of a block is its lexicographically
    first best pair.
    """
    width, n = cols.shape
    span = max(1, BLOCK_WORDS // width)
    rows_per = max(1, span // n)
    outside = ~union[:, None]
    best, pair = -1, (0, 1)
    for a in range(0, n - 1, rows_per):
        b = min(a + rows_per, n - 1)
        rest = cols[:, a:b] & outside
        touched = rest.any(axis=1).nonzero()[0].tolist()
        for c0 in range(a + 1, n, span):
            c1 = min(c0 + span, n)
            # with no word touched every row scores base, and its first
            # maximum lies in row a
            score = base[c0:c1]
            for w in touched:
                score = score + np.bitwise_count(rest[w, :, None] & ncols[w, None, c0:c1])
            flat = int(score.argmax())
            if score.flat[flat] > best:
                j, t = divmod(flat, c1 - c0)
                best, pair = int(score.flat[flat]), (a + j, c0 + t)
    return best, pair


def _enumerate_all(words: np.ndarray, counts: np.ndarray, k: int) -> tuple[int, tuple[int, ...]]:
    """First maximum of all k-subsets in lexicographic order (k < len(words)).

    Each prefix of k - 2 rows, in lexicographic order, is followed by one
    ``_best_pair`` over the rows after it, ORed with the prefix's union.  The
    complement of the rows is built once; a prefix adds popcount(union &
    ~row t) to each later row's count, over the words its union touches.
    """
    if k == 1:
        i = int(counts.argmax())
        return int(counts[i]), (i,)
    cols = np.ascontiguousarray(words.T)
    ncols = ~cols
    counts = counts.astype(np.int32)
    best, combo = -1, ()
    # a prefix leaves at least two rows after it
    for prefix in itertools.combinations(range(len(words) - 2), k - 2):
        pos = prefix[-1] + 1 if prefix else 0
        union = np.bitwise_or.reduce(cols[:, prefix], axis=1)
        base = counts[pos:]
        for w in union.nonzero()[0].tolist():
            base = base + np.bitwise_count(union[w] & ncols[w, pos:])
        count, (j, t) = _best_pair(cols[:, pos:], ncols[:, pos:], union, base)
        if count > best:
            best, combo = count, prefix + (pos + j, pos + t)
    return best, combo


def _greedy_seed(
    words: np.ndarray, counts: np.ndarray, order: np.ndarray, k: int
) -> tuple[int, tuple[int, ...]]:
    """Greedy-by-marginal-gain k-subset; a realizable incumbent for pruning.

    Each step takes the smallest index of largest gain.  ``order`` lists the
    rows by count descending, and a gain never exceeds its count, so a step
    scores the rows in that order a block at a time and stops at the first
    block whose leading count is below the best gain so far.
    """
    union = np.zeros(words.shape[1], dtype=np.uint64)
    chosen: list[int] = []
    step = max(1, BLOCK_WORDS // words.shape[1])
    for _ in range(k):
        base = int(np.bitwise_count(union).sum())
        best_gain, best_i = -1, -1
        for lo in range(0, len(order), step):
            if counts[order[lo]] < best_gain:
                break
            rows = order[lo : lo + step]
            gains = _union_counts(words, union, rows) - base
            gains[np.isin(rows, chosen)] = -1
            gain = int(gains.max())
            i = int(rows[gains == gain].min())
            if gain > best_gain or (gain == best_gain and i < best_i):
                best_gain, best_i = gain, i
        chosen.append(best_i)
        union |= words[best_i]
    return int(np.bitwise_count(union).sum()), tuple(sorted(chosen))


class _PrunedSearch:
    """Branch-and-bound over the rows in count-descending order.

    The incumbent starts at the greedy solution, so abandoning branches that
    can at best tie never loses the optimum value, and reaching ``full`` ends
    the search.  A level computes the bound of every row it may still take
    at once: the union with that row plus the counts of the rows that would
    follow it.  ``ucount + ranked[t]`` is non-increasing in ``t`` and the
    incumbent never decreases, so the last level stops scoring at the first
    ``t`` where that sum cannot beat the incumbent, which a block finds from
    the running maximum of its scores.
    """

    def __init__(self, words: np.ndarray, counts: np.ndarray, k: int, full: int):
        self.words, self.k, self.full = words, k, full
        self.order = np.argsort(-counts, kind="stable")
        self.ranked = counts[self.order]
        self.prefix = np.concatenate(([0], np.cumsum(self.ranked)))
        self.best, self.combo = _greedy_seed(words, counts, self.order, k)
        self.combos = 0

    def run(self) -> tuple[int, tuple[int, ...], int]:
        if self.best < self.full:
            self._descend(0, (), np.zeros(self.words.shape[1], dtype=np.uint64), 0)
        return self.best, self.combo, self.combos

    def _descend(self, pos: int, chosen: tuple[int, ...], union: np.ndarray, ucount: int) -> None:
        remaining = self.k - len(chosen)
        if remaining == 1:
            self._last_level(pos, chosen, union, ucount)
            return
        last = len(self.order) - remaining + 1
        # the counts of the remaining - 1 rows after each t
        after = self.prefix[pos + remaining : last + remaining] - self.prefix[pos + 1 : last + 1]
        # ucount + ranked[t] bounds the union with row t and, like after, does
        # not increase with t: only a prefix of the rows needs the exact bound
        loose = ucount + self.ranked[pos:last] + after
        end = pos + int(np.searchsorted(-loose, -self.best))
        union_counts = _union_counts(self.words, union, self.order[pos:end])
        bound = union_counts + after[: end - pos]
        for t in (np.flatnonzero(bound > self.best) + pos).tolist():
            if self.best == self.full:
                return
            if bound[t - pos] <= self.best:
                continue
            idx = int(self.order[t])
            self._descend(
                t + 1, chosen + (idx,), union | self.words[idx], int(union_counts[t - pos])
            )

    def _last_level(self, pos: int, chosen: tuple[int, ...], union: np.ndarray, ucount: int) -> None:
        ranked, order = self.ranked, self.order
        step = max(1, BLOCK_WORDS // self.words.shape[1])
        t = pos
        while True:
            # from the first t with ucount + ranked[t] <= best on, nothing can
            # win (-ranked ascends)
            end = int(np.searchsorted(-ranked, ucount - self.best))
            if end <= t:
                return
            hi = min(end, t + step)
            score = _union_counts(self.words, union, order[t:hi])
            # the incumbent as each score is reached
            before = np.maximum.accumulate(np.concatenate(([self.best], score[:-1])))
            stop = np.flatnonzero(ucount + ranked[t:hi] <= before)
            n = int(stop[0]) if len(stop) else hi - t
            covered_all = np.flatnonzero(score[:n] == self.full)
            if len(covered_all):
                n = int(covered_all[0]) + 1
            self.combos += n
            j = int(score[:n].argmax())
            if score[j] > self.best:
                self.best, self.combo = int(score[j]), chosen + (int(order[t + j]),)
            if n < hi - t or self.best == self.full:
                return
            t = hi


def _enumerate_exact(
    words: np.ndarray, counts: np.ndarray, k: int, prune: bool, full: int
) -> tuple[int, tuple[int, ...], int]:
    """Best k-subset of the coverage rows ``words`` (k < len(words)).

    ``counts[i]`` is the popcount of row i, as int64 (the pruned search
    negates it), and ``full`` (the point count) bounds the popcount of every
    union.  Returns (count, chosen index tuple, combos evaluated), where
    combos counts complete k-subsets whose union was scored.  Without
    pruning every k-subset is scored, in lexicographic order, and the first
    maximum wins, which (for center-sorted candidates) realizes the
    smallest-sorted-center tie-break.
    """
    if prune:
        return _PrunedSearch(words, counts, k, full).run()
    count, combo = _enumerate_all(words, counts, k)
    return count, combo, math.comb(len(words), k)


def _greedy_cover(indptr: np.ndarray, cols: np.ndarray, n_points: int, k: int) -> int:
    """Points covered by k CSR coverage rows taken greedily, each step the
    first row of largest gain; a value k disks realize."""
    covered = np.zeros(n_points, dtype=bool)
    for _ in range(k):
        fresh = np.concatenate(([0], np.cumsum(~covered[cols])))
        t = int((fresh[indptr[1:]] - fresh[indptr[:-1]]).argmax())
        covered[cols[indptr[t] : indptr[t + 1]]] = True
    return int(covered.sum())


def _pruned_rows(
    points: PointArrays, cx: np.ndarray, cy: np.ndarray, anchor: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates whose rows can be in a k-combination better than a
    greedy one, ascending, and their coverage as CSR rows (indptr, cols).

    A center covers only points of its anchor's near list, so the list's
    length ``ub`` bounds its count.  The first join takes every candidate
    whose ``ub`` is at least the BLOCK_ROWS-th largest (every candidate if
    there are no more), and k of their rows taken greedily cover ``inc``
    points.  With C the largest count joined and L the largest ``ub`` not
    joined, a combination that uses a candidate not joined covers at most
    L + (k - 1) * max(C, L) points.  So each further join takes the
    candidates with ``ub > inc - (k - 1) * C``, until one raises no C: then
    L <= inc - (k - 1) * C <= C (inc is at most k times the first C), the
    bound is at most ``inc``, which the joined rows realize, and their
    optimum is the optimum.  A second further join only has candidates of
    ``ub`` at most the first C, so it raises no C: there are at most two.
    """
    ub = np.diff(points.near_ptr)[anchor]
    top = np.partition(ub, -BLOCK_ROWS)[-BLOCK_ROWS] if len(ub) > BLOCK_ROWS else 0
    built = [np.flatnonzero(ub >= top)]
    parts = [coverage_rows(cx[built[0]], cy[built[0]], anchor[built[0]], points)]
    if len(built[0]) < len(ub):
        inc = _greedy_cover(*parts[0], len(points.x), k)
        most = int(np.diff(parts[0][0]).max())
        floor = inc - (k - 1) * most
        while len(band := np.flatnonzero((ub < top) & (ub > floor))):
            built.append(band)
            parts.append(coverage_rows(cx[band], cy[band], anchor[band], points))
            most = max(most, int(np.diff(parts[-1][0]).max()))
            top, floor = floor + 1, inc - (k - 1) * most
    if len(parts) == 1:
        return built[0], *parts[0]
    # the joins' rows, merged into center order
    built = np.concatenate(built)
    order = np.argsort(built, kind="stable")
    lengths = np.concatenate([np.diff(indptr) for indptr, _ in parts])
    at, lengths = csr_entries(np.concatenate(([0], np.cumsum(lengths))), order)
    cols = np.concatenate([cols for _, cols in parts])[at]
    return built[order], np.concatenate(([0], np.cumsum(lengths))), cols


def most_points(
    pts: list[Point], k: int, dedup: bool = True, prune: bool = False
) -> MultiDiskResult:
    """Optimal coverage of pts by k unit disks, over the candidate set.

    Tie-break: maximum coverage first, then the lexicographically smallest
    sorted list of disk centers.  Every k, k=1 included, enumerates the
    candidate set: k=1 returns the first candidate of maximum count in
    center order, and its stats count candidates and scored candidates like
    any other k.  If no more rows than k are searched (distinct candidates,
    or under prune the built ones), all of them are used, padded by repeating
    the best disk.  The ids of ``pts`` must be distinct;
    a repeated id raises ValueError.
    """
    if not pts:
        raise ValueError("most_points requires a non-empty point list")
    if k < 1:
        raise ValueError("most_points requires k >= 1")

    points = point_arrays(pts)
    cx, cy, anchor = candidate_centers(points)
    if prune:
        built, indptr, cols = _pruned_rows(points, cx, cy, anchor, k)
    else:
        built, (indptr, cols) = np.arange(len(cx)), coverage_rows(cx, cy, anchor, points)
    rows, words, gids, counts = packed_coverage(indptr, cols, points, distinct=dedup)
    rows = built[rows]
    stats = ExactSolveStats(
        candidates_generated=len(cx), candidates_after_dedup=len(rows)
    )

    if k >= len(rows):
        # every row can be used; pad with the single best disk, the
        # first maximum in center order
        chosen = [UnitDisk(x, y) for x, y in zip(cx[rows].tolist(), cy[rows].tolist())]
        chosen += [chosen[int(counts.argmax())]] * (k - len(rows))
        stats.combos_evaluated = 1
        return MultiDiskResult(chosen, unpack_coverage(np.bitwise_or.reduce(words), gids), stats)

    _, combo, combos = _enumerate_exact(words, counts, k, prune, len(pts))
    stats.combos_evaluated = combos
    union = np.bitwise_or.reduce(words[list(combo)])
    centers = rows[list(combo)]
    chosen = sorted(
        (UnitDisk(x, y) for x, y in zip(cx[centers].tolist(), cy[centers].tolist())),
        key=lambda d: (d.cx, d.cy),
    )
    return MultiDiskResult(chosen, unpack_coverage(union, gids), stats)

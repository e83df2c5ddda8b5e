"""Exact best-k disks by enumeration over the candidate set.

The search space is the finite candidate set of ``geometry.candidate_centers``
(at most n^2 disks); the optimum over all k-subsets of candidates equals the
optimum over arbitrary disk placements.  The candidates and their coverage
read one ``geometry.PointArrays`` record: the one given, or that of the
point list given.  Each candidate's coverage is one row of uint64 words
with a bit per point the rows searched cover, built from the points within
2 of the candidate's anchor, the point that generated it
(``geometry.coverage_rows``, packed by ``geometry.packed_coverage``, which
also returns each row's count).  Bit l stands for the covered point of
rank l in x, so a disk's bits, and those of the nearby disks that follow it
in center order, share one or two words.
Scoring a combination is an OR of rows and a popcount, and a block of
combinations is scored by a few numpy expressions.  Every k, k=1
included, goes through the same enumeration, so this module is an oracle
independent of the single-disk sweep.  The number of complete k-combinations
scored is recorded: for k=2 it is exactly the "pairs of disks processed"
cost metric the benchmark harness compares across solvers.

Enumeration is lexicographic over candidates sorted by center, so stats and
tie-breaks are reproducible.  A greedy answer confines every search: a
k-combination covering at least ``inc`` points, the count of a greedy one
(``_greedy``), has every row's count at or above the count floor
``inc - (k - 1) * C``, C the largest count (``_count_floor``).  Without
prune only the rows at or above it are packed and enumerated
(``_reaching_rows``), and their first maximum is that of every row; the
stats still count what the enumeration stands for, every row and
C(rows, k) combinations.  Two optional reductions:

* dedup: candidates with identical coverage are collapsed to the first
  (smallest-center) representative.  Never changes the optimum value.
* prune: the greedy bound applies twice.  Coverage rows are built only for
  the candidates whose count bound, the length of the anchor's near list,
  can take part in a combination better than a greedy one
  (``_pruned_rows``); then, on their true counts, only the rows above the
  count floor, with ``inc`` the greedy's count over them, and the greedy's
  own rows, are deduplicated, packed and searched (``_floored_rows``): a
  combination beating the greedy uses no other row.  The search is
  branch-and-bound over those rows, re-sorted by count descending, from
  the greedy pick: every level scores in one pass the rows before the
  first whose loose bound, the union's count plus the best remaining
  counts, cannot beat the incumbent, and the search stops once the
  incumbent covers every point (on dense inputs that bound exceeds the
  point count and cuts nothing).  It cuts every branch through a row below the floor,
  so its result and combos are those of a search over every distinct
  joined row.  Never changes the optimum value, but may return a different
  equally-good disk set than the unpruned enumeration.

Both searches score their combinations in blocks of at most BLOCK_WORDS
words; a block reproduces, combination for combination, the counts and the
first-maximum-wins order of scoring the combinations one at a time.
Without prune, k=2 scores from its words only a pair whose rows' bit spans
overlap, on the words where the outer rows of its block have points; every
other pair is disjoint, and scored in closed form as the sum of the two
counts.  k >= 3 builds one table of every pair's union, in chunks, and
scores each (k - 2)-prefix against it on the words the prefix's union
touches, after three exact cuts (``_enumerate_all``): rows inside an
earlier row are dropped (all but the first k), a prefix whose union's
count plus its best pair's cannot beat the best is skipped, and once the
best covers every point the rows cover only smaller prefixes are scanned.
The first maximum, and the stats' C(rows, k), are those of the whole
enumeration.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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
    distinct_rows,
    packed_coverage,
    point_arrays,
    unpack_coverage,
)

# The most uint64 words one scoring block, or one chunk of the k >= 3 pair
# table, holds (1 MB); it bounds the memory a block adds, whatever the number
# of candidates.
BLOCK_WORDS = 1 << 17


@dataclass
class ExactSolveStats:
    """What one ``most_points`` call built and scored.

    ``candidates_generated`` is every candidate center, with or without
    prune (``harness`` derives the faithful enumeration's pair count from
    it).  Without prune, ``candidates_after_dedup`` and
    ``combos_evaluated`` count what the enumeration stands for, not the
    rows it packs (those at or above the count floor) or the combinations
    k >= 3 scores after its cuts (dominated rows, bounded prefixes, the
    full-cover stop): the candidates left by dedup, all of them without
    it, and C(that, k) combinations, or 1 if there are at most k.  Under
    prune they count the rows searched and the complete k-combinations
    scored; only the rows above the count floor and the greedy's are
    deduplicated, so it counts those (all the distinct built rows if there
    are at most k).
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


def _window_ends(words: np.ndarray) -> np.ndarray:
    """For each row j, a row ``end[j] > j`` from which on no row shares a
    bit with row j.

    A row spans its lowest set bit ``lo`` to its highest ``hi``; a zero row
    gets ``lo`` past every bit and a negative ``hi``.  Every row from i on has
    ``lo`` at least ``smin[i]``, the suffix minimum of ``lo``, which does
    not decrease, so the rows from the first i with ``smin[i] > hi[j]`` on
    are disjoint from row j.
    """
    n, width = words.shape
    # one pass per word finds each row's first and last nonzero word, and
    # starts lo at the first bit of the one and hi at the last of the other
    first, last = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    lo, hi = np.full(n, 64 * width, dtype=np.int32), np.full(n, -1, dtype=np.int32)
    for i in range(width):
        word = words[:, i]
        nonzero = word != 0
        np.copyto(last, word, where=nonzero)
        np.copyto(hi, 64 * i + 63, where=nonzero)
        nonzero &= lo == 64 * width
        np.copyto(first, word, where=nonzero)
        np.copyto(lo, 64 * i, where=nonzero)
    # trailing zeros of the first nonzero word: the bits below its lowest
    w = np.negative(first)
    w &= first
    w -= np.uint64(1)
    lo += np.bitwise_count(w)
    # smeared down, the last nonzero word's popcount is its bit length
    for s in (1, 2, 4, 8, 16, 32):
        last |= last >> np.uint64(s)
    hi -= 64 - np.bitwise_count(last)
    smin = np.minimum.accumulate(lo[::-1])[::-1]
    end = np.searchsorted(smin, hi, side="right")
    # a nonzero row has smin <= lo <= hi at its own index, so only zero
    # rows need end = j + 1
    zero = np.flatnonzero(hi < 0)
    end[zero] = zero + 1
    return end


def _pair_blocks(end: np.ndarray, span: int) -> Iterator[tuple[int, int, int]]:
    """The blocks (a, b, E) of outer rows [a, b) of the k=2 kernel, E the
    largest ``end`` of their rows: from each a, the most rows whose
    rectangle (b - a) * (E - a) holds at most ``span`` entries, or row a
    alone."""
    n = len(end)
    a = 0
    while a < n - 1:
        # both factors grow with b, and (b - a) * (end[a] - a) bounds the
        # rectangle below, so no more rows than span // (end[a] - a) fit
        ends = np.maximum.accumulate(end[a : min(n - 1, a + max(1, span // (end[a] - a)))])
        size = np.arange(1, len(ends) + 1) * (ends - a)
        b = a + max(1, int(np.searchsorted(size, span, side="right")))
        yield a, b, int(ends[b - a - 1])
        a = b


def _best_pair(cols: np.ndarray, ncols: np.ndarray, counts: np.ndarray) -> tuple[int, tuple[int, int]]:
    """Best pair j < t of the columns of a word-major matrix, first maximum
    wins: the k=2 kernel.

    ``cols[w, j]`` is word w of row j, ``ncols`` is ``~cols`` and
    ``counts[t]`` is the popcount of row t.  A block of outer rows [a, b)
    from ``_pair_blocks`` scores exactly only the columns a < t < E, E the
    largest ``_window_ends`` of its rows, at most BLOCK_WORDS // width
    entries: the union of a pair is the disjoint union of row t and row j & ~row t, so
    its popcount is counts[t] plus popcount(row j & ~row t), summed only
    over the words in which some row j of the block is nonzero.  A row
    whose window is wider than that is alone in its block and cut into
    column blocks, which keeps the order.  No entry needs a mask: one with
    t < j scores as (t, j), which comes first in the block, and one with
    t == j > a at most as (a, j), so the row-major argmax of a block is its
    lexicographically first best pair among those columns.

    Rows from E on share no bit with any row of the block, so such a pair
    scores counts[j] + counts[t], in closed form: its best is the first j
    of largest count in the block with the first t >= E of largest count,
    the first "leader" (a row whose count is the suffix maximum of counts
    from it) at or after E.  It replaces the block's exact best on a larger
    count, or an equal one as a smaller pair.  When n * n entries fit in one
    block there is one block, E = n, and nothing is scored in closed form.
    """
    width, n = cols.shape
    span = max(1, BLOCK_WORDS // width)
    if n * n <= span:
        blocks = [(0, n - 1, n)]
    else:
        blocks = _pair_blocks(_window_ends(cols.T), span)
        leaders = np.flatnonzero(counts == np.maximum.accumulate(counts[::-1])[::-1])
    best, pair = -1, (0, 1)
    for a, b, e in blocks:
        rest = cols[:, a:b]
        touched = rest.any(axis=1).nonzero()[0].tolist()
        for c0 in range(a + 1, e, span):
            c1 = min(c0 + span, e)
            # with no word touched every row scores its count, and its first
            # maximum lies in row a
            score = counts[c0:c1]
            for w in touched:
                score = score + np.bitwise_count(rest[w, :, None] & ncols[w, None, c0:c1])
            flat = int(score.argmax())
            if score.flat[flat] > best:
                j, t = divmod(flat, c1 - c0)
                best, pair = int(score.flat[flat]), (a + j, c0 + t)
        if e < n:
            far = (a + int(counts[a:b].argmax()), int(leaders[np.searchsorted(leaders, e)]))
            score = int(counts[far[0]] + counts[far[1]])
            if score > best or (score == best and far < pair):
                best, pair = score, far
    return best, pair


def _dominated(words: np.ndarray, k: int) -> np.ndarray:
    """Mask of the rows t >= k whose bits all lie in an earlier row's:
    ``words[t] & ~words[j] == 0`` for some j < t.

    Rows [t0, t1) are tested against every row before t1 at once, one word
    at a time: a block of (t1 - t0) * t1 * width word tests, at most
    BLOCK_WORDS (at least one row t).
    """
    n, width = words.shape
    cols = np.ascontiguousarray(words.T)
    ncols = ~cols
    out = np.zeros(n, dtype=bool)
    cap = BLOCK_WORDS // width
    t0 = k
    while t0 < n:
        # the most rows t1 - t0 with (t1 - t0) * t1 <= cap
        t1 = min(n, max(t0 + 1, (t0 + math.isqrt(t0 * t0 + 4 * cap)) // 2))
        outside = cols[0, t0:t1, None] & ncols[0, None, :t1]
        for w in range(1, width):
            outside |= cols[w, t0:t1, None] & ncols[w, None, :t1]
        inside = outside == 0
        del outside
        # of the rows of the block, only those before t count
        inside[:, t0:] &= np.tri(t1 - t0, k=-1, dtype=bool)
        out[t0:t1] = inside.any(axis=1)
        t0 = t1
    return out


def _enumerate_all(words: np.ndarray, counts: np.ndarray, k: int) -> tuple[int, tuple[int, ...]]:
    """First maximum of all k-subsets in lexicographic order (k < len(words)).

    k=1 is the first row of largest count and k=2 one ``_best_pair`` over
    all rows.  For k >= 3 three exact cuts confine the search:

    * dominance: a row t >= k inside an earlier row j (``_dominated``) is
      dropped.  The first maximum never uses it: with j outside the
      combination, j in place of t, and with j inside it, the smallest row
      not in it (there is one before t), would give a lexicographically
      smaller combination covering at least as many points.  The first k
      rows stay, so at least k are left; exactly k are the one combination;
    * prefix bound: a prefix with union U scores no pair above popcount(U)
      plus the largest pc among its pairs, a suffix maximum of the chunk's
      pc; a prefix whose bound cannot beat the best, or can only tie it
      from a larger prefix, is skipped;
    * full cover: once the best covers every point the rows cover, their
      OR, a prefix can at most tie it, so a chunk's scan stops at the first
      prefix not smaller than the best's.

    A subset of the rows left is a (k - 2)-prefix and a pair j < t of later
    rows, and one table holds every pair in lexicographic order:
    ``~(row j | row t)`` word-major and pc = popcount(row j | row t).  A
    prefix with union U scores a pair as pc + popcount(U & ~(row j | row
    t)), summed only over the words U touches.  The table is built in chunks
    of consecutive j, at most BLOCK_WORDS words each (at least one j).
    Chunk by chunk, the prefixes come in lexicographic order; one ending at
    row p scores the pairs with j > p, a suffix of the chunk, whose argmax
    is its lexicographically first best pair.  A result replaces the best
    on a larger count, or on an equal one if its prefix is smaller: the
    best then comes from an earlier chunk, whose pairs all come first.
    The result is in positions of ``words``, as without the cuts.
    """
    if k == 1:
        i = int(counts.argmax())
        return int(counts[i]), (i,)
    if k == 2:
        cols = np.ascontiguousarray(words.T)
        return _best_pair(cols, ~cols, counts.astype(np.int32))
    keep = np.flatnonzero(~_dominated(words, k))
    words = words[keep]
    n, width = words.shape
    full = int(np.bitwise_count(np.bitwise_or.reduce(words)).sum())
    if n == k:
        return full, tuple(range(k))
    cols = np.ascontiguousarray(words.T)
    rows = words.tolist()
    # holds the popcount of any union
    dtype = np.min_scalar_type(64 * width)
    # table words before each j
    before = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1)))) * width
    best, combo = -1, ()
    j0 = 0
    while j0 < n - 1:
        j1 = max(j0 + 1, int(np.searchsorted(before, before[j0] + BLOCK_WORDS, side="right")) - 1)
        js = np.arange(j0, j1)
        lens = n - 1 - js
        # the position in the chunk of each j's first pair
        starts = np.concatenate(([0], np.cumsum(lens)))
        nw = cols[:, np.repeat(js, lens)]
        # pair i of the chunk is (j, j + 1 + i - starts[j - j0])
        t = np.arange(starts[-1])
        t -= np.repeat(starts[:-1] - js - 1, lens)
        nw |= cols[:, t]
        del t
        pc = np.bitwise_count(nw).sum(axis=0, dtype=dtype)
        np.invert(nw, out=nw)
        # the largest pc of the pairs from each j's first on
        top = np.maximum.accumulate(pc[::-1])[::-1][starts[:-1]].tolist()
        first = starts[:-1].tolist()
        for prefix in itertools.combinations(range(j1 - 1), k - 2):
            if best == full and prefix >= combo[:-2]:
                break
            union = rows[prefix[0]]
            for r in prefix[1:]:
                union = [a | b for a, b in zip(union, rows[r])]
            i = max(0, prefix[-1] + 1 - j0)
            s = first[i]
            bound = sum(u.bit_count() for u in union) + top[i]
            if bound < best or (bound == best and prefix >= combo[:-2]):
                continue
            score = pc[s:]
            for w, u in enumerate(union):
                if u:
                    score = score + np.bitwise_count(nw[w, s:] & u)
            i = int(score.argmax())
            count = int(score[i])
            if count > best or (count == best and prefix < combo[:-2]):
                f = s + i
                j = int(np.searchsorted(starts, f, side="right")) - 1
                best, combo = count, prefix + (j0 + j, j0 + j + 1 + f - int(starts[j]))
        j0 = j1
    return best, tuple(keep[list(combo)].tolist())


def _pruned_search(
    words: np.ndarray, counts: np.ndarray, k: int, full: int, incumbent: tuple
) -> tuple[int, tuple[int, ...], int]:
    """Best k-subset of the coverage rows ``words`` (k <= len(words)) as (count,
    chosen index tuple, complete k-subsets scored): branch-and-bound over the
    rows in count-descending order from the ``incumbent`` (count, chosen index
    tuple), which k rows realize, so cutting a branch that can at best tie
    never loses the optimum value.  ``counts`` are the rows' popcounts as
    int64; reaching ``full``, the point count, ends the search.

    Every level is one pass.  The loose bound of row t, the union's count
    plus the counts of the ``remaining`` rows from t on, does not increase
    with t: a binary search over prefix sums finds ``end``, the first t where
    it cannot beat the incumbent, and one ``_union_counts`` call scores the
    rows before it.  Above the last level a row is taken while its score
    plus the counts after it beats the incumbent; at the last level the
    scores are the combinations' counts, counted up to the first t whose
    loose bound cannot beat the incumbent as it stands there (or through the
    first score of ``full``), and their first maximum replaces the incumbent
    only if larger.
    """
    order = np.argsort(-counts, kind="stable")
    ranked = counts[order]
    prefix = np.concatenate(([0], np.cumsum(ranked)))
    # minus the counts of the r rows from each t on, ascending in t
    minus = {r: prefix[:-r] - prefix[r:] for r in range(1, k + 1)}
    best, combo = incumbent
    combos = 0

    def descend(pos: int, chosen: tuple[int, ...], union: np.ndarray, ucount: int) -> None:
        nonlocal best, combo, combos
        remaining = k - len(chosen)
        end = int(np.searchsorted(minus[remaining][pos:], ucount - best))
        if end == 0:
            return
        scores = _union_counts(words, union, order[pos : pos + end])
        if remaining == 1:
            # the incumbent as each score is reached
            before = np.maximum.accumulate(np.concatenate(([best], scores[:-1])))
            stop = np.flatnonzero(ucount + ranked[pos : pos + end] <= before)
            n = int(stop[0]) if len(stop) else end
            covered_all = np.flatnonzero(scores[:n] == full)
            if len(covered_all):
                n = int(covered_all[0]) + 1
            combos += n
            j = int(scores[:n].argmax())
            if scores[j] > best:
                best, combo = int(scores[j]), chosen + (int(order[pos + j]),)
            return
        # the union with row t plus the counts of the remaining - 1 rows after it
        bound = scores - minus[remaining - 1][pos + 1 : pos + 1 + end]
        for t in np.flatnonzero(bound > best).tolist():
            if best == full:
                return
            if bound[t] <= best:
                continue
            idx = int(order[pos + t])
            descend(pos + t + 1, chosen + (idx,), union | words[idx], int(scores[t]))

    if best < full:
        descend(0, (), np.zeros(words.shape[1], dtype=np.uint64), 0)
    # the reference of descend to itself would keep the words alive until a collection
    del descend
    return best, combo, combos


def _greedy(
    indptr: np.ndarray, cols: np.ndarray, rows: np.ndarray, n_points: int, k: int
) -> tuple[int, tuple[int, ...]]:
    """Greedy-by-marginal-gain k of the CSR coverage ``rows``, a value the
    rows taken realize: each step takes the first row of largest gain, and
    the steps stop early once no row gains.  Returns the points covered and
    the positions in ``rows`` taken, ascending.

    A row taken is the first in ``rows`` of its coverage set: a repeat of a
    set gains what its first row gains, after it."""
    at, lengths = csr_entries(indptr, rows)
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    row_cols, owner = cols[at], np.repeat(np.arange(len(rows)), lengths)
    covered = np.zeros(n_points, dtype=bool)
    taken: list[int] = []
    for _ in range(k):
        gains = lengths - np.bincount(owner[covered[row_cols]], minlength=len(rows))
        t = int(gains.argmax())
        if gains[t] == 0:
            break
        taken.append(t)
        covered[row_cols[ptr[t] : ptr[t + 1]]] = True
    return int(covered.sum()), tuple(sorted(taken))


def _count_floor(inc: int, most: int, k: int) -> int:
    """The least count of a row in a k-combination that covers at least
    ``inc`` points, when no row counts more than ``most``: the other k - 1
    rows cover at most (k - 1) * most of them."""
    return inc - (k - 1) * most


def _pruned_rows(
    points: PointArrays, cx: np.ndarray, cy: np.ndarray, anchor: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, tuple[int, ...]]]:
    """The candidates whose rows can be in a k-combination better than a
    greedy one, in join order, their coverage as CSR rows (indptr, cols),
    the rows in center order, and ``_greedy`` over those.

    A center covers only points of its anchor's near list, so the list's
    length ``ub`` bounds its count.  Each join takes the candidates not yet
    joined with ``ub`` above ``floor``, first those of ``ub`` at least the
    BLOCK_ROWS-th largest (all if there are no more); while some are left,
    the first join's rows that ``_greedy`` takes cover ``inc`` points.
    With C the largest count joined and L the largest ``ub`` not joined, a
    combination using a candidate not joined covers at most L + (k - 1) *
    max(C, L) points, so the next floor is ``inc - (k - 1) * C``.  Once a
    join raises no C, L <= inc - (k - 1) * C <= C (inc <= k * first C), the
    bound is at most ``inc``, which the joined rows realize, so their
    optimum is the optimum.  A third join only has candidates of ``ub`` at
    most the first C, so it raises no C: there are at most three joins.
    A single join, in center order already, returns its rows and its greedy
    as they are.
    """
    ub = np.diff(points.near_ptr)[anchor]
    floor = np.partition(ub, -BLOCK_ROWS)[-BLOCK_ROWS] - 1 if len(ub) > BLOCK_ROWS else 0
    joined = np.zeros(len(ub), dtype=bool)
    built, parts, most = [], [], 0
    while len(band := np.flatnonzero(~joined & (ub > floor))):
        joined[band] = True
        built.append(band)
        parts.append(coverage_rows(cx[band], cy[band], anchor[band], points))
        if len(parts) == 1:
            rows = np.arange(len(band))
            greedy = _greedy(*parts[0], rows, len(points.x), k)
        if joined.all():
            break
        most = max(most, int(np.diff(parts[-1][0]).max()))
        floor = _count_floor(greedy[0], most, k)
    if len(parts) == 1:
        return built[0], *parts[0], rows, greedy
    starts = itertools.accumulate(len(cols) for _, cols in parts)
    indptr = np.concatenate([parts[0][0], *(p[1:] + s for (p, _), s in zip(parts[1:], starts))])
    cols = np.concatenate([cols for _, cols in parts])
    built = np.concatenate(built)
    rows = np.argsort(built)
    return built, indptr, cols, rows, _greedy(indptr, cols, rows, len(points.x), k)


def _floored_rows(
    indptr: np.ndarray,
    cols: np.ndarray,
    rows: np.ndarray,
    greedy: tuple[int, tuple[int, ...]],
    k: int,
    dedup: bool,
    n_ids: int,
) -> tuple[np.ndarray, tuple | None]:
    """The CSR ``rows`` (in center order) that the pruned search over them
    needs, in order, and its incumbent: the count and the positions taken
    in the rows returned.  If at most k rows are distinct (at most k rows
    if not ``dedup``), they are returned, with no incumbent.

    The search runs over D, the distinct rows (all if not ``dedup``), from
    the greedy over D.  ``greedy``, over all the rows, takes the rows D's
    would: the first row of largest gain is the first of its set.  Once no
    row gains, D's greedy takes the first rows of D not yet taken.  Every
    row of D counts at most C, the largest count, so a k-combination
    beating the greedy's ``inc`` has every count above the floor ``inc -
    (k - 1) * C``, and the search cuts every branch through a row at or
    below it before scoring a combination: the rows above the floor and the
    greedy's give the same result and combos as D.  A set's first row
    counts what its repeats do, so deduplicating only those rows keeps D's.
    D is built whole only to take rows that gain nothing, or to pad: when
    at most k counts are distinct (more prove more than k distinct rows).
    """
    inc, taken = greedy
    taken = rows[list(taken)]
    counts = indptr[rows + 1] - indptr[rows]
    every = None if dedup else rows
    if dedup and (len(taken) < k or np.count_nonzero(np.bincount(counts)) <= k):
        every = distinct_rows(indptr, cols, rows, n_ids)
    if every is not None and len(every) <= k:
        return every, None
    if len(taken) < k:
        taken = np.concatenate((taken, every[~np.isin(every, taken)][: k - len(taken)]))
    keep = np.zeros(len(indptr) - 1, dtype=bool)
    keep[rows[counts > _count_floor(inc, int(counts.max()), k)]] = True
    keep[taken] = True
    if every is not None:
        kept = every[keep[every]]
    else:
        kept = distinct_rows(indptr, cols, rows[keep[rows]], n_ids)
    position = np.zeros(len(indptr) - 1, dtype=np.int64)
    position[kept] = np.arange(len(kept))
    return kept, (inc, tuple(sorted(position[taken].tolist())))


def _reaching_rows(
    indptr: np.ndarray, cols: np.ndarray, rows: np.ndarray, n_points: int, k: int
) -> np.ndarray:
    """The CSR ``rows`` (more than k, in center order) that a k-combination
    covering as many points as the greedy's can use, in order: those
    counting at least the count floor of ``_greedy``'s count over them.

    The greedy's rows, padded with any others, make a k-combination
    covering its count, so every maximum of the k-combinations of ``rows``
    is made of k rows at or above the floor, and the first maximum over
    those, in order, is the first over ``rows``.  A row at the floor stays:
    it can be in the first maximum although no combination through it
    beats the greedy.
    """
    counts = indptr[rows + 1] - indptr[rows]
    inc, _ = _greedy(indptr, cols, rows, n_points, k)
    keep = counts >= _count_floor(inc, int(counts.max()), k)
    return rows if keep.all() else rows[keep]


def most_points(
    pts: list[Point] | PointArrays, k: int, dedup: bool = True, prune: bool = False
) -> MultiDiskResult:
    """Optimal coverage of pts, a point list or its record, by k unit disks,
    over the candidate set.

    Tie-break: maximum coverage first, then the lexicographically smallest
    sorted list of disk centers.  Every k, k=1 included, enumerates the
    candidate set: k=1 returns the first candidate of maximum count in
    center order, and its stats count candidates and scored candidates like
    any other k.  Rows are searched in center order, under prune too, so
    dedup keeps each set's least center.  If there are no more rows than k
    (under prune, distinct built rows), all are used (one combination) and
    padded by repeating the first disk of maximum count in center order.
    Without prune only the rows whose count can take part in a combination
    reaching the greedy's are packed and enumerated, with the result of an
    enumeration of every row and its stats.  Under prune only the rows
    whose count can take part in a combination better than the greedy's,
    and the greedy's own, are searched, with the result and combos of a
    search over every distinct built row.  The ids of ``pts`` must be
    distinct and non-negative; a negative or repeated id raises ValueError,
    as does an empty list or record.
    """
    if not pts:
        raise ValueError("most_points requires a non-empty point list")
    if k < 1:
        raise ValueError("most_points requires k >= 1")

    points = pts if isinstance(pts, PointArrays) else point_arrays(pts)
    cx, cy, anchor = candidate_centers(points)
    incumbent = None
    if prune:
        built, indptr, cols, rows, greedy = _pruned_rows(points, cx, cy, anchor, k)
        rows, incumbent = _floored_rows(indptr, cols, rows, greedy, k, dedup, len(pts))
    else:
        built = rows = np.arange(len(cx))
        indptr, cols = coverage_rows(cx, cy, anchor, points)
        if dedup:
            rows = distinct_rows(indptr, cols, rows, len(pts))
    stats = ExactSolveStats(candidates_generated=len(cx), candidates_after_dedup=len(rows))
    if incumbent is None and k < len(rows):
        rows = _reaching_rows(indptr, cols, rows, len(pts), k)
    words, gids, counts = packed_coverage(indptr, cols, rows, points)
    centers = built[rows]

    if incumbent is not None:
        _, combo, stats.combos_evaluated = _pruned_search(words, counts, k, len(pts), incumbent)
    else:
        # the enumeration stands for every combination of the rows counted
        # above; at most k rows are its one combination
        stats.combos_evaluated = math.comb(stats.candidates_after_dedup, k) or 1
        combo = range(len(rows)) if k >= len(rows) else _enumerate_all(words, counts, k)[1]
    union = np.bitwise_or.reduce(words[list(combo)])
    centers = centers[list(combo) + [int(counts.argmax())] * (k - len(combo))]
    chosen = [UnitDisk(x, y) for x, y in zip(cx[centers].tolist(), cy[centers].tolist())]
    chosen = sorted(chosen[: len(combo)], key=lambda d: (d.cx, d.cy)) + chosen[len(combo) :]
    return MultiDiskResult(chosen, unpack_coverage(union, gids), stats)

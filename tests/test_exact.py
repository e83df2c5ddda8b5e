import collections
import gc
import inspect
import itertools
import math
import sys
import tracemalloc
from contextlib import suppress
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskcover import (
    Point,
    UnitDisk,
    coverage,
    exact,
    generate,
    greedy_solve,
    most_points,
    neighbor_points,
    solve,
)
from diskcover.geometry import (
    candidate_centers,
    coverage_rows,
    distinct_rows,
    packed_coverage,
    point_arrays,
    unpack_coverage,
)
from diskcover.rng import Xoshiro256StarStar

from conftest import candidates, make_points, point_sets, uniform_points


def brute_force_best_k(pts, k):
    """Oracle: score every k-combination of candidate disks, no shortcuts.

    More disks than candidates means all candidates can be used at once.
    """
    bitsets = [coverage(d, pts).bits for d in candidates(pts)]
    if k >= len(bitsets):
        u = 0
        for b in bitsets:
            u |= b
        return u.bit_count()
    best = 0
    for combo in itertools.combinations(bitsets, k):
        u = 0
        for b in combo:
            u |= b
        best = max(best, u.bit_count())
    return best


def reference_best_k(pts, k, dedup):
    """Oracle for most_points(pts, k, dedup, prune=False), from per-disk coverage.

    Dedup keeps the first candidate (in center order) of each coverage set;
    k-subsets are scored in lexicographic order and the first maximum wins.
    Returns (centers, covered bits, combos, candidates, candidates kept).
    """
    cands = candidates(pts)
    disks, bitsets = [], []
    for d in cands:
        b = coverage(d, pts).bits
        if dedup and b in bitsets:
            continue
        disks.append(d)
        bitsets.append(b)
    if len(disks) <= k:
        best = min(range(len(disks)), key=lambda i: (-bitsets[i].bit_count(), disks[i].cx, disks[i].cy))
        chosen = disks + [disks[best]] * (k - len(disks))
        union = 0
        for b in bitsets:
            union |= b
        combos = 1
    else:
        best, union, combo = -1, 0, None
        for c in itertools.combinations(range(len(disks)), k):
            u = 0
            for i in c:
                u |= bitsets[i]
            if u.bit_count() > best:
                best, union, combo = u.bit_count(), u, c
        chosen = sorted((disks[i] for i in combo), key=lambda d: (d.cx, d.cy))
        combos = math.comb(len(disks), k)
    return [(d.cx, d.cy) for d in chosen], union, combos, len(cands), len(disks)


def reference_greedy(bits, k):
    """Greedy-by-marginal-gain k-subset on Python-int bitsets, one row at a time.

    Each step takes the smallest index of largest gain among the rows not
    yet taken, scanning the rows by count descending until a count falls
    below the best gain so far.
    """
    counts = [b.bit_count() for b in bits]
    order = sorted(range(len(bits)), key=lambda i: -counts[i])
    union = 0
    chosen = []
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


class _ReferenceAllCovered(Exception):
    pass


def reference_enumerate(bits, counts, k, prune, full):
    """The enumeration on Python-int bitsets, one combination at a time.

    Returns (count, chosen index tuple, combos evaluated).  Without pruning
    it is the contract of ``exact._enumerate_all`` with C(len(bits), k)
    combos: lexicographic order and first maximum wins.  With it, that of
    ``exact._pruned_search`` from the greedy incumbent: branch-and-bound over
    count-descending rows, stopping once every point is covered.
    """
    m = len(bits)
    order = list(range(m))
    if prune:
        order.sort(key=lambda i: -counts[i])
        best_count, best_combo = reference_greedy(bits, k)
        if best_count == full:
            return best_count, best_combo, 0
    else:
        best_count = -1
        best_combo = ()
    ranked = [counts[i] for i in order]
    combos = 0

    def descend(pos, chosen, union):
        nonlocal best_count, best_combo, combos
        remaining = k - len(chosen)
        if remaining == 1:
            ucount = union.bit_count()
            evaluated = 0
            for t in range(pos, m):
                if prune and ucount + ranked[t] <= best_count:
                    break
                c = (union | bits[order[t]]).bit_count()
                evaluated += 1
                if c > best_count:
                    best_count = c
                    best_combo = tuple(chosen) + (order[t],)
                    if prune and c == full:
                        combos += evaluated
                        raise _ReferenceAllCovered
            combos += evaluated
            return
        for t in range(pos, m - remaining + 1):
            idx = order[t]
            if prune:
                bound = (union | bits[idx]).bit_count() + sum(ranked[t + 1 : t + remaining])
                if bound <= best_count:
                    continue
            chosen.append(idx)
            descend(t + 1, chosen, union | bits[idx])
            chosen.pop()

    with suppress(_ReferenceAllCovered):
        descend(0, [], 0)
    return best_count, best_combo, combos


# rows of the coverage matrix the kernel comparison keeps, by k: enough to
# cross word and block edges, few enough for the one-at-a-time reference
KERNEL_ROWS = {1: 300, 2: 80, 3: 28, 4: 16, 5: 12}


def kernel_cases(pts, dedup):
    """(k, words, Python-int bitsets, CSR rows) of evenly spaced candidate
    rows, per k.

    The bitsets come from ``coverage``, one disk at a time, so the packer is
    checked too; the kernel only sees rows, so a subset of them is as good
    an input as all of them.  The CSR rows are ``(indptr, cols, rows)``,
    ``rows`` the kept rows' positions in the CSR rows of ``coverage_rows``.
    """
    points = point_arrays(pts)
    cx, cy, anchor = candidate_centers(points)
    indptr, cols = coverage_rows(cx, cy, anchor, points)
    rows = np.arange(len(cx))
    if dedup:
        rows = distinct_rows(indptr, cols, rows, len(pts))
    words, gids, _ = packed_coverage(indptr, cols, rows, points)
    assert sorted(gids.tolist()) == points.ids.tolist()
    bits = [coverage(UnitDisk(cx[r], cy[r]), pts).bits for r in rows.tolist()]
    assert [unpack_coverage(w, gids).bits for w in words] == bits
    for k in (1, 2, 3, 4, 5):
        keep = np.unique(np.linspace(0, len(rows) - 1, min(len(rows), KERNEL_ROWS[k])).astype(int))
        if k < len(keep):
            yield k, words[keep], [bits[i] for i in keep.tolist()], (indptr, cols, rows[keep])


def csr_of(bits):
    """The CSR rows ``(indptr, cols, rows)`` of Python-int bitsets, bit l in column l."""
    cols = [[b for b in range(x.bit_length()) if x >> b & 1] for x in bits]
    indptr = np.cumsum([0] + [len(c) for c in cols])
    return indptr, np.array([b for c in cols for b in c], dtype=np.int64), np.arange(len(bits))


def assert_enumeration_matches(words, bits, k, full, csr=None):
    """The kernels against ``reference_enumerate``: ``_enumerate_all``
    unpruned, with C(len(words), k) combos, and ``_pruned_search`` from the
    incumbent of ``exact._greedy`` on the CSR rows of ``bits``, filled with
    the first rows not taken once no row gains, which must be
    ``reference_greedy``'s."""
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    covered, taken = exact._greedy(*(csr or csr_of(bits)), full, k)
    # once no row gains, the incumbent takes the first rows not yet taken
    fill = [i for i in range(len(bits)) if i not in taken][: k - len(taken)]
    greedy = covered, tuple(sorted(taken + tuple(fill)))
    assert greedy == reference_greedy(bits, k), k
    unpruned = (*exact._enumerate_all(words, counts, k), math.comb(len(words), k))
    pruned = exact._pruned_search(words, counts, k, full, greedy)
    for prune, got in ((False, unpruned), (True, pruned)):
        want = reference_enumerate(bits, [b.bit_count() for b in bits], k, prune, full)
        assert got == want, (k, prune)


def assert_pair_kernel_matches(words, bits):
    """The k=2 kernel against the lexicographic first-maximum pair loop,
    under blocks of 1, 3 and 7 words and the default."""
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    want = reference_enumerate(bits, [b.bit_count() for b in bits], 2, False, 64 * words.shape[1])
    for block_words in (1, 3, 7, exact.BLOCK_WORDS):
        with patch.object(exact, "BLOCK_WORDS", block_words):
            assert exact._enumerate_all(words, counts, 2) == want[:2], block_words


def assert_kernel_matches_reference(pts, dedup):
    for k, words, bits, csr in kernel_cases(pts, dedup):
        assert_enumeration_matches(words, bits, k, len(pts), csr)


def packed_rows(bits, width):
    """The word matrix of Python-int bitsets, bit l in word l // 64."""
    return np.array(
        [[(b >> (64 * w)) & (2**64 - 1) for w in range(width)] for b in bits], dtype=np.uint64
    ).reshape(len(bits), width)


def bit_span(lo, hi):
    """The Python-int row of bits lo to hi - 1."""
    return ((1 << (hi - lo)) - 1) << lo


def cut_hits(call):
    """How often ``exact._enumerate_all`` ran its one ``break`` (the
    full-cover stop) and its one ``continue`` (the prefix bound) during
    ``call()``, by line events."""
    code = exact._enumerate_all.__code__
    lines, first = inspect.getsourcelines(exact._enumerate_all)
    at = {
        stmt: [first + i for i, line in enumerate(lines) if line.strip() == stmt]
        for stmt in ("break", "continue")
    }
    assert all(len(found) == 1 for found in at.values()), at
    hits = collections.Counter()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_lineno] += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return {stmt: hits[found[0]] for stmt, found in at.items()}


def x_local_rows(specs, width):
    """Python-int rows over ``width`` words shaped like coverage rows in
    center order, one per ``(kind, step, reach, mask)``: the position moves
    ``step`` bits a row, and a row holds the bits of ``mask`` within
    ``reach`` of it, or is zero (kind "zero"), or repeats the row before
    (kind "repeat")."""
    top = 64 * width
    bits, at = [], 0
    for kind, step, reach, mask in specs:
        at = min(top - 1, at + step)
        if kind == "zero":
            bits.append(0)
        elif kind == "repeat" and bits:
            bits.append(bits[-1])
        else:
            bits.append((mask & ((2 << 2 * reach) - 1)) << max(0, at - reach) & ((1 << top) - 1))
    return bits


row_specs = st.tuples(
    st.sampled_from(["local", "local", "local", "zero", "repeat"]),
    st.integers(0, 10),
    st.integers(0, 12),
    st.integers(0, 2**25 - 1),
)


def x_clustered_points(n, seed):
    """n points in 8 tight clusters strung along x, ids not in x order."""
    rng = Xoshiro256StarStar(seed)
    return [
        Point(5.0 * (i % 8) + rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2), 2 * i + 1)
        for i in range(n)
    ]


def word_boundary_points(n, seed, duplicates):
    """n points (ids 3i + 1) dense enough that unions span several words."""
    pts = uniform_points(seed, n, 0.0, 0.9 * math.sqrt(n))
    if duplicates:
        # every fifth point sits on the one before it
        pts = [pts[i - 1] if i % 5 == 4 else p for i, p in enumerate(pts)]
    return [Point(p.x, p.y, 3 * i + 1) for i, p in enumerate(pts)]


class TestKernelMatchesReference:
    @given(point_sets(min_size=1, max_size=16), st.booleans())
    def test_point_sets(self, pts, dedup):
        assert_kernel_matches_reference(pts, dedup)

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_word_boundaries(self, n, duplicates):
        pts = word_boundary_points(n, 100 + n, duplicates)
        assert_kernel_matches_reference(pts, dedup=False)
        assert_kernel_matches_reference(pts, dedup=True)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_tiny_blocks(self, monkeypatch, rows_per_block):
        # ties and the pruned break point fall across block edges: blocks of
        # 1-3 rows inside the one _union_counts call of each pruned level,
        # the last level included, 1-3 outer rows (or 1-3 columns of one
        # row) in the k=2 pair kernel, and pair table chunks of at most 1-3
        # or 24-72 pairs for k >= 3
        for pts in (
            generate(10, 0.9 * math.sqrt(10), 19).points,
            word_boundary_points(65, 7, duplicates=True),
            make_points([(x, y) for x in range(4) for y in range(3)] * 2),
        ):
            width = -(-len({p.idx for p in pts}) // 64)
            for cols in (1, 24):
                monkeypatch.setattr(exact, "BLOCK_WORDS", rows_per_block * cols * width)
                assert_kernel_matches_reference(pts, dedup=True)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "xy",
        [
            [(0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1)],
            # the first row, the disk on (0, 0), is the first pick
            [(0, 0), (0.1, 0), (0.2, 0), (0.3, 0)],
        ],
    )
    def test_greedy_takes_new_rows_once_nothing_is_left_to_gain(self, xy, k):
        # four points inside one unit disk: the first pick covers them all,
        # so the greedy stops there, and the incumbent's later rows gain 0
        # but must still be rows not yet taken
        pts = make_points(xy)
        _, words, bits, csr = next(case for case in kernel_cases(pts, True) if case[0] == k)
        assert k < len(bits)
        covered, taken = exact._greedy(*csr, 4, k)
        assert (covered, len(taken)) == (4, 1)
        assert_enumeration_matches(words, bits, k, 4, csr)
        res = most_points(pts, k, prune=True)
        assert res.covered.count == 4 and res.stats.combos_evaluated == 0
        assert len({(d.cx, d.cy) for d in res.disks}) == k

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_zero_rows(self, monkeypatch, rows_per_block):
        # rows with no points, alone and in runs, among rows spread over 3
        # words; a zero row touches no word and adds nothing to any union
        rng = Xoshiro256StarStar(41)
        bits = [
            0 if i in (0, 5, 6, 7, 13) else sum(1 << b for b in {rng.randint(0, 191) for _ in range(6)})
            for i in range(16)
        ]
        words = packed_rows(bits, 3)
        for cols in (1, len(bits)):
            monkeypatch.setattr(exact, "BLOCK_WORDS", rows_per_block * cols * 3)
            for k in (2, 3, 4, 5):
                assert_enumeration_matches(words, bits, k, 192)
        zeros = [0] * 6
        for k in (2, 3, 4, 5):
            assert_enumeration_matches(packed_rows(zeros, 2), zeros, k, 128)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_rows_inside_the_prefix_union(self, monkeypatch, rows_per_block):
        # runs of a repeated row and of its subsets: at k = 3 to 5 a prefix
        # through a run's first row has whole runs of pairs inside its
        # union, which score alike, and the first maximum must still win
        a = (0b1011 << 60) | (0b11 << 130)
        b = (1 << 70) | (1 << 71)
        bits = [a, a, a, a, a & (2**64 - 1), b, b, b, a | b, 1 << 150, a, b, 0, 1 << 5, a]
        words = packed_rows(bits, 3)
        for cols in (1, len(bits)):
            monkeypatch.setattr(exact, "BLOCK_WORDS", rows_per_block * cols * 3)
            for k in (2, 3, 4, 5):
                assert_enumeration_matches(words, bits, k, 192)

    def test_the_first_k_rows_stay_although_dominated(self):
        # row 1 lies inside row 0 but is one of the first k rows, which
        # stay: (0, 1, 2) is the first combination covering all 4 points,
        # (0, 2, 3) the first without row 1
        bits = [0b111, 0b1, 0b1000, 0b1000]
        words = packed_rows(bits, 1)
        assert exact._dominated(words, 3).tolist() == [False, False, False, True]
        counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        assert exact._enumerate_all(words, counts, 3) == (4, (0, 1, 2))
        assert_enumeration_matches(words, bits, 3, 4)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_dominance_prefix_bound_and_full_cover_stop(self, monkeypatch, k):
        # B1, B2 and B3 partition the 100 points, so the optimum covers
        # every point; M and the two-point crossers are inside no earlier
        # row, and the crossers with M or each other make prefixes whose
        # bound cannot beat, or only ties, the best of the first prefix
        b1, b2, b3, m = bit_span(0, 40), bit_span(40, 70), bit_span(70, 100), bit_span(40, 60)
        cross = [1 << (60 + i) | 1 << (69 - i) for i in range(5)]
        bits = [
            m, *cross[:3], b1, b1 & ~bit_span(0, 3), b1 & bit_span(5, 30), cross[3], b2, b2,
            b3, b3 & ~(1 << 80), cross[4], m, b3, bit_span(30, 50), bit_span(55, 75),
        ]
        words = packed_rows(bits, 2)
        assert exact._dominated(words, k).sum() == 7
        for block_words in (1, 3, 7, exact.BLOCK_WORDS):
            monkeypatch.setattr(exact, "BLOCK_WORDS", block_words)
            hits = cut_hits(lambda: assert_enumeration_matches(words, bits, k, 100))
            assert hits["break"] > 0 and hits["continue"] > 0, (block_words, hits)

    def test_pair_table_memory_is_bounded_by_block_words(self, monkeypatch):
        # 200 rows of 3 words: the whole k >= 3 pair table is 19,900 pairs of
        # 3 words (478 KB), a chunk of 4,096 words 32 KB; the chunks, not
        # the table, must bound what the enumeration holds at once
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, (200, 3), dtype=np.uint64)
        words &= rng.integers(0, 2**64, (200, 3), dtype=np.uint64)
        counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        want = exact._enumerate_all(words, counts, 3)
        monkeypatch.setattr(exact, "BLOCK_WORDS", 4096)
        tracemalloc.start()
        try:
            got = exact._enumerate_all(words, counts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 300_000, peak

    @given(st.lists(row_specs, min_size=3, max_size=48), st.integers(1, 3))
    def test_pair_kernel_is_the_first_best_pair(self, specs, width):
        # windows of overlapping rows, zero rows, repeated rows and small
        # counts, so that a pair scored exactly often ties one scored in
        # closed form, under blocks of 1, 3 or 7 words and the default
        bits = x_local_rows(specs, width)
        assert_pair_kernel_matches(packed_rows(bits, width), bits)

    @pytest.mark.parametrize(
        "bits",
        [
            # the first best pair, (0, 3), is scored in closed form in the
            # block of rows 0 and 1 (at 7 words), after the tie (1, 2)
            [0b1000, 0b100, 0b101000, 0b10100000],
            # the first best pair, (0, 1), is scored exactly; (0, 2) ties it
            # in closed form
            [0b110000, 0b11010000, 0b11000000],
        ],
    )
    def test_pair_kernel_ties_across_the_window_end(self, bits):
        assert_pair_kernel_matches(packed_rows(bits, 1), bits)

    @pytest.mark.parametrize("shared", [10, 63, 64, 100])
    def test_pair_kernel_rows_sharing_only_an_end_bit(self, shared):
        # two rows of 11 bits whose one common bit is the highest of the
        # first and the lowest of the second, inside a word and at a word's
        # last and first bit: scored as disjoint, the pair would read 22
        run = (1 << 11) - 1
        bits = [run << (shared - 10), run << shared, 1 << 150]
        assert_pair_kernel_matches(packed_rows(bits, 3), bits)

    def test_pair_kernel_windows_at_the_default_block(self):
        # 240 coverage-like rows of 3 words: 240^2 entries exceed one block,
        # so the kernel scores windows, and most pairs in closed form
        rng = Xoshiro256StarStar(22)
        specs = [
            (("local", "local", "local", "zero", "repeat")[rng.randint(0, 4)],
             rng.randint(0, 1), rng.randint(0, 8), rng.randint(0, 2**17 - 1))
            for _ in range(240)
        ]
        bits = x_local_rows(specs, 3)
        words = packed_rows(bits, 3)
        assert len(bits) ** 2 > exact.BLOCK_WORDS // 3
        assert (exact._window_ends(words) < len(bits)).mean() > 0.5
        assert_pair_kernel_matches(words, bits)

    def test_pair_kernel_memory_is_bounded_by_block_words(self, monkeypatch):
        # 3,000 coverage-like rows of 2 words: C(3000, 2) pairs would take
        # 18 MB as int32 scores, a block of 4,096 words at most 2,048
        # entries; the blocks, not the pairs, must bound what the kernel
        # holds at once
        rng = np.random.default_rng(5)
        words = packed_rows([int(rng.integers(1, 256)) << (i // 25) for i in range(3000)], 2)
        counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        want = exact._enumerate_all(words, counts, 2)
        monkeypatch.setattr(exact, "BLOCK_WORDS", 4096)
        tracemalloc.start()
        try:
            got = exact._enumerate_all(words, counts, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 320_000, peak

    @pytest.mark.parametrize("n", [129, 160, 200])
    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_x_clustered_blocks_touch_word_subsets(self, monkeypatch, n, rows_per_block):
        # clusters apart in x own different words, so blocks of candidates
        # (in center order) touch different subsets of the 3-4 words
        pts = x_clustered_points(n, n)
        width = -(-n // 64)
        assert width >= 3
        for dedup in (True, False):
            for k, words, bits, csr in kernel_cases(pts, dedup):
                nonzero = words != 0
                touched = {
                    tuple(np.flatnonzero(nonzero[a : a + rows_per_block].any(axis=0)).tolist())
                    for a in range(0, len(words), rows_per_block)
                }
                assert len(touched) > 1 and all(len(t) < width for t in touched), k
                for cols in (1, 24):
                    monkeypatch.setattr(exact, "BLOCK_WORDS", rows_per_block * cols * width)
                    assert_enumeration_matches(words, bits, k, n, csr)


# k, then points few enough for the k-combination loop of reference_best_k
# (at most 49 candidates for k=3, about 18,000 triples)
K_AND_POINTS = st.sampled_from([1, 2, 3]).flatmap(
    lambda k: st.tuples(st.just(k), point_sets(min_size=1, max_size=12 if k < 3 else 7))
)


class TestMostPoints:
    @given(K_AND_POINTS, st.booleans())
    def test_matches_reference_pair_loop(self, k_and_pts, dedup):
        k, pts = k_and_pts
        res = most_points(pts, k, dedup=dedup)
        got = (
            [(d.cx, d.cy) for d in res.disks],
            res.covered.bits,
            res.stats.combos_evaluated,
            res.stats.candidates_generated,
            res.stats.candidates_after_dedup,
        )
        assert got == reference_best_k(pts, k, dedup)

    def test_two_far_clusters(self):
        pts = make_points([(0, 0), (0.1, 0), (10, 0), (10.1, 0)])
        res = most_points(pts, 2)
        assert res.covered.count == 4

    def test_k_exceeds_need(self):
        res = most_points(make_points([(0, 0), (0.5, 0.5)]), 2)
        assert res.covered.count == 2

    def test_matches_unpruned_pair_loop(self):
        # oracle: double loop over candidate coverage bitsets, written here
        pts = uniform_points(3, 14, 0.0, 6.0)
        bitsets = [coverage(d, pts).bits for d in candidates(pts)]
        expected = 0
        for i in range(len(bitsets)):
            for j in range(i + 1, len(bitsets)):
                expected = max(expected, (bitsets[i] | bitsets[j]).bit_count())
        res = most_points(pts, 2, dedup=False, prune=False)
        assert res.covered.count == expected
        assert res.stats.combos_evaluated == math.comb(len(bitsets), 2)

    def test_optimality_small_instances(self):
        rng = Xoshiro256StarStar(13)
        for _ in range(12):
            n = rng.randint(2, 25)
            side = rng.uniform(1.0, 2.5 * math.sqrt(n))
            pts = uniform_points(rng.next_u64(), n, 0.0, side)
            for k in (1, 2):
                assert most_points(pts, k).covered.count == brute_force_best_k(pts, k)

    def test_optimality_three_disks(self):
        rng = Xoshiro256StarStar(14)
        for _ in range(5):
            n = rng.randint(3, 12)
            side = rng.uniform(1.0, 2.0 * math.sqrt(n))
            pts = uniform_points(rng.next_u64(), n, 0.0, side)
            assert most_points(pts, 3).covered.count == brute_force_best_k(pts, 3)

    def test_optimality_three_disks_full_size(self):
        # one heavier case at the top of the small-instance range
        pts = uniform_points(26, 25, 0.0, 6.0)
        assert most_points(pts, 3).covered.count == brute_force_best_k(pts, 3)

    def test_monotone_in_k(self):
        rng = Xoshiro256StarStar(15)
        for _ in range(8):
            pts = uniform_points(rng.next_u64(), rng.randint(2, 16), 0.0, 5.0)
            counts = [most_points(pts, k).covered.count for k in (1, 2, 3)]
            assert counts[0] <= counts[1] <= counts[2]

    def test_k1_matches_single_disk_solvers(self):
        rng = Xoshiro256StarStar(16)
        for _ in range(10):
            pts = uniform_points(rng.next_u64(), rng.randint(1, 60), 0.0, 8.0)
            c = most_points(pts, 1).covered.count
            assert c == solve(pts, 1).rho

    def test_dedup_changes_stats_not_value(self):
        rng = Xoshiro256StarStar(18)
        for _ in range(10):
            pts = uniform_points(rng.next_u64(), rng.randint(2, 18), 0.0, 4.0)
            on = most_points(pts, 2, dedup=True)
            off = most_points(pts, 2, dedup=False)
            assert on.covered.count == off.covered.count
            assert on.stats.candidates_after_dedup <= off.stats.candidates_after_dedup
            assert on.stats.combos_evaluated <= off.stats.combos_evaluated

    def test_pruning_sound_on_200_instances(self):
        rng = Xoshiro256StarStar(19)
        for _ in range(200):
            n = rng.randint(2, 12)
            k = rng.randint(1, 3)
            side = rng.uniform(1.0, 2.5 * math.sqrt(n))
            pts = uniform_points(rng.next_u64(), n, 0.0, side)
            a = most_points(pts, k, dedup=True, prune=True)
            b = most_points(pts, k, dedup=True, prune=False)
            assert a.covered.count == b.covered.count

    def test_prune_stops_once_every_point_is_covered(self):
        # every candidate here covers a large share of the 24 points, so the
        # bound (union plus the next counts) exceeds 24 and cuts nothing;
        # the greedy incumbent already covers every point
        res = most_points(generate(24, 1.6, 1).points, 3, prune=True)
        assert res.covered.count == 24
        assert res.stats.combos_evaluated == 0
        # here the greedy incumbent covers 9 of 10 and the search reaches 10 at
        # its 92nd combo; going on to the end of the search scores 154
        pts = generate(10, 0.9 * math.sqrt(10), 19).points
        res = most_points(pts, 2, prune=True)
        assert res.covered.count == 10
        assert res.stats.combos_evaluated == 92
        assert res.covered == most_points(pts, 2).covered
        # at k=3 the stop comes from the last level and leaves two levels of
        # the search: the greedy incumbent covers 11 of 12, the 781st combo
        # all 12, and a search that cannot stop (full above the point count)
        # scores 2,420
        pts = generate(12, 0.9 * math.sqrt(12), 1).points
        res = most_points(pts, 3, prune=True)
        assert res.covered.count == 12
        assert res.stats.combos_evaluated == 781
        points = point_arrays(pts)
        indptr, cols = coverage_rows(*candidate_centers(points), points)
        rows = distinct_rows(indptr, cols, np.arange(len(indptr) - 1), 12)
        words, _, counts = packed_coverage(indptr, cols, rows, points)
        greedy = exact._greedy(indptr, cols, rows, 12, 3)
        assert greedy[0] == 11
        assert exact._pruned_search(words, counts, 3, 13, greedy)[2] == 2420

    def test_pruned_search_leaves_no_reference_cycle(self):
        # a cycle through the search (a closure that calls itself) keeps the
        # coverage words alive until the cyclic collector runs, and the
        # packing of the next call slows down meanwhile
        pts = generate(200, 14.0, 101).points
        calls = {
            "most_points k=2": lambda: most_points(pts, 2, prune=True),
            "most_points k=3": lambda: most_points(pts, 3, prune=True),
            "solve m=3": lambda: solve(pts, 3, prune=True),
        }
        for call in calls.values():
            call()
        gc.collect()
        gc.disable()
        try:
            for name, call in calls.items():
                call()
                assert gc.collect() == 0, name
        finally:
            gc.enable()

    def test_stats_invariant(self):
        rng = Xoshiro256StarStar(20)
        for _ in range(10):
            pts = uniform_points(rng.next_u64(), rng.randint(2, 15), 0.0, 4.0)
            for k in (1, 2, 3):
                for prune in (False, True):
                    res = most_points(pts, k, dedup=True, prune=prune)
                    m = res.stats.candidates_after_dedup
                    assert res.stats.combos_evaluated <= math.comb(m, k) + m

    def test_padding_when_candidates_short(self):
        res = most_points(make_points([(0, 0)]), 3)
        assert len(res.disks) == 3
        assert res.covered.count == 1
        assert all(d == res.disks[0] for d in res.disks)

    def test_result_disks_reproduce_coverage(self):
        pts = uniform_points(22, 20, 0.0, 5.0)
        res = most_points(pts, 2)
        union = 0
        for d in res.disks:
            union |= coverage(d, pts).bits
        assert union == res.covered.bits

    def test_greedy_eventually_close(self):
        # greedy covers at least (1 - 1/e) of the exact optimum
        rng = Xoshiro256StarStar(24)
        for _ in range(10):
            n = rng.randint(2, 18)
            pts = uniform_points(rng.next_u64(), n, 0.0, 5.0)
            m = rng.randint(1, 3)
            opt = most_points(pts, m, prune=True).covered.count
            grd = greedy_solve(pts, m).covered.count
            assert grd >= (1 - 1 / math.e) * opt - 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            most_points([], 1)
        with pytest.raises(ValueError):
            most_points(make_points([(0, 0)]), 0)

    def test_empty_record_is_refused(self):
        # a record bypasses point_arrays' check; the neighborhood of a disk
        # with no point within 3 is an empty one
        empty = neighbor_points(point_arrays(make_points([(3.5, 0)])), [UnitDisk(0, 0)])
        for pts in ([], empty):
            with pytest.raises(ValueError, match="^most_points requires a non-empty point list$"):
                most_points(pts, 1)


class TestCountFloor:
    """Without prune only the rows counting at least the floor inc - (k - 1)
    * C, inc the greedy's count and C the largest, are packed and
    enumerated; the stats still count every row."""

    def test_a_row_at_the_floor_can_be_in_the_first_maximum(self):
        # rows in center order {1, 2}, {3, 4, 5} and {3, 4, 6}: the greedy
        # pair covers 5 and the largest count is 3, so the floor is 2, the
        # count of row 0.  The first best pair is rows 0 and 1, covering 5;
        # a floor that dropped row 0 would leave only rows 1 and 2, covering 4
        bits = [0b110, 0b111000, 0b1011000]
        indptr, cols, rows = csr_of(bits)
        assert exact._greedy(indptr, cols, rows, 7, 2)[0] == 5
        assert exact._count_floor(5, 3, 2) == 2
        kept = exact._reaching_rows(indptr, cols, rows, 7, 2)
        assert kept.tolist() == [0, 1, 2]
        words = packed_rows([bits[i] for i in kept.tolist()], 1)
        counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        assert exact._enumerate_all(words, counts, 2) == (5, (0, 1))

    def test_baseline_packs_only_the_rows_that_reach_the_greedy(self):
        # the bench baseline column: 2,890 rows without dedup, of which the
        # floor leaves 98 to pack; the stats are those of all 2,890
        seen = {}
        pack = exact.packed_coverage

        def record_packed(indptr, cols, rows, points):
            seen["rows"] = rows
            return pack(indptr, cols, rows, points)

        with patch.object(exact, "packed_coverage", record_packed):
            res = most_points(generate(300, 20.0, 5).points, 2, dedup=False)
        assert len(seen["rows"]) < 200
        assert res.stats.candidates_generated == res.stats.candidates_after_dedup == 2890
        assert res.stats.combos_evaluated == 4_174_605 == math.comb(2890, 2)
        assert res.covered.count == 17


def record_joins(monkeypatch):
    """The number of candidates of each coverage join ``most_points`` makes."""
    joins = []
    join = exact.coverage_rows

    def counted(cx, cy, anchor, points):
        joins.append(len(cx))
        return join(cx, cy, anchor, points)

    monkeypatch.setattr(exact, "coverage_rows", counted)
    return joins


def searched_centers(pts, k, dedup=True):
    """The candidates pruned ``most_points`` joins, ascending, those whose
    rows it packs and searches, and its result."""
    seen = {}
    pruned, pack = exact._pruned_rows, exact.packed_coverage

    def record_joined(*args):
        seen["joined"] = pruned(*args)
        return seen["joined"]

    def record_searched(indptr, cols, rows, points):
        seen["rows"] = rows
        return pack(indptr, cols, rows, points)

    with patch.object(exact, "_pruned_rows", record_joined):
        with patch.object(exact, "packed_coverage", record_searched):
            res = most_points(pts, k, dedup=dedup, prune=True)
    built = seen["joined"][0]
    return sorted(built.tolist()), built[seen["rows"]].tolist(), res


def joined_rows(pts, joined, dedup=True):
    """The ``joined`` candidates ascending, with dedup only the least of each
    coverage set, and their coverage as Python-int bitsets, from ``coverage``
    disk by disk."""
    disks = candidates(pts)
    rows, bits = [], []
    for c in sorted(joined):
        b = coverage(disks[c], pts).bits
        if not (dedup and b in bits):
            rows.append(c)
            bits.append(b)
    return rows, bits


def floored_centers(pts, joined, k):
    """The least joined candidate of each coverage set that the count floor
    keeps, ascending: those counting more than inc - (k - 1) * C, inc the
    count of ``reference_greedy`` over them and C their largest count, and
    the greedy's own; all of them if there are at most k."""
    rows, bits = joined_rows(pts, joined)
    if len(rows) <= k:
        return rows
    inc, taken = reference_greedy(bits, k)
    floor = inc - (k - 1) * max(b.bit_count() for b in bits)
    return [c for i, (c, b) in enumerate(zip(rows, bits)) if b.bit_count() > floor or i in taken]


def reference_pruned(pts, joined, k, dedup):
    """Pruned ``most_points`` as a search over every joined row (with dedup,
    the least of each coverage set): (disks as (cx, cy), covered bits,
    combos).  At most k rows are all taken, padded by the first of largest
    count; more go through ``reference_enumerate`` from the greedy."""
    rows, bits = joined_rows(pts, joined, dedup)
    counts = [b.bit_count() for b in bits]
    if len(rows) <= k:
        combo, combos = range(len(rows)), 1
        pad = [counts.index(max(counts))] * (k - len(rows))
    else:
        _, combo, combos = reference_enumerate(bits, counts, k, True, len(pts))
        pad = []
    disks = candidates(pts)
    chosen = sorted((disks[rows[i]] for i in combo), key=lambda d: (d.cx, d.cy))
    chosen += [disks[rows[i]] for i in pad]
    union = 0
    for i in combo:
        union |= bits[i]
    return [(d.cx, d.cy) for d in chosen], union, combos


def union_of(disks, pts):
    union = 0
    for d in disks:
        union |= coverage(d, pts).bits
    return union


class TestPrunedBuild:
    """Under prune only the candidates whose near-list bound can beat the
    greedy incumbent get coverage rows; the value is the unpruned one."""

    @given(point_sets(min_size=1, max_size=12), st.sampled_from([1, 3, 64]))
    def test_value_matches_the_unpruned_dedup_optimum(self, pts, block_rows):
        for k in (1, 2, 3):
            want = most_points(pts, k)
            with patch.object(exact, "BLOCK_ROWS", block_rows):
                got = most_points(pts, k, prune=True)
            assert got.covered.count == want.covered.count, k
            assert union_of(got.disks, pts) == got.covered.bits
            assert got.stats.candidates_generated == want.stats.candidates_generated
            assert got.stats.candidates_after_dedup <= want.stats.candidates_after_dedup

    @given(point_sets(min_size=1, max_size=12), st.sampled_from([1, 3, 64]), st.booleans())
    def test_matches_a_search_over_every_joined_row(self, pts, block_rows, dedup):
        # the count floor leaves the search only the rows that can beat the
        # greedy; searching every joined row must give the same disks,
        # covered set and combos
        for k in (1, 2, 3):
            with patch.object(exact, "BLOCK_ROWS", block_rows):
                joined, _, got = searched_centers(pts, k, dedup)
            result = ([(d.cx, d.cy) for d in got.disks], got.covered.bits, got.stats.combos_evaluated)
            assert result == reference_pruned(pts, joined, k, dedup), k

    def test_a_join_that_raises_the_largest_count_needs_another(self, monkeypatch):
        # 62 candidates, by near-list bound: 1 of 6, 17 of 5, 15 of 4, 23 of
        # 3 and 6 of 2.  The first block is the 18 of bound >= 5 (ties join
        # the 16th), whose largest count is 3, and two of them cover 6; so
        # the 15 of bound > 6 - 3 join next.  One of those covers 4, so the
        # 23 of bound > 6 - 4 join as well, and the 6 of bound 2 never do.
        # The 30 distinct sets joined have a greedy pair covering 7 and a
        # largest count of 4, so the search keeps only the one set above
        # 7 - 4, which the greedy takes too, and the greedy's other set.
        joins = record_joins(monkeypatch)
        monkeypatch.setattr(exact, "BLOCK_ROWS", 16)
        pts = generate(16, 6.0, 50).points
        joined, searched, got = searched_centers(pts, 2)
        assert joins == [18, 15, 23]
        rows, bits = joined_rows(pts, joined)
        assert len(rows) == 30 and max(b.bit_count() for b in bits) == 4
        assert reference_greedy(bits, 2)[0] == 7
        assert searched == floored_centers(pts, joined, 2)
        want = most_points(pts, 2)
        assert got.covered == want.covered and got.covered.count == 7
        assert (got.stats.candidates_generated, got.stats.candidates_after_dedup) == (62, 2)
        assert want.stats.candidates_after_dedup == 34

    def test_dedup_across_joins_keeps_the_least_center(self, monkeypatch):
        # two joins of 29 and 12 candidates, each ascending: the chosen set
        # of count 4 is met at candidates 23, 27 and 44 in the second join
        # and at 36 in the first, so dedup must keep 23, its least center
        joins = record_joins(monkeypatch)
        monkeypatch.setattr(exact, "BLOCK_ROWS", 16)
        pts = generate(16, 6.0, 12).points
        joined, searched, got = searched_centers(pts, 2)
        assert joins == [29, 12]
        disks = candidates(pts)
        same = [c for c in joined if coverage(disks[c], pts) == coverage(disks[23], pts)]
        assert same == [23, 27, 36, 44] and same[0] in searched
        assert disks[23] in got.disks
        assert searched == floored_centers(pts, joined, 2)

    @given(point_sets(min_size=1, max_size=12), st.sampled_from([1, 3]))
    def test_searched_rows_are_the_least_centers_in_center_order(self, pts, block_rows):
        for k in (1, 2, 3):
            with patch.object(exact, "BLOCK_ROWS", block_rows):
                joined, searched, _ = searched_centers(pts, k)
            assert searched == floored_centers(pts, joined, k), k

    def test_rows_that_gain_nothing_are_the_first_new_sets(self):
        # one disk covers all four points, so the greedy gains once; the
        # incumbent's three other rows must be the first distinct sets not
        # taken, in center order, although repeats of a set come first
        pts = make_points([(0, 0), (0.5, 0), (1, 0), (1.5, 0)])
        joined, _, got = searched_centers(pts, 4)
        result = ([(d.cx, d.cy) for d in got.disks], got.covered.bits, got.stats.combos_evaluated)
        assert result == reference_pruned(pts, joined, 4, True)
        assert len(set(result[0])) == 4

    def test_padding_when_k_reaches_the_built_rows(self, monkeypatch):
        # two stacks of 4 coincident points and a lone point: the first
        # block is both stacks (bound 4, tied), which cover 8, and the lone
        # point (bound 1) cannot beat 8 - 4, so k = 2 uses every built row
        monkeypatch.setattr(exact, "BLOCK_ROWS", 1)
        pts = make_points([(0, 0)] * 4 + [(10, 0)] * 4 + [(20, 0)])
        got = most_points(pts, 2, prune=True)
        assert (got.stats.candidates_generated, got.stats.candidates_after_dedup) == (3, 2)
        assert got.stats.combos_evaluated == 1
        assert got.disks == [UnitDisk(0.0, 0.0), UnitDisk(10.0, 0.0)]
        assert got.covered.count == most_points(pts, 2).covered.count == 8

    def test_builds_under_a_third_of_the_rows_on_sparse_input(self):
        pts = generate(5000, 100.0, 101).points
        got = most_points(pts, 2, prune=True)
        # the unpruned rows do not depend on k
        full = most_points(pts, 1)
        assert got.stats.candidates_generated == full.stats.candidates_generated == 36130
        assert 3 * got.stats.candidates_after_dedup < full.stats.candidates_after_dedup
        # of the 4,646 distinct sets joined, the count floor leaves 3
        assert got.stats.candidates_after_dedup == 3
        assert got.covered.count == 19
        assert union_of(got.disks, pts) == got.covered.bits

    @given(point_sets(min_size=1))
    def test_count_is_at_most_the_anchors_near_list(self, pts):
        points = point_arrays(pts)
        cx, cy, anchor = candidate_centers(points)
        indptr, cols = coverage_rows(cx, cy, anchor, points)
        _, _, counts = packed_coverage(indptr, cols, np.arange(len(cx)), points)
        assert (counts <= np.diff(points.near_ptr)[anchor]).all()

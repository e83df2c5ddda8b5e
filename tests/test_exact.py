import itertools
import math
from contextlib import suppress

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
    solve,
)
from diskcover.geometry import (
    candidate_centers,
    center_coverage_bits,
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


def reference_greedy_seed(bits, counts, order, k):
    """Greedy-by-marginal-gain k-subset on Python-int bitsets, one row at a time.

    Each step takes the smallest index of largest gain, scanning ``order``
    (count descending) until a count falls below the best gain so far.
    """
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

    Returns (count, chosen index tuple, combos evaluated), the contract of
    ``exact._enumerate_exact``: lexicographic order and first maximum wins
    without pruning; with it, branch-and-bound over count-descending rows
    from the greedy incumbent, stopping once every point is covered.
    """
    m = len(bits)
    order = list(range(m))
    if prune:
        order.sort(key=lambda i: -counts[i])
        best_count, best_combo = reference_greedy_seed(bits, counts, order, k)
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
KERNEL_ROWS = {1: 300, 2: 80, 3: 28, 4: 16}


def kernel_cases(pts, dedup):
    """(words, Python-int bitsets) of evenly spaced candidate rows, per k.

    The bitsets come from ``coverage``, one disk at a time, so the packer is
    checked too; the kernel only sees rows, so a subset of them is as good
    an input as all of them.
    """
    points = point_arrays(pts)
    cx, cy, anchor = candidate_centers(points)
    rows, words, gids, _ = center_coverage_bits(cx, cy, anchor, points, distinct=dedup)
    bits = [coverage(UnitDisk(cx[r], cy[r]), pts).bits for r in rows.tolist()]
    assert [unpack_coverage(w, gids).bits for w in words] == bits
    for k in (1, 2, 3, 4):
        keep = np.unique(np.linspace(0, len(rows) - 1, min(len(rows), KERNEL_ROWS[k])).astype(int))
        if k < len(keep):
            yield k, words[keep], [bits[i] for i in keep.tolist()]


def assert_kernel_matches_reference(pts, dedup):
    for k, words, bits in kernel_cases(pts, dedup):
        counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        for prune in (False, True):
            got = exact._enumerate_exact(words, counts, k, prune, len(pts))
            want = reference_enumerate(bits, [b.bit_count() for b in bits], k, prune, len(pts))
            assert got == want, (k, prune)


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
        # 1-3 rows in the greedy seed, the bounds and the last level, and
        # 1-3 outer rows (or 1-3 columns of one row) in the pair kernel
        for pts in (
            generate(10, 0.9 * math.sqrt(10), 19).points,
            word_boundary_points(65, 7, duplicates=True),
            make_points([(x, y) for x in range(4) for y in range(3)] * 2),
        ):
            width = -(-len({p.idx for p in pts}) // 64)
            for cols in (1, 24):
                monkeypatch.setattr(exact, "BLOCK_WORDS", rows_per_block * cols * width)
                assert_kernel_matches_reference(pts, dedup=True)


class TestMostPoints:
    @given(point_sets(min_size=1, max_size=12), st.sampled_from([1, 2]), st.booleans())
    def test_matches_reference_pair_loop(self, pts, k, dedup):
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
        # the greedy seed already covers every point
        res = most_points(generate(24, 1.6, 1).points, 3, prune=True)
        assert res.covered.count == 24
        assert res.stats.combos_evaluated == 0
        # here the greedy seed covers 9 of 10 and the search reaches 10 at
        # its 92nd combo; going on to the end of the search scores 154
        pts = generate(10, 0.9 * math.sqrt(10), 19).points
        res = most_points(pts, 2, prune=True)
        assert res.covered.count == 10
        assert res.stats.combos_evaluated == 92
        assert res.covered == most_points(pts, 2).covered
        # at k=3 the stop comes from the last level and leaves two levels of
        # the search: the greedy seed covers 11 of 12, the 781st combo all
        # 12, and a search that cannot stop (full above the point count)
        # scores 2,420
        pts = generate(12, 0.9 * math.sqrt(12), 1).points
        res = most_points(pts, 3, prune=True)
        assert res.covered.count == 12
        assert res.stats.combos_evaluated == 781
        points = point_arrays(pts)
        _, words, _, counts = center_coverage_bits(
            *candidate_centers(points), points, distinct=True
        )
        assert exact._enumerate_exact(words, counts, 3, True, 13)[2] == 2420

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


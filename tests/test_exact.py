import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskcover import (
    best_disk_sweep,
    candidate_disks,
    coverage,
    generate,
    greedy_solve,
    most_points,
)
from diskcover.rng import Xoshiro256StarStar

from conftest import make_points, point_sets, uniform_points


def brute_force_best_k(pts, k):
    """Oracle: score every k-combination of candidate disks, no shortcuts.

    More disks than candidates means all candidates can be used at once.
    """
    bitsets = [coverage(d, pts).bits for d in candidate_disks(pts)]
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
    cands = candidate_disks(pts)
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
        bitsets = [coverage(d, pts).bits for d in candidate_disks(pts)]
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
            assert c == best_disk_sweep(pts).rho_witness

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


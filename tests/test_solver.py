import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from diskcover import (
    coverage,
    generate,
    greedy_solve,
    most_points,
    neighbor_points,
    solve,
    union_cover,
)
from diskcover.geometry import candidate_centers, covered_mask, point_arrays
from diskcover.single_disk import anchor_table, best_placement
from diskcover.solver import NEIGHBOR_RADIUS, NEIGHBOR_EPS
from diskcover.rng import Xoshiro256StarStar
from diskcover import CoverageSet, Point, UnitDisk

from conftest import candidates, make_points, point_sets, uniform_points


def middle_split_instance():
    """Three collinear groups where plain greedy is provably suboptimal.

    A 10-point middle group (3 + 4 + 3 sub-clumps) is the unique best single
    disk, but the optimum pairs the outer 6-point groups with the middle's
    flanks: two 9-point disks covering 18, versus greedy's 10 + 6 = 16.
    """
    coords = []
    def clump(x, k):
        for i in range(k):
            coords.append((x + 0.001 * i, 0.0))
    clump(0.0, 6)     # left group
    clump(1.3, 3)     # middle flank, pairs with left
    clump(2.15, 4)    # middle core, unreachable from either pairing
    clump(3.0, 3)     # middle flank, pairs with right
    clump(4.3, 6)     # right group
    return make_points(coords)


def neighbors_by_double_loop(pts, disks):
    """The points within NEIGHBOR_RADIUS of some disk, by the point-by-disk
    double loop with the same radius and slack."""
    limit = NEIGHBOR_RADIUS * NEIGHBOR_RADIUS + NEIGHBOR_EPS
    out = []
    for p in pts:
        for d in disks:
            dx = p.x - d.cx
            dy = p.y - d.cy
            if dx * dx + dy * dy <= limit:
                out.append(p)
                break
    return out


class TestNeighborPoints:
    def test_radius_three_cutoff(self):
        pts = make_points([(0, 0), (2.5, 0), (3.5, 0)])
        nbr = neighbor_points(point_arrays(pts), [UnitDisk(0, 0)])
        assert nbr.ids.tolist() == [0, 1]

    def test_empty_points(self):
        # an instance always has a point (its table needs one); here no
        # point lies within the radius, so the neighborhood is empty
        pts = make_points([(3.5, 0), (0, -4)])
        assert len(neighbor_points(point_arrays(pts), [UnitDisk(0, 0)])) == 0

    def test_requires_disks(self):
        pts = make_points([(0, 0)])
        with pytest.raises(ValueError):
            neighbor_points(point_arrays(pts), [])

    def test_matches_naive_distance_loop(self):
        # oracle: per-point distance check with the same radius and slack
        pts = uniform_points(5, 300, 0.0, 50.0)
        g1 = solve(pts, 1).disks[0]
        nbr = neighbor_points(point_arrays(pts), [g1])
        expected = [
            p.idx
            for p in pts
            if (p.x - g1.cx) ** 2 + (p.y - g1.cy) ** 2 <= NEIGHBOR_RADIUS**2 + NEIGHBOR_EPS
        ]
        assert nbr.ids.tolist() == expected

    def test_matches_double_loop_reference(self):
        # oracle: the point-by-disk double loop, on random instances with
        # points placed exactly at distance 3 (and just past it) from a center
        rng = Xoshiro256StarStar(31)
        for _ in range(40):
            disks = [UnitDisk(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(rng.randint(1, 3))]
            coords = [(rng.uniform(-3, 23), rng.uniform(-3, 23)) for _ in range(rng.randint(0, 120))]
            for d in disks:
                coords += [(d.cx + 3.0, d.cy), (d.cx, d.cy - 3.0), (d.cx + 1.8, d.cy + 2.4)]
                coords += [(d.cx - 3.0 - 1e-6, d.cy)]
            pts = [Point(x, y, 2 * i + 1) for i, (x, y) in enumerate(coords)]
            nbr = neighbor_points(point_arrays(pts), disks)
            assert nbr.ids.tolist() == [p.idx for p in neighbors_by_double_loop(pts, disks)]

    def test_union_over_multiple_disks(self):
        pts = make_points([(0, 0), (6, 0), (12, 0)])
        nbr = neighbor_points(point_arrays(pts), [UnitDisk(0, 0), UnitDisk(12, 0)])
        assert nbr.ids.tolist() == [0, 2]

    @given(point_sets(min_size=1), st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    def test_record_is_the_record_of_the_selected_points(self, pts, picks):
        # the instance's near lists, restricted and renumbered, are the near
        # lists a fresh record of the selected points builds
        disks = [UnitDisk(pts[i % len(pts)].x, pts[i % len(pts)].y) for i in picks]
        nbr = neighbor_points(point_arrays(pts), disks)
        want = point_arrays(neighbors_by_double_loop(pts, disks))
        for name in ("x", "y", "ids", "near_ptr", "near_row", "near"):
            got, expected = getattr(nbr, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name


class TestTableCover:
    @given(
        point_sets(min_size=1),
        st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=3),
    )
    def test_mask_matches_coverage(self, pts, offsets):
        # candidate disks put points exactly on their boundary; the others
        # are placed anywhere near the (translated) points.  The mask is
        # over the record's rows; its ids map it to point ids
        disks = candidates(pts)[::7] + [
            UnitDisk(pts[0].x + x, pts[0].y + y) for x, y in offsets
        ]
        table = anchor_table(point_arrays(pts))

        def cover(ds):
            return CoverageSet.from_ids(table.points.ids[covered_mask(table.points, ds)])

        for d in disks:
            assert cover([d]) == coverage(d, pts)
        assert cover(disks) == union_cover([coverage(d, pts) for d in disks])


class TestSolve:
    def test_two_far_clusters_greedy_wins(self):
        pts = make_points([(0, 0), (0.1, 0), (10, 0), (10.1, 0)])
        sol = solve(pts, 2)
        assert sol.covered.count == 4
        assert sol.traces[0].chose_greedy is True

    def test_m1_identical_to_sweep(self):
        pts = uniform_points(77, 40, 0.0, 8.0)
        sol = solve(pts, 1)
        table = anchor_table(point_arrays(pts))
        count, disk = best_placement(table, np.zeros(len(pts), dtype=bool))
        assert sol.disks == [disk]
        assert sol.covered.bits == coverage(disk, pts).bits
        assert sol.rho == count
        assert sol.traces == [] and sol.total_combos == 0

    def test_matches_exact_baseline(self):
        pts = uniform_points(13, 18, 0.0, 5.0)
        sol = solve(pts, 2)
        assert sol.covered.count == most_points(pts, 2).covered.count

    def test_greedy_suboptimal_instance_recovered(self):
        pts = middle_split_instance()
        exact = most_points(pts, 2)
        grd = greedy_solve(pts, 2)
        sol = solve(pts, 2)
        assert grd.covered.count == 16
        assert exact.covered.count == 18
        assert sol.covered.count == 18
        tr = sol.traces[0]
        assert tr.chose_greedy is False
        assert tr.greedy_gain == 16 and tr.exact_value == 18

    def test_optimality_random(self):
        rng = Xoshiro256StarStar(31)
        for _ in range(30):
            n = rng.randint(2, 25)
            m = rng.randint(1, 3)
            side = rng.uniform(1.0, 3.0 * math.sqrt(n))
            pts = uniform_points(rng.next_u64(), n, 0.0, side)
            sol = solve(pts, m, prune=True)
            opt = most_points(pts, m, dedup=True, prune=True)
            assert sol.covered.count == opt.covered.count, (n, m)

    def test_branch_dichotomy_m2(self):
        # either greedy already attains the optimum or the neighborhood
        # re-solve does; the chosen max is always optimal
        rng = Xoshiro256StarStar(32)
        for _ in range(20):
            n = rng.randint(2, 20)
            pts = uniform_points(rng.next_u64(), n, 0.0, rng.uniform(1.0, 10.0))
            sol = solve(pts, 2)
            opt = most_points(pts, 2).covered.count
            tr = sol.traces[0]
            assert max(tr.greedy_gain, tr.exact_value) == opt
            if tr.greedy_gain < opt:
                assert tr.exact_value == opt

    def test_neighborhood_packing_bound(self):
        rng = Xoshiro256StarStar(33)
        for _ in range(15):
            n = rng.randint(2, 30)
            m = rng.randint(2, 3)
            pts = uniform_points(rng.next_u64(), n, 0.0, rng.uniform(2.0, 12.0))
            sol = solve(pts, m, prune=True)
            for tr in sol.traces:
                assert tr.neighborhood_size <= 21 * sol.rho * (tr.i - 1)

    def test_values_monotone_over_iterations(self):
        pts = uniform_points(35, 40, 0.0, 9.0)
        sol = solve(pts, 4, prune=True)
        values = [sol.rho] + [max(t.greedy_gain, t.exact_value) for t in sol.traces]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == sol.covered.count
        # adding the greedy disk never loses points
        for prev, tr in zip(values, sol.traces):
            assert tr.greedy_gain >= prev

    def test_covered_recomputes_from_disks(self):
        rng = Xoshiro256StarStar(36)
        for _ in range(10):
            pts = uniform_points(rng.next_u64(), rng.randint(2, 30), 0.0, 7.0)
            m = rng.randint(1, 3)
            sol = solve(pts, m, prune=True)
            assert len(sol.disks) == m
            recomputed = union_cover([coverage(d, pts) for d in sol.disks])
            assert recomputed.bits == sol.covered.bits

    def test_combo_dominance_vs_baseline(self):
        rng = Xoshiro256StarStar(37)
        for _ in range(10):
            n = rng.randint(4, 40)
            pts = uniform_points(rng.next_u64(), n, 0.0, rng.uniform(3.0, 15.0))
            sol = solve(pts, 2)
            base = most_points(pts, 2, dedup=False, prune=False)
            if sol.rho < n:
                assert sol.total_combos <= base.stats.combos_evaluated

    def test_m_exceeding_points_saturates(self):
        pts = make_points([(0, 0), (4, 4)])
        sol = solve(pts, 4)
        assert len(sol.disks) == 4
        assert sol.covered.count == 2

    def test_prune_flag_does_not_change_value(self):
        rng = Xoshiro256StarStar(38)
        for _ in range(10):
            pts = uniform_points(rng.next_u64(), rng.randint(2, 16), 0.0, 4.0)
            m = rng.randint(1, 3)
            assert (
                solve(pts, m, prune=True).covered.count
                == solve(pts, m, prune=False).covered.count
            )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1 step b: the sweep keeps pairs within 2 + PAIR_EPS, "
        "while EPS_COVER lets a candidate cover points about 2 + 1e-9 apart",
    )
    def test_points_just_over_two_apart_match_the_enumeration(self):
        # ids 1 and 2 are 2 + 1.2e-12 apart: the disk at (0, 0) covers all
        # three under EPS_COVER, and the sweep, which drops that pair, finds 2
        pts = [Point(0.0, 0.0, 0), Point(1.0000000000012, 0.0, 1), Point(-1.0, 0.0, 2)]
        assert solve(pts, 1).covered.count == most_points(pts, 1, prune=True).covered.count

    @staticmethod
    def shifted(pts, offset):
        return [Point(p.x + offset, p.y + offset, p.idx) for p in pts]

    def test_translation_up_to_1e6_keeps_the_covered_count(self):
        # EPS_COVER is an absolute slack, so it holds only while the
        # coordinates are small enough; at 1e5 and 1e6 all 30 agree
        for seed in range(30):
            pts = generate(40, 6.0, seed).points
            want = solve(pts, 2, prune=True).covered.count
            for offset in (1e5, 1e6):
                shifted = self.shifted(pts, offset)
                got = solve(shifted, 2, prune=True).covered.count
                assert got == want == most_points(shifted, 2, prune=True).covered.count

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1 defect A: at 1e7 a through-pair center computed in "
        "absolute coordinates can miss its own points under the absolute EPS_COVER",
    )
    def test_translation_by_1e7_keeps_the_covered_count(self):
        # 17 of seeds 0-29 disagree with most_points at this offset, and 18
        # with the unshifted count; seed 0 covers 16 against 17
        pts = generate(40, 6.0, 0).points
        want = solve(pts, 2, prune=True).covered.count
        assert solve(self.shifted(pts, 1e7), 2, prune=True).covered.count == want

    def test_errors(self):
        with pytest.raises(ValueError):
            solve([], 1)
        with pytest.raises(ValueError):
            solve(make_points([(0, 0)]), 0)


class TestGreedySolve:
    def test_never_beats_exact_but_close(self):
        rng = Xoshiro256StarStar(39)
        for _ in range(10):
            n = rng.randint(2, 20)
            m = rng.randint(1, 3)
            pts = uniform_points(rng.next_u64(), n, 0.0, rng.uniform(1.0, 8.0))
            grd = greedy_solve(pts, m).covered.count
            opt = solve(pts, m, prune=True).covered.count
            assert grd <= opt
            assert grd >= (1 - 1 / math.e) * opt - 1e-9

    def test_second_disk_is_best_on_uncovered_points(self):
        # oracle: candidate re-enumeration on the points the first disk misses
        for pts in (
            uniform_points(9, 20, 0.0, 8.0),
            make_points([(0, 0), (0.1, 0), (10, 0)]),
            # the uncovered point is not a prefix of the input: ids must
            # stay in the original space, not the filtered list's
            make_points([(5, 5), (5.2, 5), (0, 0)]),
        ):
            first = solve(pts, 1)
            remaining = [p for p in pts if p.idx not in first.covered]
            expected = max(
                coverage(d, remaining).count for d in candidates(remaining)
            )
            sol = greedy_solve(pts, 2)
            assert sol.disks[0] == first.disks[0]
            assert coverage(sol.disks[1], remaining).count == expected
            assert sol.covered.bits == first.covered.bits | coverage(sol.disks[1], pts).bits
            assert sol.covered.count == first.rho + expected

    def test_disk_count(self):
        # once every point is covered, each further disk sits on the first
        # input point and leaves coverage unchanged
        for coords in ([(0, 0)], [(3, 4), (3.1, 4)]):
            pts = make_points(coords)
            sol = greedy_solve(pts, 3)
            assert len(sol.disks) == 3
            assert sol.covered.count == len(pts)
            assert sol.disks[1:] == [UnitDisk(*coords[0])] * 2

    def test_errors(self):
        with pytest.raises(ValueError):
            greedy_solve([], 1)
        with pytest.raises(ValueError):
            greedy_solve(make_points([(0, 0)]), 0)


class TestRepeatedIds:
    """Point ids must be distinct and non-negative wherever coverage is counted."""

    @pytest.mark.parametrize(
        "pts, message",
        [
            # two points share id 0: counted by table position they would
            # make 2, counted by id 1
            (
                [Point(0.0, 0.0, 0), Point(0.1, 0.0, 0), Point(5.0, 5.0, 1)],
                "^point ids must be distinct; id 0 repeats$",
            ),
            # a negative id would count 1 where the disk covers 2, or wrap
            # an index
            (
                [Point(0.0, 0.0, -1), Point(0.5, 0.0, 0), Point(5.0, 5.0, 1)],
                "^point ids must be non-negative; id -1 is negative$",
            ),
        ],
        ids=["repeated", "negative"],
    )
    @pytest.mark.parametrize(
        "call",
        [solve, greedy_solve, most_points, lambda pts, _: candidate_centers(point_arrays(pts))],
        ids=["solve", "greedy_solve", "most_points", "candidate_centers"],
    )
    def test_repeated_id_is_rejected(self, call, pts, message):
        with pytest.raises(ValueError, match=message):
            call(pts, 2)


class TestOneRecordPerCall:
    """Each call reads its point list into one record with one KD-tree: the
    sweep, the candidates and the coverage join share its pairs."""

    @pytest.fixture
    def trees(self, monkeypatch):
        built = []
        real = cKDTree

        def counting(*args, **kwargs):
            built.append(len(args[0]))
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("diskcover") and getattr(module, "cKDTree", None) is real:
                monkeypatch.setattr(module, "cKDTree", counting)
        return built

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_most_points_builds_one_tree(self, trees, k):
        pts = uniform_points(4, 120, 0.0, 10.0)
        most_points(pts, k, prune=True)
        assert trees == [120]

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_solve_builds_one_tree(self, trees, m, prune):
        # each neighborhood re-solve reads a restriction of the instance's record
        sol = solve(uniform_points(4, 120, 0.0, 20.0), m, prune=prune)
        assert trees == [120]
        assert len(sol.traces) == m - 1

    def test_greedy_solve_builds_one_tree(self, trees):
        greedy_solve(uniform_points(4, 120, 0.0, 10.0), 3)
        assert trees == [120]

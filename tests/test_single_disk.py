import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from diskcover import Point, coverage, generate, greedy_solve, solve
from diskcover.geometry import PAIR_EPS, candidate_centers, point_arrays
from diskcover import single_disk
from diskcover.single_disk import anchor_table, best_placement

from conftest import candidates, make_points, point_sets, uniform_points


def _better(count, cx, cy, best):
    """The loop's tie-break: more points, then a smaller (cx, cy); the first
    one met stays on exact ties."""
    return best is None or count > best[0] or (count == best[0] and (cx, cy) < best[1:])


def through_pair(p, q):
    """``geometry.pair_centers`` for one pair, in plain floats: the distance
    and the centers left and right of the direction p -> q."""
    dx, dy = q.x - p.x, q.y - p.y
    d2 = dx * dx + dy * dy
    d = math.sqrt(d2)
    if d == 0.0:
        return d, None, None
    mx, my = (p.x + q.x) / 2.0, (p.y + q.y) / 2.0
    h = math.sqrt(max(1.0 - d2 / 4.0, 0.0))
    ux, uy = dx / d, dy / d
    return d, (mx - h * uy, my + h * ux), (mx + h * uy, my - h * ux)


def pseudo_angle(vx, vy):
    """The sweep's key of a direction, in [0, 4]: p = vy / (|vx| + |vy|) on
    the right, 2 - p on the left, 4 + p below the +x axis."""
    p = vy / (abs(vx) + abs(vy))
    return 2.0 - p if vx < 0 else 4.0 + p if p < 0 else p + 0.0


def in_arc(start, end, key):
    """Whether ``key`` is in the closed arc from ``start`` to ``end``, which
    covers angle 0 when ``start > end``."""
    return start <= key <= end if start <= end else key >= start or key <= end


def reference_entries(pts):
    """The per-anchor angular sweep as a plain loop: for each point, in order,
    the best (count, cx, cy) of a disk with that point on its boundary.

    A center on the unit circle around anchor p covers neighbor q iff it lies
    on the closed arc between the two unit disks through p and q, counter-
    clockwise from the one right of p -> q.  Directions are compared by the
    sweep's pseudo-angle, and each arc start is scored by counting, one arc
    at a time, the arcs whose key range holds it: no events are sorted.
    Duplicates of p add to every count, and an anchor with no arcs
    contributes the disk centered on itself.
    """
    coords = [(p.x, p.y) for p in pts]
    groups = cKDTree(coords).query_ball_point(coords, r=2.0 + 1e-9)
    entries = []
    for i, p in enumerate(pts):
        base = 0
        arcs = []
        for j in sorted(groups[i]):
            d, left, right = through_pair(p, pts[j])
            if j == i or d > 2.0 + PAIR_EPS:
                continue
            if d <= PAIR_EPS:
                base += 1
                continue
            start = pseudo_angle(right[0] - p.x, right[1] - p.y)
            end = pseudo_angle(left[0] - p.x, left[1] - p.y)
            arcs.append((start, end, right))
        best = None
        for key, _, center in arcs:
            count = 1 + base + sum(in_arc(start, end, key) for start, end, _ in arcs)
            if _better(count, *center, best):
                best = (count, *center)
        entries.append(best or (1 + base, p.x, p.y))
    return entries


def reference_sweep(pts):
    """The loop sweep's disk: the best entry over all anchors, in order."""
    best = None
    for entry in reference_entries(pts):
        if _better(*entry, best):
            best = entry
    return best


def table_entries(table):
    return [
        exact_bits(*entry)
        for entry in zip(table.count.tolist(), table.cx.tolist(), table.cy.tolist())
    ]


def check_lazy_entries(table, entries):
    """A lazily filled table against the loop's entries: a swept entry is the
    loop's bit for bit, and an unswept count bounds the loop's count."""
    for got, want, swept in zip(table_entries(table), entries, table.swept.tolist()):
        if swept:
            assert got == exact_bits(*want)
        else:
            assert got[0] >= want[0]


def table_of(pts):
    """The anchor table of ``pts``, over its record's rows (ids ascending)."""
    return anchor_table(point_arrays(pts))


def by_id(pts):
    """``pts`` in the order of the record's rows."""
    return sorted(pts, key=lambda p: p.idx)


def sweep_every_anchor(table):
    """Force the full-instance sweep of every anchor into the table."""
    everyone = np.ones(len(table.points.x), dtype=bool)
    single_disk._sweep_anchors(table, np.flatnonzero(everyone), everyone)
    assert table.swept.all()


@contextmanager
def sweep_block(size):
    """Run with ``SWEEP_BLOCK`` set to ``size``, so that small instances are
    swept over many blocks and the bound can stop the sweep early."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(single_disk, "SWEEP_BLOCK", size)
        yield


def exact_bits(count, cx, cy):
    """(count, cx, cy) with the floats as hex, so -0.0 and ulps count."""
    return count, float(cx).hex(), float(cy).hex()


def table_choice(table, covered=None):
    if covered is None:
        covered = np.zeros(len(table.points.x), dtype=bool)
    count, disk = best_placement(table, covered)
    return exact_bits(count, disk.cx, disk.cy)


def mask_of(pts, ids):
    """The covered mask over the record's rows whose point ids are ``ids``."""
    ids = set(ids)
    return np.array([p.idx in ids for p in by_id(pts)], dtype=bool)


def residual(pts, covered):
    return [p for p, c in zip(by_id(pts), covered) if not c]


def lattice(k, copies=1):
    return make_points([(x, y) for x in range(k) for y in range(k) for _ in range(copies)])


# Point lists with signed zeros, pairs exactly 2 apart and coordinates
# 4e-13 apart, whose centers can be equal in value with other bits, or
# about 1e-12 apart.
_signed_coord = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, -2.0]),
    st.floats(-3, 3),
    st.integers(-4, 4).map(lambda k: k * 4e-13),
)
SIGNED_POINT_SETS = st.lists(st.tuples(_signed_coord, _signed_coord), min_size=1, max_size=12).map(
    make_points
)


def assert_disks_are_candidate_centers(pts):
    """Every disk of ``solve(pts, 1)`` and ``greedy_solve(pts, 3)`` is a
    candidate center: an arc start, a through-pair center computed as
    ``candidate_centers`` computes it, or a point.  Compared as floats, so
    that -0.0 matches 0.0, the value the candidates keep."""
    cx, cy, _ = candidate_centers(point_arrays(pts))
    centers = set(zip(cx.tolist(), cy.tolist()))
    for disk in solve(pts, 1).disks + greedy_solve(pts, 3).disks:
        assert (disk.cx, disk.cy) in centers


def brute_force_rho(pts):
    """Independent optimum: best coverage count over the candidate set."""
    return max(coverage(d, pts).count for d in candidates(pts))


class TestSweep:
    """The single-disk optimum, as ``solve(pts, 1)`` returns it."""

    def test_close_pair_beats_singleton(self):
        assert solve(make_points([(0, 0), (0.5, 0), (5, 5)]), 1).rho == 2

    def test_pair_beyond_two_apart(self):
        assert solve(make_points([(0, 0), (2.1, 0)]), 1).rho == 1

    def test_matches_candidate_brute_force(self):
        pts = uniform_points(7, 30, 0.0, 10.0)
        assert solve(pts, 1).rho == brute_force_rho(pts)

    def test_matches_brute_force_denser(self):
        for seed in range(5):
            pts = uniform_points(seed, 35, 0.0, 4.0)
            assert solve(pts, 1).rho == brute_force_rho(pts)

    def test_pair_inside_reach_but_beyond_the_sweep(self):
        # 2 + 1e-7 apart: within REACH, so each point is in the other's near
        # list and bounds its entry, but beyond the sweep's 2 + PAIR_EPS, so
        # no single disk covers both
        pts = make_points([(0.0, 0.0), (2.0 + 1e-7, 0.0)])
        table = table_of(pts)
        assert table.points.near.tolist() == [0, 1, 0, 1]
        assert table.count.tolist() == [2, 2]
        assert best_placement(table, np.zeros(2, dtype=bool))[0] == 1
        assert table.swept.all() and table.count.tolist() == [1, 1]
        assert solve(pts, 1).rho == 1
        assert solve(pts, 2).covered.count == 2

    def test_singleton_fallback_lexicographic(self):
        for coords in ([(4, 4), (0, 0), (9, 1)], [(0, 0)]):
            res = solve(make_points(coords), 1)
            assert res.rho == 1
            assert (res.disks[0].cx, res.disks[0].cy) == (0.0, 0.0)

    def test_duplicate_points(self):
        pts = make_points([(1, 1), (1, 1), (1, 1), (8, 8)])
        assert solve(pts, 1).rho == 3

    def test_coverage_recomputes(self):
        pts = uniform_points(19, 80, 0.0, 9.0)
        res = solve(pts, 1)
        assert coverage(res.disks[0], pts).bits == res.covered.bits

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve([], 1)

    @pytest.mark.parametrize(
        "n, side, seed, copies",
        [
            (n, side, seed, 1)
            for n, side in ((40, 3.0), (120, 6.0), (300, 20.0), (2000, 40.0))
            for seed in (1, 2, 3)
        ]
        + [(k, None, None, copies) for k in (3, 5) for copies in (1, 2, 3)],
    )
    def test_disks_are_candidate_centers(self, n, side, seed, copies):
        # integer lattices add duplicates and pairs at distance exactly 2
        assert_disks_are_candidate_centers(
            generate(n, side, seed).points if side else lattice(n, copies)
        )

    @given(st.one_of(point_sets(min_size=1), SIGNED_POINT_SETS))
    def test_disks_are_candidate_centers_on_point_sets(self, pts):
        assert_disks_are_candidate_centers(pts)


# The wrap rule by name.  An arc that covers angle 0 (start key past its end
# key) adds to its anchor's base depth instead of being split at 0.
# Anchor (0, 0) has three arcs that all cover angle 0 and overlap only
# around it, so its deepest start lies below the +x axis.
DEEPEST_OVERLAP_STRADDLES_X = make_points([(0.0, 0.0), (1.0, 0.3), (1.0, -0.3), (1.5, 0.0)])
# Anchor (0, 0): the arc of (1, 1) starts and the arc of (1, -1) ends at the
# center (1, 0), both exactly on the axis, with key 0.0.
ARC_ENDPOINT_ON_THE_AXIS = make_points([(0, 0), (1, 1), (1, -1)])
# The tie-break on equal centers.  Anchor (0, -0.0) has two arcs that start
# at (1, -0.0) and (1, 0.0), equal values with other bits; the first
# neighbor in near-list order wins.
SIGNED_ZERO_TIE = make_points([(0.0, -0.0), (2.0, -0.0), (2.0, 0.0)])
# Equal start keys across an anchor boundary.  Anchor (0, 0) comes just
# before (10, 0) in the block (its bound, 3, is the last of the largest).
# Its arc of (1.5, 0) covers angle 0 and starts at its largest key, so its
# last event is that start; (10, 0) has one arc, of a neighbor 2 away, that
# starts at the same key bit for bit, so its first event is an equal start.
# The deepest start of (0, 0) is that of the arc of (0, 1), whose center lies
# right of the other's: a run of equal keys that crossed the boundary would
# move the disk of (0, 0) to the shallower start.
RUN_AT_THE_ANCHOR_BOUNDARY = make_points(
    [(1.5, 0.0), (0.0, 1.0), (0.0, 0.0), (10.0, 0.0), (11.5, -math.sqrt(1.75))]
)


class TestAnchorTableMatchesReferenceSweep:
    """The table's choices equal the loop's bit for bit, first disk and greedy
    steps alike (floats compared as hex)."""

    @given(point_sets(min_size=1), st.sampled_from([1, 3, single_disk.SWEEP_BLOCK]))
    @example(DEEPEST_OVERLAP_STRADDLES_X, 1)
    @example(ARC_ENDPOINT_ON_THE_AXIS, 1)
    @example(SIGNED_ZERO_TIE, 1)
    @example(RUN_AT_THE_ANCHOR_BOUNDARY, 1)
    @example(RUN_AT_THE_ANCHOR_BOUNDARY, 3)
    @example(RUN_AT_THE_ANCHOR_BOUNDARY, single_disk.SWEEP_BLOCK)
    def test_first_disk_on_generated_sets(self, pts, block):
        entries = reference_entries(by_id(pts))
        table = table_of(pts)
        with sweep_block(block):
            assert table_choice(table) == exact_bits(*reference_sweep(pts))
        check_lazy_entries(table, entries)
        sweep_every_anchor(table)
        assert table_entries(table) == [exact_bits(*e) for e in entries]

    def test_equal_start_keys_across_an_anchor_boundary(self):
        # the premise of RUN_AT_THE_ANCHOR_BOUNDARY, on the loop's keys
        wrap_from, neighbor, anchor, after, its_neighbor = RUN_AT_THE_ANCHOR_BOUNDARY

        def keys(p, q):
            _, left, right = through_pair(p, q)
            return [pseudo_angle(c[0] - p.x, c[1] - p.y) for c in (right, left)]

        start, end = keys(anchor, wrap_from)
        assert start > end and start > max(keys(anchor, neighbor))
        assert keys(after, its_neighbor) == [start, start]
        table = table_of(RUN_AT_THE_ANCHOR_BOUNDARY)
        assert table.count.tolist() == [3, 3, 3, 2, 2]
        sweep_every_anchor(table)
        assert table_entries(table)[anchor.idx] == exact_bits(
            3, *through_pair(anchor, neighbor)[2]
        )

    def test_every_entry_of_a_multi_block_table(self):
        pts = generate(2000, 40.0, 101).points
        entries = reference_entries(pts)
        table = table_of(pts)
        # the directed neighbor pairs: every near-list entry but the row itself
        assert len(table.points.near) - len(pts) > 4 * single_disk.SWEEP_BLOCK
        assert table_choice(table) == exact_bits(*reference_sweep(pts))
        check_lazy_entries(table, entries)
        sweep_every_anchor(table)
        assert table_entries(table) == [exact_bits(*e) for e in entries]

    @given(point_sets(min_size=1), st.data())
    def test_step_on_any_covered_subset(self, pts, data):
        # any covered set, as a neighborhood re-solve leaves, not only a
        # growing one
        chosen = data.draw(st.sets(st.sampled_from([p.idx for p in pts])))
        covered = mask_of(pts, chosen)
        rest = residual(pts, covered)
        with sweep_block(data.draw(st.sampled_from([1, single_disk.SWEEP_BLOCK]))):
            found = best_placement(table_of(pts), covered)
        if not rest:
            assert found is None
        else:
            count, disk = found
            assert exact_bits(count, disk.cx, disk.cy) == exact_bits(*reference_sweep(rest))

    @pytest.mark.parametrize(
        "seed, n, side",
        [(1, 60, 4.0), (2, 120, 6.0), (3, 200, 12.0), (4, 40, 1.5), (5, 300, 30.0)],
    )
    def test_seeded_instances_and_their_greedy_steps(self, seed, n, side):
        pts = uniform_points(seed, n, 0.0, side)
        table = table_of(pts)
        assert table_choice(table) == exact_bits(*reference_sweep(pts))
        covered = np.zeros(len(pts), dtype=bool)
        for _ in range(3):
            rest = residual(pts, covered)
            if not rest:
                assert best_placement(table, covered) is None
                break
            count, disk = best_placement(table, covered)
            assert exact_bits(count, disk.cx, disk.cy) == exact_bits(*reference_sweep(rest))
            covered = covered | mask_of(pts, coverage(disk, pts).ids())
        # an arbitrary subset: every third point
        covered = mask_of(pts, (p.idx for p in pts[::3]))
        assert table_choice(table, covered) == exact_bits(*reference_sweep(residual(pts, covered)))

    def test_generated_instance_step(self):
        pts = generate(2000, 40.0, 101).points
        table = table_of(pts)
        assert table_choice(table) == exact_bits(*reference_sweep(pts))
        first = best_placement(table, np.zeros(len(pts), dtype=bool))[1]
        covered = mask_of(pts, coverage(first, pts).ids())
        assert table_choice(table, covered) == exact_bits(*reference_sweep(residual(pts, covered)))

    @pytest.mark.parametrize("copies", [1, 2])
    def test_lattice_with_pairs_at_distance_two(self, copies):
        # spacing 1: pairs at distance exactly 2 along rows and columns;
        # copies=2 duplicates every point
        pts = lattice(5, copies)
        table = table_of(pts)
        assert table_choice(table) == exact_bits(*reference_sweep(pts))
        for ids in ([0, 1, 2], range(0, len(pts), 2), range(len(pts) - 1)):
            covered = mask_of(pts, ids)
            assert table_choice(table, covered) == exact_bits(
                *reference_sweep(residual(pts, covered))
            )

    def test_anchor_whose_neighbors_are_all_covered(self):
        # point 0 keeps only itself once 1 and 2 are covered; point 3 is far
        # away and sits lower-left of nothing, so the tie-break picks 0
        pts = make_points([(0.0, 0.0), (1.0, 0.0), (1.5, 0.5), (9.0, 9.0)])
        covered = mask_of(pts, [1, 2])
        choice = table_choice(table_of(pts), covered)
        assert choice == exact_bits(*reference_sweep(residual(pts, covered)))
        assert choice == exact_bits(1, 0.0, 0.0)

    def test_everything_covered(self):
        pts = make_points([(0, 0), (0.5, 0)])
        assert best_placement(table_of(pts), mask_of(pts, [0, 1])) is None


# Translations up to 1e8, added to both coordinates of every point.
_SHIFT = st.sampled_from([0.0, 0.0, -1.0, 1e3, -3.5e5, 1e7, 1e8, -1e8])


class TestFarSideBound:
    """``_far_side_bound`` never undercuts what the sweep finds."""

    @given(st.one_of(point_sets(min_size=1), SIGNED_POINT_SETS), _SHIFT, _SHIFT, st.data())
    def test_bound_is_at_least_the_sweep_count(self, pts, ox, oy, data):
        # point_sets has duplicates and pairs exactly 2 apart, the signed
        # sets signed zeros; the live mask is any subset
        pts = [Point(p.x + ox, p.y + oy, p.idx) for p in pts]
        table = table_of(pts)
        n = len(pts)
        live = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        anchors = np.flatnonzero(live)
        count, _, _ = single_disk._sweep_anchors(table, anchors, live)
        bound = single_disk._far_side_bound(table, anchors, live)
        entries = table.points.near_row[live[table.points.near]]
        assert (bound >= count).all()
        assert (bound <= np.bincount(entries, minlength=n)[anchors]).all()

    @pytest.mark.parametrize("turns", range(4))
    def test_disk_just_east_of_the_anchor(self, turns):
        # anchor (0, 0), q1 0.993 west and q2 1.004 east of it, both 1 north:
        # only centers near (0.0055, 0.99), just east of the anchor, cover
        # all three, so the bound must keep q1 on the east side although
        # it lies more than 0.99 west.  Turned by 90 degrees 0-3 times, so
        # each side's margin is tested
        pts = [(0.0, 0.0), (-0.993, 1.0), (1.004, 1.0)]
        for _ in range(turns):
            pts = [(-y, x) for x, y in pts]
        table = table_of(make_points(pts))
        everyone = np.ones(3, dtype=bool)
        count, _, _ = single_disk._sweep_anchors(table, np.array([0]), everyone)
        assert count.tolist() == [3]
        assert single_disk._far_side_bound(table, np.array([0]), everyone).tolist() == [3]


class TestLazyTable:
    """The table sweeps only anchors whose bound, 1 + their uncovered
    neighbors or their far-side bound, reaches the running best; answers
    still equal the loop's."""

    @pytest.mark.parametrize("block", [1, single_disk.SWEEP_BLOCK])
    def test_anchor_whose_bound_ties_the_best(self, block):
        # a star: its center has 8 neighbors (bound 9), but two arm points
        # 1.5 and 1.6 out are the most a disk adds to it, so the best is 3;
        # each arm point has bound 3.  The triangle far lower-left has bound
        # 3 and covers 3, so it ties the best and wins on (cx, cy) only if
        # an anchor whose bound equals the best is swept
        star = [(10.0, 10.0)]
        for ux, uy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            star += [(10.0 + 1.5 * ux, 10.0 + 1.5 * uy), (10.0 + 1.6 * ux, 10.0 + 1.6 * uy)]
        pts = make_points(star + [(0.0, 0.0), (0.5, 0.0), (0.25, 0.4)])
        table = table_of(pts)
        assert table.count.tolist() == [9] + [3] * 11
        # the far-side bound: any disk through the center misses one arm pair
        # in x and one in y (both 1.5 and 1.6 out, beyond REACH / 2)
        everyone = np.ones(len(pts), dtype=bool)
        assert single_disk._far_side_bound(table, np.array([0]), everyone).tolist() == [5]
        with sweep_block(block):
            choice = table_choice(table)
        assert choice == exact_bits(*reference_sweep(pts))
        assert choice[0] == 3 and float.fromhex(choice[1]) < 1.0

    def test_step_sweeps_anchors_the_first_disk_skipped(self):
        # a cluster of 5 (the first disk) and, far away, a cluster of 3 whose
        # bound 3 is below 5: the first step never sweeps it, the second
        # must, and then stores its entries, since it lost no neighbor
        five = [(10.0, 10.0), (10.2, 10.0), (10.0, 10.2), (10.2, 10.2), (10.1, 10.1)]
        three = [(30.0, 30.0), (30.3, 30.0), (30.0, 30.3)]
        pts = make_points(five + three + [(50.0, 0.0)])
        later = np.arange(5, 8)
        table = table_of(pts)
        with sweep_block(1):
            count, disk = best_placement(table, np.zeros(len(pts), dtype=bool))
            assert count == 5
            assert not table.swept[later].any()
            covered = mask_of(pts, coverage(disk, pts).ids())
            choice = table_choice(table, covered)
        assert choice == exact_bits(*reference_sweep(residual(pts, covered)))
        assert choice[0] == 3 and float.fromhex(choice[1]) > 20.0
        assert table.swept[later].all()

    @pytest.mark.parametrize("block", [1, single_disk.SWEEP_BLOCK])
    def test_one_table_under_masks_that_do_not_grow(self, block):
        # A, then B, then nothing covered, then C: each answer is the loop's
        # on that residual, and no residual sweep is stored as an entry
        pts = uniform_points(3, 200, 0.0, 12.0)
        table = table_of(pts)
        masks = [
            mask_of(pts, (p.idx for p in pts[::3])),
            mask_of(pts, (p.idx for p in pts if p.x < 6.0)),
            np.zeros(len(pts), dtype=bool),
            mask_of(pts, (p.idx for p in pts if p.y > 4.0 and p.idx % 2)),
        ]
        with sweep_block(block):
            for covered in masks:
                choice = table_choice(table, covered)
                assert choice == exact_bits(*reference_sweep(residual(pts, covered)))
        check_lazy_entries(table, reference_entries(pts))

    def test_sparse_instance_sweeps_few_anchors(self):
        # on 5000:100 (rho = 10) most anchors have fewer than 9 neighbors,
        # and the far-side bound drops most of the others once the first
        # block has found a best: the first disk sweeps 430 anchors (952
        # without the far-side bound); the second step sweeps some it
        # skipped and still equals the loop
        pts = generate(5000, 100.0, 101).points
        table = table_of(pts)
        count, disk = best_placement(table, np.zeros(len(pts), dtype=bool))
        assert count == 10
        assert table.swept.sum() < 500
        first_swept = table.swept.copy()
        covered = mask_of(pts, coverage(disk, pts).ids())
        assert table_choice(table, covered) == exact_bits(*reference_sweep(residual(pts, covered)))
        assert (table.swept & ~first_swept).any()

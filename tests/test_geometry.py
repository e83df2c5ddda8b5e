import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from diskcover import (
    CoverageSet,
    Point,
    PointFormatError,
    UnitDisk,
    coverage,
    covers,
    exclusive_cover,
    most_points,
    parse_points,
    save_points,
    load_points,
    solve,
    union_cover,
)
from diskcover import geometry
from diskcover.geometry import (
    EPS_COVER,
    MAX_COORD,
    REACH,
    candidate_centers,
    coverage_rows,
    distinct_rows,
    packed_coverage,
    point_arrays,
    unpack_coverage,
)
from diskcover.rng import Xoshiro256StarStar

from conftest import (
    candidates,
    make_points,
    point_sets,
    reference_candidate_centers,
    uniform_points,
)


def nearest_anchors(cx, cy, points):
    """Each center's nearest point, as a row of the record ``points``."""
    if not len(cx):
        return np.zeros(0, dtype=np.intp)
    tree = cKDTree(np.column_stack((points.x, points.y)))
    return tree.query(np.column_stack((cx, cy)))[1]


def unpacked_rows(cx, cy, anchor, points, distinct=False):
    """(rows, bits) of ``packed_coverage`` of ``coverage_rows``, each row
    unpacked: all rows, or with ``distinct`` those ``distinct_rows`` keeps;
    checks that the returned counts are the rows' popcounts."""
    indptr, cols = coverage_rows(cx, cy, anchor, points)
    rows = np.arange(len(cx))
    if distinct:
        rows = distinct_rows(indptr, cols, rows, len(points.x))
    words, gids, counts = packed_coverage(indptr, cols, rows, points)
    bits = [unpack_coverage(w, gids).bits for w in words]
    assert counts.dtype == np.int64
    assert counts.tolist() == [b.bit_count() for b in bits]
    return rows, bits


def packed_bits(disks, pts):
    """Each disk's coverage bits, unpacked from ``packed_coverage``, with
    the nearest point as each disk's anchor."""
    points = point_arrays(pts)
    cx = np.array([d.cx for d in disks], dtype=np.float64)
    cy = np.array([d.cy for d in disks], dtype=np.float64)
    return unpacked_rows(cx, cy, nearest_anchors(cx, cy, points), points)[1]


def exact_floats(centers):
    """Centers as hex strings, so -0.0 and the last bit both count."""
    return [(float(x).hex(), float(y).hex()) for x, y in centers]


class TestCovers:
    def test_center_inside(self):
        assert covers(UnitDisk(0, 0), Point(0, 0, 0))

    def test_boundary_point_closed(self):
        assert covers(UnitDisk(0, 0), Point(1, 0, 0))

    def test_outside(self):
        assert not covers(UnitDisk(0, 0), Point(1.1, 0, 0))

    def test_distance_symmetry(self):
        # swapping which point plays the center cannot change the answer
        rng = Xoshiro256StarStar(17)
        for _ in range(500):
            ax, ay = rng.uniform(-3, 3), rng.uniform(-3, 3)
            bx, by = rng.uniform(-3, 3), rng.uniform(-3, 3)
            assert covers(UnitDisk(ax, ay), Point(bx, by, 0)) == covers(
                UnitDisk(bx, by), Point(ax, ay, 0)
            )


class TestCoverage:
    def test_small(self):
        pts = make_points([(0, 0), (0.5, 0), (5, 5)])
        cov = coverage(UnitDisk(0, 0), pts)
        assert cov.ids() == [0, 1]
        assert cov.count == 2

    def test_empty(self):
        cov = coverage(UnitDisk(0, 0), [])
        assert cov.count == 0 and cov.ids() == []

    def test_uniform_matches_per_point_check(self):
        # oracle: the membership inequality evaluated point by point right here
        pts = uniform_points(42, 200, -10.0, 10.0)
        for d in (UnitDisk(0.0, 0.0), UnitDisk(0.7, -1.3)):
            expected = {
                p.idx
                for p in pts
                if (p.x - d.cx) ** 2 + (p.y - d.cy) ** 2 <= 1.0 + 1e-9
            }
            cov = coverage(d, pts)
            assert set(cov.ids()) == expected
            assert cov.count == len(expected)

    def test_batch_kernel_matches_reference_loop(self):
        pts = uniform_points(8, 150, 0.0, 12.0)
        rng = Xoshiro256StarStar(9)
        disks = [UnitDisk(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(40)]
        batch = packed_bits(disks, pts)
        for d, bits in zip(disks, batch):
            assert bits == coverage(d, pts).bits

    def test_batch_kernel_sparse_ids(self):
        # sub-lists keep original indices; bits must live in the original space
        pts = [Point(0.0, 0.0, 3), Point(0.5, 0.0, 7)]
        bits = packed_bits([UnitDisk(0, 0)], pts)[0]
        assert bits == (1 << 3) | (1 << 7)
        # a repeated id is refused: counts of positions would not be counts of ids
        pts = [Point(0.0, 0.0, 3), Point(0.5, 0.0, 3)]
        with pytest.raises(ValueError, match="point ids must be distinct; id 3 repeats"):
            packed_bits([UnitDisk(0, 0)], pts)

    def test_batch_kernel_empty_inputs(self):
        pts = make_points([(0, 0), (0.5, 0)])
        assert packed_bits([], pts) == []
        # a point list must be non-empty to have a record, so coverage over
        # no points cannot be asked for
        with pytest.raises(ValueError, match="non-empty"):
            packed_bits([], [])
        with pytest.raises(ValueError, match="non-empty"):
            packed_bits([UnitDisk(0, 0), UnitDisk(5, 5)], [])

    @given(
        point_sets(min_size=1),
        st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), max_size=6),
    )
    def test_batch_kernel_matches_per_disk_coverage(self, pts, extra):
        # candidate disks put points exactly on their boundary; the extra
        # disks are placed anywhere near the (translated) points, and one
        # far from all of them covers nothing
        ox, oy = pts[0].x, pts[0].y
        disks = candidates(pts) + [
            UnitDisk(ox + x, oy + y) for x, y in extra + [(50.0, -50.0)]
        ]
        assert packed_bits(disks, pts) == [coverage(d, pts).bits for d in disks]


class TestPointArrays:
    """The one record every layer reads: rows in id order, and each row's
    near list of the rows within REACH."""

    @given(point_sets(min_size=1))
    def test_rows_and_near_lists_match_brute_force(self, pts):
        points = point_arrays(pts)
        by_id = sorted(pts, key=lambda p: p.idx)
        assert points.ids.tolist() == [p.idx for p in by_id]
        assert points.x.tolist() == [p.x for p in by_id]
        assert points.y.tolist() == [p.y for p in by_id]
        # each row's near list: every row within REACH, itself included, ascending
        expected = [
            [s for s, q in enumerate(by_id) if (p.x - q.x) ** 2 + (p.y - q.y) ** 2 <= REACH**2]
            for p in by_id
        ]
        ptr = points.near_ptr.tolist()
        assert ptr[0] == 0 and ptr[-1] == len(points.near) == len(points.near_row)
        assert [points.near[lo:hi].tolist() for lo, hi in zip(ptr, ptr[1:])] == expected
        assert points.near_row.tolist() == [r for r, near in enumerate(expected) for _ in near]

    def test_refuses_empty_and_repeated_ids(self):
        with pytest.raises(ValueError, match="^a point list must be non-empty$"):
            point_arrays([])
        pts = [Point(0.0, 0.0, 5), Point(9.0, 0.0, 3), Point(0.5, 0.0, 5), Point(1.0, 1.0, 3)]
        with pytest.raises(ValueError, match="^point ids must be distinct; id 3 repeats$"):
            point_arrays(pts)

    @pytest.mark.parametrize(
        "far, spans",
        [
            ((1.4e154, 0.0), "1.4e+154 in x and 0 in y"),
            ((1e154, 1e154), "1e+154 in x and 1e+154 in y"),
        ],
        ids=["x-only", "diagonal"],
    )
    def test_refuses_a_span_whose_square_overflows(self, far, spans):
        # (1.4e154)^2 and 2 (1e154)^2 exceed the largest double; scipy's
        # tree would fail on them with a message about its parameter p
        with pytest.raises(ValueError) as refused:
            point_arrays(make_points([far, (0.0, 0.0)]))
        assert str(refused.value) == f"points span {spans}; squared distances overflow"

    def test_accepts_a_span_whose_square_is_finite(self):
        points = point_arrays(make_points([(1.3e154, 0.0), (0.0, 0.0)]))
        assert points.near_ptr.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "xy, big",
        [
            ([(1e308, 0.0), (1e308, 1.0), (1e308, 0.5)], "1e+308"),
            ([(0.0, -1.7e308), (0.0, -1.7e308 + 1e293)], "1.7e+308"),
        ],
        ids=["x-column", "negative-y"],
    )
    def test_refuses_a_coordinate_whose_pair_sums_overflow(self, xy, big):
        # the spans are finite and small, but the sum of two coordinates,
        # as in a pair's midpoint, is not: solve put the disk through the
        # first three points at (inf, 0.25), covering none of them
        with pytest.raises(ValueError) as refused:
            point_arrays(make_points(xy))
        assert str(refused.value) == f"a coordinate reaches {big}, above 8.98847e+307; pair sums overflow"

    def test_accepts_coordinates_at_half_the_largest_double(self):
        pts = make_points([(MAX_COORD, 0.0), (MAX_COORD, 1.0), (MAX_COORD, 0.5)])
        assert point_arrays(pts).near_ptr.tolist() == [0, 3, 6, 9]
        assert solve(pts, 1).disks == [UnitDisk(MAX_COORD, 0.25)]
        assert solve(pts, 1).rho == most_points(pts, 1).covered.count == 3


class TestAnchorJoin:
    """``coverage_rows`` gathers each center's coverage from its
    anchor's near list; these pin it to ``coverage``, disk by disk, with the
    anchors ``candidate_centers`` returns (``packed_bits`` above passes
    nearest points)."""

    @given(point_sets(min_size=1))
    def test_anchor_is_covered_by_its_center(self, pts):
        points = point_arrays(pts)
        cx, cy, anchor = candidate_centers(points)
        assert anchor.shape == cx.shape and anchor.dtype.kind == "i"
        for x, y, a in zip(cx.tolist(), cy.tolist(), anchor.tolist()):
            dx, dy = points.x[a] - x, points.y[a] - y
            assert dx * dx + dy * dy <= 1.0 + EPS_COVER

    @given(point_sets(min_size=1))
    def test_candidate_rows_match_per_disk_coverage(self, pts):
        points = point_arrays(pts)
        cx, cy, anchor = candidate_centers(points)
        rows, bits = unpacked_rows(cx, cy, anchor, points)
        assert rows.tolist() == list(range(len(cx)))
        assert bits == [coverage(d, pts).bits for d in candidates(pts)]
        rows, bits = unpacked_rows(cx, cy, anchor, points, distinct=True)
        assert bits == [coverage(UnitDisk(cx[r], cy[r]), pts).bits for r in rows.tolist()]

    def test_disk_covering_nothing_is_empty_with_any_anchor(self):
        points = point_arrays(make_points([(0, 0), (0.5, 0), (2, 0)]))
        for a in range(3):
            _, bits = unpacked_rows(np.array([10.0]), np.array([10.0]), np.array([a]), points)
            assert bits == [0]

    def test_pairs_at_exactly_two_and_duplicates(self):
        # a 5 x 5 integer lattice, each point twice: through-pair centers at
        # the midpoints of pairs 2 apart cover points exactly 1 from them
        coords = [(x, y) for x in range(5) for y in range(5)] * 2
        for off in (0.0, 1e3, 1e6):
            pts = make_points([(x + off, y - off) for x, y in coords])
            points = point_arrays(pts)
            _, bits = unpacked_rows(*candidate_centers(points), points)
            assert bits == [coverage(d, pts).bits for d in candidates(pts)]


def distinct_reference(bits, order):
    """The first index in ``order`` of each distinct coverage set, in that
    order: a dict of tuples."""
    first = {}
    for i in order:
        first.setdefault(tuple(CoverageSet(bits[i]).ids()), i)
    return list(first.values())


class TestDistinctRows:
    """The distinct rows are picked by a 64-bit key per row; rows whose keys
    collide are told apart entry by entry.  Each check runs on the rows in
    center order, reversed and in one fixed shuffle."""

    def check(self, pts):
        points = point_arrays(pts)
        cx, cy, anchor = candidate_centers(points)
        _, bits = unpacked_rows(cx, cy, anchor, points)
        rows, _ = unpacked_rows(cx, cy, anchor, points, distinct=True)
        assert rows.tolist() == distinct_reference(bits, range(len(bits)))
        indptr, cols = coverage_rows(cx, cy, anchor, points)
        for order in (np.arange(len(cx))[::-1], np.random.default_rng(7).permutation(len(cx))):
            got = distinct_rows(indptr, cols, order, len(pts))
            assert got.tolist() == distinct_reference(bits, order.tolist())

    @given(point_sets(min_size=1))
    def test_matches_dict_reference(self, pts):
        self.check(pts)

    @given(point_sets(min_size=1))
    def test_matches_dict_reference_when_every_key_collides(self, pts):
        real = geometry._id_keys
        # every id has key 0, so every row, whatever its length, has key 0
        geometry._id_keys = lambda n: np.zeros(n, dtype=np.uint64)
        try:
            self.check(pts)
        finally:
            geometry._id_keys = real

    def test_dense_instance_with_colliding_keys(self, monkeypatch):
        pts = uniform_points(3, 120, 0.0, 4.0)
        self.check(pts)
        monkeypatch.setattr(geometry, "_id_keys", lambda n: np.zeros(n, dtype=np.uint64))
        self.check(pts)
        # keys with period 3, so only some rows of equal length collide
        monkeypatch.setattr(
            geometry, "_id_keys", lambda n: np.arange(n, dtype=np.uint64) % np.uint64(3)
        )
        self.check(pts)


class TestCandidateDisks:
    def test_single_point(self):
        disks = candidates(make_points([(0, 0)]))
        assert len(disks) == 1
        assert disks[0] == UnitDisk(0.0, 0.0)

    def test_distance_exactly_two(self):
        # the two circumscribing circles coincide at the midpoint, so the
        # pair contributes exactly one through-disk alongside the centered two
        disks = candidates(make_points([(0, 0), (2, 0)]))
        centers = sorted((d.cx, d.cy) for d in disks)
        assert centers == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]

    def test_unit_separation_analytic(self):
        disks = candidates(make_points([(0, 0), (1, 0)]))
        centers = sorted((d.cx, d.cy) for d in disks)
        h = math.sqrt(1 - 0.25)
        assert len(centers) == 4
        assert centers[0] == (0.0, 0.0)
        assert centers[3] == (1.0, 0.0)
        assert centers[1] == pytest.approx((0.5, -h))
        assert centers[2] == pytest.approx((0.5, h))

    def test_through_pair_disks_cover_both_generators(self):
        pts = uniform_points(21, 40, 0.0, 8.0)
        by_pos = {(p.x, p.y) for p in pts}
        for d in candidates(pts):
            if (d.cx, d.cy) in by_pos:
                continue
            n_on_boundary = sum(
                1
                for p in pts
                if abs((p.x - d.cx) ** 2 + (p.y - d.cy) ** 2 - 1.0) <= 1e-9
            )
            assert n_on_boundary >= 2

    def test_candidate_count_bound(self):
        for seed, n in [(1, 10), (2, 25), (3, 60)]:
            pts = uniform_points(seed, n, 0.0, 5.0)
            assert len(candidates(pts)) <= n * n

    def test_duplicate_points_no_through_disks(self):
        disks = candidates(make_points([(1.5, 2.5), (1.5, 2.5)]))
        assert len(disks) == 1

    def test_far_pair_only_centered(self):
        disks = candidates(make_points([(0, 0), (10, 10)]))
        assert sorted((d.cx, d.cy) for d in disks) == [(0.0, 0.0), (10.0, 10.0)]

    def test_empty_rejected(self):
        # the candidates read the record, which refuses an empty list
        with pytest.raises(ValueError, match="non-empty"):
            candidate_centers(point_arrays([]))

    @given(
        st.lists(
            st.tuples(*[st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), st.floats(-3, 3))] * 2),
            min_size=2,
            max_size=8,
        )
    )
    def test_pair_centers_swap_left_and_right(self, coords):
        # the sweep computes each pair from both of its points; the two
        # directions give the same floats, signed zeros included, unless d = 0
        x, y = (np.array(c) for c in zip(*coords))
        a, b = (v.ravel() for v in np.meshgrid(np.arange(len(x)), np.arange(len(x))))
        d, left, right = geometry.pair_centers(x, y, a, b)
        d_ba, left_ba, right_ba = geometry.pair_centers(x, y, b, a)
        apart = d > 0

        def bits(*arrays):
            return [v[apart].view(np.uint64).tolist() for v in arrays]

        assert bits(d, *left, *right) == bits(d_ba, *right_ba, *left_ba)

    @given(point_sets(min_size=1))
    def test_matches_reference_loop_bit_for_bit(self, pts):
        got = [(d.cx, d.cy) for d in candidates(pts)]
        assert exact_floats(got) == exact_floats(reference_candidate_centers(pts))

    def test_only_equal_centers_merge(self):
        # four coincident points: one point center, and no pair is apart
        assert [(d.cx, d.cy) for d in candidates(make_points([(1.5, 2.5)] * 4))] == [(1.5, 2.5)]
        # point centers 4e-13 apart up the y axis are distinct values, so all
        # four are kept (through-pair centers lie near x = +-1)
        ys = [0.0, 4e-13, 8e-13, 1.2e-12]
        on_axis = [(d.cx, d.cy) for d in candidates(make_points([(0.0, y) for y in ys]))]
        assert [c for c in on_axis if abs(c[0]) < 0.5] == [(0.0, y) for y in ys]
        # a pair exactly 2 apart: its left and right centers are both the
        # midpoint, one value
        through = [(d.cx, d.cy) for d in candidates(make_points([(0, 0), (2, 0)]))]
        assert through == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        # a pair 2 - 4e-13 apart: two centers, about 6.3e-7 either side of the axis
        pts = make_points([(0, 0), (2 - 4e-13, 0)])
        through = [(d.cx, d.cy) for d in candidates(pts) if 0.5 < d.cx < 1.5]
        assert len(through) == 2 and through[0][1] < 0 < through[1][1]
        assert exact_floats(
            [(d.cx, d.cy) for d in candidates(pts)]
        ) == exact_floats(reference_candidate_centers(pts))


class TestSetAlgebra:
    def test_union_small(self):
        a = CoverageSet.from_ids([0, 1])
        b = CoverageSet.from_ids([1, 2])
        u = union_cover([a, b])
        assert u.ids() == [0, 1, 2] and u.count == 3

    def test_union_empty_list(self):
        assert union_cover([]).count == 0

    def test_union_with_empty_set(self):
        u = union_cover([CoverageSet.from_ids([0, 1]), CoverageSet()])
        assert u.ids() == [0, 1]

    def test_exclusive_small(self):
        d = [CoverageSet.from_ids([0, 1, 2])]
        e = [CoverageSet.from_ids([1])]
        assert exclusive_cover(d, e) == 2
        assert exclusive_cover([CoverageSet.from_ids([0, 1])], [CoverageSet.from_ids([0, 1])]) == 0
        assert exclusive_cover([CoverageSet()], [CoverageSet.from_ids([0])]) == 0

    def test_identities_random(self):
        # oracle: plain python sets of indices
        rng = Xoshiro256StarStar(5)
        for _ in range(2000):
            d_bits = rng.next_u64() & rng.next_u64()
            e_bits = rng.next_u64() & rng.next_u64()
            d_ids = {i for i in range(64) if (d_bits >> i) & 1}
            e_ids = {i for i in range(64) if (e_bits >> i) & 1}
            d = [CoverageSet(d_bits)]
            e = [CoverageSet(e_bits)]
            assert exclusive_cover(d, e) == len(d_ids - e_ids)
            assert exclusive_cover(d, e) <= union_cover(d).count
            assert union_cover(d + e).count == union_cover(d).count + exclusive_cover(e, d)
            assert union_cover(d + e).count <= union_cover(d).count + union_cover(e).count

    def test_count_tracks_bits(self):
        rng = Xoshiro256StarStar(6)
        for _ in range(200):
            bits = rng.next_u64()
            assert CoverageSet(bits).count == bin(bits).count("1")


class TestPointFiles:
    def test_parse_formats(self):
        pts = parse_points(["# header", "0 0", "1.5,2.5", "", "  3 4  "])
        assert [(p.x, p.y, p.idx) for p in pts] == [
            (0.0, 0.0, 0),
            (1.5, 2.5, 1),
            (3.0, 4.0, 2),
        ]

    def test_parse_error_line_number(self):
        with pytest.raises(PointFormatError) as err:
            parse_points(["0 0", "1 2 3"])
        assert "line 2" in str(err.value)

    def test_parse_bad_number(self):
        with pytest.raises(PointFormatError) as err:
            parse_points(["abc def"])
        assert err.value.line_no == 1

    def test_parse_nonfinite_rejected(self):
        with pytest.raises(PointFormatError):
            parse_points(["nan 0"])
        with pytest.raises(PointFormatError):
            parse_points(["0 inf"])

    def test_round_trip_exact(self, tmp_path):
        pts = uniform_points(77, 50, -3.0, 9.0)
        path = str(tmp_path / "pts.txt")
        save_points(path, pts)
        back = load_points(path)
        assert [(p.x, p.y, p.idx) for p in back] == [(p.x, p.y, p.idx) for p in pts]

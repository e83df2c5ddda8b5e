"""Planar geometric primitives shared by every solver.

The problem domain is fixed-radius (unit) disks over an indexed point set.
All solvers agree on membership through one closed-disk predicate with a
small epsilon, because candidate disks routinely place points exactly on
their boundary.

The solvers read a point list through one record per call, ``PointArrays``
from ``point_arrays``: coordinates and ids in id order, and each point's
near list, the points within REACH of it, from the only KD-tree query and
the only sort of pair keys.  It refuses repeated ids, so a count of rows is
a count of ids.  The sweep and the candidates keep the near lists' pairs
within 2 + PAIR_EPS and take their centers from ``pair_centers``; the
coverage join applies the predicate to the lists.  ``covers`` and
``coverage``, the reference predicate and loop, take any point list;
``covered_mask`` applies the predicate to a record's rows.

The candidate set and the coverage of many disks are computed on whole numpy
arrays.  Each candidate center keeps the row of a point that generated it,
its anchor, which it covers.  Every point a center covers is then within 2
of its anchor, so coverage applies the predicate itself to the anchor and
its neighbors: membership is bit for bit that of ``coverage``, while the
work grows with the points near each anchor instead of with centers times
points.  The coverage of many centers is returned packed, one row of uint64
words per center with a bit per point the rows cover, the points ranked by
x, so a union is a row OR and a count a popcount.  A result is reported as
a ``CoverageSet`` over point ids.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

# Closed-disk membership slack on the *squared* distance.  Through-pair
# candidate disks put both generating points at squared distance exactly 1;
# this absorbs the float error of constructing those centers.  The slack is
# absolute; see ``PointArrays`` for the coordinates it serves.
EPS_COVER = 1e-9

# Two points generate through-pair disks only when their distance is more
# than PAIR_EPS (closer points are duplicates) and at most 2 + PAIR_EPS.
PAIR_EPS = 1e-12

# Near-list radius of ``PointArrays``: the lists hold the sweep's and the
# candidates' pairs (within 2 + PAIR_EPS) and every point a center covers
# when its anchor is covered too, which the predicate allows within about
# 2 + 1e-9 (sqrt(1 + EPS_COVER) to each).  The tree's distances differ
# from the predicate's only by rounding, about 1e-16 times the coordinates.
REACH = 2.0 + 2e-6

# The largest coordinate magnitude ``point_arrays`` accepts, half the largest
# double: the sum of any two coordinates, as in a pair's midpoint, is finite.
MAX_COORD = sys.float_info.max / 2

# Centers joined with their anchors' near lists at once, so that the
# per-entry arrays of a block stay small next to the words (on 5000:100 the
# join's arrays peak at 3.6 MB this way and at 14.6 MB all at once, more than
# the 12.8 MB of words).
BLOCK_ROWS = 4096


class PointFormatError(ValueError):
    """A point file line that cannot be parsed; carries its line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Point:
    """An input point with a stable index into its instance (0-based)."""

    x: float
    y: float
    idx: int


@dataclass(frozen=True)
class UnitDisk:
    """A closed disk of radius 1, identified by its center."""

    cx: float
    cy: float


class CoverageSet:
    """A set of covered point ids, as returned by the solvers.

    ``bits`` is an integer bitmask over point ids and ``count`` its
    popcount.  Solvers compute coverage on packed word rows or table masks
    and build one CoverageSet per result; it is immutable by convention.
    """

    __slots__ = ("bits", "count")

    def __init__(self, bits: int = 0):
        self.bits = bits
        self.count = bits.bit_count()

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "CoverageSet":
        ids = np.fromiter(ids, dtype=np.int64)
        if not len(ids):
            return cls()
        flags = np.zeros(int(ids.max()) + 1, dtype=bool)
        flags[ids] = True
        return cls(int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"))

    def ids(self) -> list[int]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def __contains__(self, idx: int) -> bool:
        return (self.bits >> idx) & 1 == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoverageSet) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"CoverageSet({self.ids()!r})"


def covers(d: UnitDisk, p: Point) -> bool:
    """Closed-disk membership: squared distance at most 1 + EPS_COVER."""
    dx = p.x - d.cx
    dy = p.y - d.cy
    return dx * dx + dy * dy <= 1.0 + EPS_COVER


def coverage(d: UnitDisk, pts: Sequence[Point]) -> CoverageSet:
    """Exact coverage of one disk over a point list, by direct membership.

    This deliberately *is* the naive per-point loop: it is the reference
    semantics every faster path (the sweep, batch kernels) must match.
    """
    bits = 0
    cx, cy = d.cx, d.cy
    limit = 1.0 + EPS_COVER
    for p in pts:
        dx = p.x - cx
        dy = p.y - cy
        if dx * dx + dy * dy <= limit:
            bits |= 1 << p.idx
    return CoverageSet(bits)


@dataclass(frozen=True)
class PointArrays:
    """One point list as arrays, in id order, with each row's near list.

    Row r is the point of the r-th least id: ``ids`` ascend and ``x``, ``y``
    are the rows' coordinates, so a row is a point's local id.  Row r's near
    list is every row within REACH of it, r itself and duplicates included,
    in ascending order: entries ``near_ptr[r]`` to ``near_ptr[r + 1]`` of
    ``near``, and ``near_row`` is r at each of them.  So no list is empty,
    its length is 1 + the row's neighbors, and the entries with
    ``near_row < near`` are each pair of neighbors once.  ``len`` is the
    number of rows.  ``restrict`` gives the record of some of the rows,
    the solver's neighborhood, from these lists, without another tree.

    Coordinates are used as given, and EPS_COVER is an absolute slack on the
    squared distance, so exactness holds only while the coordinates are
    small enough for it.  Measured on ``generate(40, 6.0, seed)``, seeds
    0-29, m=2 with prune, the offset added to x and y: ``solve`` and
    ``most_points`` cover the same count at offsets up to 1e6, differ on 17
    of 30 at 1e7 and 21 of 30 at 1e8, and ``solve``'s count moves from the
    unshifted one on 18 and 25 of 30 (defect A of ROADMAP item 1).
    """

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    near_ptr: np.ndarray
    near_row: np.ndarray
    near: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def restrict(self, keep: np.ndarray) -> PointArrays:
        """The record of the rows where the mask ``keep`` is true, in order:
        their near lists without the rows left out, renumbered."""
        rows = np.flatnonzero(keep)
        # the kept rows' entries whose neighbor is kept too
        at, lengths = csr_entries(self.near_ptr, rows)
        both = keep[self.near[at]]
        near_row = np.repeat(np.arange(len(rows)), lengths)[both]
        near_ptr = np.concatenate(([0], np.cumsum(np.bincount(near_row, minlength=len(rows)))))
        near = (np.cumsum(keep) - 1)[self.near[at[both]]]
        return PointArrays(self.x[rows], self.y[rows], self.ids[rows], near_ptr, near_row, near)


def point_arrays(pts: Sequence[Point]) -> PointArrays:
    """The record of ``pts``; an empty list, a negative or repeated id, a
    coordinate above MAX_COORD in magnitude (the sum of two would overflow,
    and so would a pair's midpoint), or a span ``ex``, ``ey`` of the
    coordinates whose ``ex*ex + ey*ey`` overflows (no squared distance would
    be finite) raises ValueError."""
    if not pts:
        raise ValueError("a point list must be non-empty")
    ids = np.array([p.idx for p in pts], dtype=np.int64)
    by_id = _distinct_id_order(ids)
    x = np.array([p.x for p in pts], dtype=np.float64)[by_id]
    y = np.array([p.y for p in pts], dtype=np.float64)[by_id]
    big = max(float(np.abs(x).max()), float(np.abs(y).max()))
    if big > MAX_COORD:
        raise ValueError(f"a coordinate reaches {big:g}, above {MAX_COORD:g}; pair sums overflow")
    # Python floats overflow to inf without a numpy warning
    ex, ey = float(x.max()) - float(x.min()), float(y.max()) - float(y.min())
    if not math.isfinite(ex * ex + ey * ey):
        raise ValueError(f"points span {ex:g} in x and {ey:g} in y; squared distances overflow")
    # a sliding-midpoint tree builds faster than a median-split one
    i, j = cKDTree(np.column_stack([x, y]), balanced_tree=False).query_pairs(
        r=REACH, output_type="ndarray"
    ).reshape(-1, 2).T
    # both directions of every pair and each row itself: one sort of row * n + neighbor
    n, own = len(x), np.arange(len(x))
    key = np.concatenate((i, j, own))
    key *= n
    key += np.concatenate((j, i, own))
    key.sort()
    near_row = key // n
    near_ptr = np.concatenate(([0], np.cumsum(np.bincount(near_row, minlength=n))))
    key -= near_row * n
    return PointArrays(x, y, ids[by_id], near_ptr, near_row, key)


def covered_mask(
    points: PointArrays, disks: Sequence[UnitDisk], limit: float = 1.0 + EPS_COVER
) -> np.ndarray:
    """True at each row of ``points`` within one of ``disks``.

    Membership is ``coverage``'s predicate, in the same float operations, on
    the record's coordinate arrays: the squared distance to a center is at
    most ``limit``, which a caller widens to test a larger radius.
    """
    hit = np.zeros(len(points.x), dtype=bool)
    for d in disks:
        dx = points.x - d.cx
        dy = points.y - d.cy
        hit |= dx * dx + dy * dy <= limit
    return hit


def candidate_centers(points: PointArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers of the finite candidate set and their anchors, as arrays.

    Returns (cx, cy, anchor).  The candidates are, for every point, the disk
    centered on it, and for every pair at distance PAIR_EPS < d <= 2 +
    PAIR_EPS, the two unit disks whose boundary passes through both points.
    They suffice for exact coverage maximization: any disk can be translated
    until two covered points lie on its boundary or it covers at most one
    point, so some optimal solution of best-k disks uses only these
    candidates.  A pair a, b (a the lesser row) gives the left and then the
    right center of ``pair_centers``, the floats the sweep computes, so every
    disk the sweep returns is one of these centers.

    Point centers come first, in row order, then the through-pair centers
    in the record's pair order; then a stable sort by (cx, cy), and a center
    equal to the one before it (-0.0 equals 0.0) is dropped, so each value
    is kept once, at its first position.

    ``anchor[r]`` is the row of a point that generated center r: the point
    itself, or the member of the pair with the shorter near list (a on
    ties).  Both members lie on the disk's boundary, so either is covered
    (squared distance at most 1 + EPS_COVER), which is what
    ``coverage_rows`` relies on; the shorter list makes the join
    smaller and its length, which bounds the center's count, tighter.
    """
    cx, cy, anchor = _generated_centers(points)
    # a stable sort by (cx, cy): one quicksort of cx, then the runs of
    # equal cx re-sorted by (cx, cy, position)
    order = np.argsort(cx)
    tied = cx[order[1:]] == cx[order[:-1]]
    run = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
    sub = order[run]
    order[run] = sub[np.lexsort((sub, cy[sub], cx[sub]))]
    # one array at a time, so that each old one is freed before the next
    # is gathered
    cx = cx[order]
    cy = cy[order]
    anchor = anchor[order]
    keep = np.concatenate(([True], (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])))
    return cx[keep], cy[keep], anchor[keep]


def _generated_centers(points: PointArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates of ``candidate_centers`` and their anchors before the
    sort: point centers in row order, then per pair the left and the right
    center, anchored on the member with the shorter near list (a on ties).
    Its own function, so that the per-pair arrays are freed before the sort."""
    xs, ys = points.x, points.y
    pair = points.near_row < points.near
    a, b = points.near_row[pair], points.near[pair]
    d, (lx, ly), (rx, ry) = pair_centers(xs, ys, a, b)
    ok = (d > PAIR_EPS) & (d <= 2.0 + PAIR_EPS)
    cx = np.concatenate((xs, np.column_stack((lx[ok], rx[ok])).ravel()))
    cy = np.concatenate((ys, np.column_stack((ly[ok], ry[ok])).ravel()))
    n_near = np.diff(points.near_ptr)
    a, b = a[ok], b[ok]
    short = np.where(n_near[b] < n_near[a], b, a)
    return cx, cy, np.concatenate((np.arange(len(xs)), np.repeat(short, 2)))


def pair_centers(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """The unit disks through rows ``a[k]`` and ``b[k]``: ``(d, left, right)``.

    For d = |b - a|, m = (a + b) / 2, h = sqrt(max(1 - d^2 / 4, 0)) and
    u = (b - a) / d, the centers ``left`` and ``right``, on either side of
    the direction a -> b, are m + h (-u.y, u.x) and m - h (-u.y, u.x); each
    is an (x, y) pair of arrays.  At d = 2 both equal m.  IEEE 754 rounds
    + - * / and sqrt correctly, so no bit depends on the platform.  Swapping
    a and b swaps left and right and, when d > 0, changes no bit.  A pair at
    d = 0 gets non-finite centers.
    """
    dx, dy = x[b] - x[a], y[b] - y[a]
    d2 = dx * dx + dy * dy
    d = np.sqrt(d2)
    mx, my = (x[a] + x[b]) / 2.0, (y[a] + y[b]) / 2.0
    h = np.sqrt(np.maximum(1.0 - d2 / 4.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ux, uy = dx / d, dy / d
    return d, (mx - h * uy, my + h * ux), (mx + h * uy, my - h * ux)


def packed_coverage(
    indptr: np.ndarray, cols: np.ndarray, rows: np.ndarray, points: PointArrays
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR coverage ``rows`` of ``coverage_rows`` packed into words, in
    the order given.

    Returns (words, gids, counts).  The bits stand for the points the rows
    cover, ranked by x (a stable sort of their ``points.x``): ``words[t]``
    is the coverage of CSR row ``rows[t]``, ceil(len(gids) / 64) uint64
    words whatever the magnitude of the ids, in which bit ``l % 64`` of word
    ``l // 64`` stands for the covered point of rank ``l``, whose id is
    ``gids[l]``, so nearby centers share words.  Rows that include a center
    covering each point, as every unpruned candidate set does (a point's
    own center covers it), cover every point.  ``counts[t]`` (int64) is the
    number of points row t covers.
    """
    at, counts = csr_entries(indptr, rows)
    col = cols[at]
    hit = np.zeros(len(points.x), dtype=bool)
    hit[col] = True
    covered = np.flatnonzero(hit)
    by_x = covered[np.argsort(points.x[covered], kind="stable")]
    gids = points.ids[by_x]
    width = -(-len(gids) // 64)
    rank = np.empty(len(points.x), dtype=np.int64)
    rank[by_x] = np.arange(len(by_x))
    col = rank[col]
    words = np.zeros((len(rows), width), dtype=np.uint64)
    # one scatter sets each covered point's bit in its row's word: a row's
    # points are distinct, so its bits never collide and their sum is their OR
    word = np.repeat(np.arange(len(rows)) * width, counts) + (col >> 6)
    bit = np.left_shift(np.uint64(1), (col & 63).astype(np.uint64))
    np.add.at(words.reshape(-1), word, bit)
    return words, gids, counts


def _distinct_id_order(ids: np.ndarray) -> np.ndarray:
    """Positions that sort ``ids`` ascending (stably); a negative or repeated id raises."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    if ordered[0] < 0:
        raise ValueError(f"point ids must be non-negative; id {int(ordered[0])} is negative")
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    if len(repeats):
        raise ValueError(f"point ids must be distinct; id {int(ordered[repeats[0]])} repeats")
    return order


def unpack_coverage(words: np.ndarray, gids: np.ndarray) -> CoverageSet:
    """The coverage set of one row of ``packed_coverage`` words.

    ``gids`` maps the row's bits to point ids, as returned with it.
    """
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return CoverageSet.from_ids(gids[bits[: len(gids)].astype(bool)])


def csr_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of CSR ``rows``, row after row, and the row lengths."""
    lengths = indptr[rows + 1] - indptr[rows]
    at = np.repeat(indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(len(at))
    return at, lengths


def coverage_rows(
    cx: np.ndarray, cy: np.ndarray, anchor: np.ndarray, points: PointArrays
) -> tuple[np.ndarray, np.ndarray]:
    """Covered points of each center as CSR rows (indptr, cols).

    ``anchor[r]`` is a row of ``points``: ``candidate_centers`` returns one
    per center, and any other disk may pass its nearest point.  Center r's
    row is the predicate applied, exactly as ``coverage`` writes it, to the
    anchor's near list, the anchor and its neighbors, a block of centers at
    a time.  It is exact whenever the anchor is covered, or nothing is:
    every covered point is then within REACH of the anchor.  ``cols`` are
    rows of ``points``, ascending within a row, as in the near lists.
    """
    lengths = np.empty(len(cx), dtype=np.int64)
    parts = [points.near[:0]]
    for lo in range(0, len(cx), BLOCK_ROWS):
        at, n_near = csr_entries(points.near_ptr, anchor[lo : lo + BLOCK_ROWS])
        col = points.near[at]
        del at
        # dx * dx + dy * dy in place, the same operations with fewer
        # block-sized arrays alive at once
        dx = points.x[col]
        dx -= np.repeat(cx[lo : lo + BLOCK_ROWS], n_near)
        dx *= dx
        dy = points.y[col]
        dy -= np.repeat(cy[lo : lo + BLOCK_ROWS], n_near)
        dy *= dy
        dx += dy
        del dy
        hit = dx <= 1.0 + EPS_COVER
        del dx
        parts.append(col[hit])
        # a near list holds at least its own point, so no segment is empty
        starts = np.cumsum(n_near) - n_near
        lengths[lo : lo + len(n_near)] = np.add.reduceat(hit, starts, dtype=np.int64)
    indptr = np.zeros(len(cx) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, np.concatenate(parts)


def _id_keys(n: int) -> np.ndarray:
    """Fixed pseudo-random 64-bit keys of the local ids 0..n-1 (splitmix64)."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def distinct_rows(indptr: np.ndarray, ids: np.ndarray, rows: np.ndarray, n_ids: int) -> np.ndarray:
    """The first of each distinct coverage set among the CSR ``rows`` of ids
    below n_ids, in the order of ``rows``.

    A row's key is the wrapping sum of the keys of its ids.  Rows are grouped
    by key, in the order of ``rows`` within a group, and each row is compared
    with its group's first row: a row of another length differs, one of the
    same length is compared entry by entry, and an equal row is a repeat.
    The rows that differ (a key collision) are grouped again among
    themselves until none do.
    """
    lo, hi = indptr[rows], indptr[rows + 1]
    lengths = hi - lo
    sums = np.zeros(len(ids) + 1, dtype=np.uint64)
    np.cumsum(_id_keys(n_ids)[ids], out=sums[1:])
    keys = sums[hi] - sums[lo]
    # positions in rows, by key
    pending = np.argsort(keys, kind="stable")
    key = keys[pending]
    group = np.zeros(len(pending), dtype=np.int64)
    np.cumsum(key[1:] != key[:-1], out=group[1:])
    firsts = [pending[:0]]
    while len(pending):
        leads = np.ones(len(pending), dtype=bool)
        leads[1:] = group[1:] != group[:-1]
        firsts.append(pending[leads])
        others = ~leads
        rest = pending[others]
        lead = pending[leads][np.cumsum(leads)[others] - 1]
        # only rows as long as their group's first row are compared entry
        # by entry, so that the two rows' entries line up
        again = lengths[rest] != lengths[lead]
        same = np.flatnonzero(~again)
        at, n_at = csr_entries(indptr, rows[rest[same]])
        lead_at, _ = csr_entries(indptr, rows[lead[same]])
        again[np.repeat(same, n_at)[ids[at] != ids[lead_at]]] = True
        pending, group = rest[again], group[others][again]
    return rows[np.sort(np.concatenate(firsts))]


def union_cover(sets: Sequence[CoverageSet]) -> CoverageSet:
    """Union of coverage sets; the count is the number of distinct points."""
    bits = 0
    for s in sets:
        bits |= s.bits
    return CoverageSet(bits)


def exclusive_cover(d_sets: Sequence[CoverageSet], e_sets: Sequence[CoverageSet]) -> int:
    """Points covered by the union of d_sets but by none of e_sets."""
    d = 0
    for s in d_sets:
        d |= s.bits
    e = 0
    for s in e_sets:
        e |= s.bits
    return (d & ~e).bit_count()


def parse_points(lines: Iterable[str]) -> list[Point]:
    """Parse the point text format: one "x y" or "x,y" pair per line.

    Lines starting with '#' and blank lines are skipped; indices are assigned
    in line order.  Raises PointFormatError with the offending line number.
    """
    pts: list[Point] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise PointFormatError(line_no, f"expected two coordinates, got {len(parts)}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise PointFormatError(line_no, f"bad number: {exc}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PointFormatError(line_no, "coordinates must be finite")
        pts.append(Point(x, y, len(pts)))
    return pts


def load_points(path: str) -> list[Point]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh)


def save_points(path: str, pts: Sequence[Point]) -> None:
    """Write points in the text format with round-trip (repr) precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pts:
            fh.write(f"{p.x!r} {p.y!r}\n")

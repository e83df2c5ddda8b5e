"""Planar geometric primitives shared by every solver.

The problem domain is fixed-radius (unit) disks over an indexed point set.
Coverage of a disk is represented as a bitset over point indices so that
multi-disk unions and exclusions are single integer operations; all solvers
agree on membership through one closed-disk predicate with a small epsilon,
because candidate disks routinely place points exactly on their boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

# Closed-disk membership slack on the *squared* distance.  Through-pair
# candidate disks put both generating points at squared distance exactly 1;
# this absorbs the float error of constructing those centers.  Coordinates
# are assumed O(1e3) in magnitude, for which 1e-9 absolute slack is safe.
EPS_COVER = 1e-9

# Two points generate through-pair disks only when their distance is at most
# 2 + PAIR_EPS; within PAIR_EPS of exactly 2 the two mirror centers coincide
# and a single midpoint disk is emitted.
PAIR_EPS = 1e-12

# Candidate centers closer than this (per coordinate) are duplicates.
CENTER_DEDUP_EPS = 1e-12


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

    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)


class CoverageSet:
    """Set of covered point indices, stored as an integer bitmask.

    Immutable by convention; ``count`` caches the popcount so comparisons
    during enumeration never re-count bits.
    """

    __slots__ = ("bits", "count")

    def __init__(self, bits: int = 0):
        self.bits = bits
        self.count = bits.bit_count()

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "CoverageSet":
        bits = 0
        for i in ids:
            bits |= 1 << i
        return cls(bits)

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


def coverage_bits_many(disks: Sequence[UnitDisk], pts: Sequence[Point]) -> list[int]:
    """Coverage bitmasks for many disks at once (vectorized per disk).

    Matches ``coverage`` bit-for-bit; only the evaluation order differs.
    """
    if not pts:
        return [0 for _ in disks]
    px = np.fromiter((p.x for p in pts), dtype=np.float64, count=len(pts))
    py = np.fromiter((p.y for p in pts), dtype=np.float64, count=len(pts))
    ids = np.fromiter((p.idx for p in pts), dtype=np.int64, count=len(pts))
    width = int(ids.max()) + 1
    limit = 1.0 + EPS_COVER
    out = []
    mask_arr = np.zeros(width, dtype=bool)
    for d in disks:
        hit = (px - d.cx) ** 2 + (py - d.cy) ** 2 <= limit
        mask_arr[:] = False
        mask_arr[ids[hit]] = True
        packed = np.packbits(mask_arr, bitorder="little").tobytes()
        out.append(int.from_bytes(packed, "little"))
    return out


def candidate_disks(pts: Sequence[Point]) -> list[UnitDisk]:
    """The finite candidate set sufficient for exact coverage maximization.

    For every point, the disk centered on it; for every pair at distance
    0 < d <= 2, the two unit disks whose boundary passes through both points
    (one disk, at the midpoint, when d is 2 within PAIR_EPS).  Any disk can
    be translated until two covered points lie on its boundary or it covers
    at most one point, so some optimal solution of best-k disks uses only
    these candidates.  Near-coincident centers are merged.
    """
    if not pts:
        raise ValueError("candidate_disks requires a non-empty point list")
    centers: list[tuple[float, float]] = [(p.x, p.y) for p in pts]
    if len(pts) >= 2:
        coords = np.array([[p.x, p.y] for p in pts])
        tree = cKDTree(coords)
        pairs = tree.query_pairs(r=2.0 + 1e-9, output_type="ndarray")
        for i, j in pairs:
            ax, ay = pts[i].x, pts[i].y
            bx, by = pts[j].x, pts[j].y
            dx, dy = bx - ax, by - ay
            d2 = dx * dx + dy * dy
            d = math.sqrt(d2)
            if d <= PAIR_EPS or d > 2.0 + PAIR_EPS:
                continue
            mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
            if abs(d - 2.0) <= PAIR_EPS:
                centers.append((mx, my))
                continue
            h = math.sqrt(max(1.0 - d2 / 4.0, 0.0))
            ux, uy = dx / d, dy / d
            centers.append((mx - h * uy, my + h * ux))
            centers.append((mx + h * uy, my - h * ux))
    centers.sort()
    kept: list[tuple[float, float]] = []
    for c in centers:
        if (
            kept
            and abs(c[0] - kept[-1][0]) <= CENTER_DEDUP_EPS
            and abs(c[1] - kept[-1][1]) <= CENTER_DEDUP_EPS
        ):
            continue
        kept.append(c)
    return [UnitDisk(cx, cy) for cx, cy in kept]


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

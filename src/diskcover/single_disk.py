"""Exact single-disk maximum coverage by angular sweep.

An optimal disk can be translated until some covered point lies on its
boundary, so it suffices to anchor each point p on the boundary,
parameterize the center on the unit circle around p, and sweep the arcs
contributed by neighbors within distance 2 (Chazelle & Lee, 1986).  A
KD-tree finds those neighbors, so each anchor only sees the points that a
unit disk through it can reach: O(rho) of them by packing, where rho is the
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.spatial import cKDTree

from .geometry import PAIR_EPS, CoverageSet, Point, UnitDisk, coverage

TWO_PI = 2.0 * math.pi


@dataclass
class SingleDiskResult:
    disk: UnitDisk
    covered: CoverageSet
    rho_witness: int
    # instrumentation: canonical placements the sweep scored
    placements_examined: int = 0


def _neighbor_lists(pts: list[Point]) -> list[list[int]]:
    """Indices of points within distance 2 (+PAIR_EPS) of each point."""
    coords = [(p.x, p.y) for p in pts]
    tree = cKDTree(coords)
    raw = tree.query_ball_point(coords, r=2.0 + 1e-9)
    out: list[list[int]] = []
    r2 = (2.0 + PAIR_EPS) ** 2
    for i, group in enumerate(raw):
        pi = pts[i]
        keep = []
        for j in group:
            if j == i:
                continue
            pj = pts[j]
            if (pi.x - pj.x) ** 2 + (pi.y - pj.y) ** 2 <= r2:
                keep.append(j)
        out.append(keep)
    return out


def _sweep_best(pts: list[Point]) -> tuple[int, float, float, int]:
    """Best (count, cx, cy) over canonical placements, plus placements count.

    For anchor p and neighbor q at distance d, a center at angle a on the
    unit circle around p covers q iff a lies in the closed arc of half-width
    arccos(d/2) centered on the direction p->q.  Sweeping arc endpoints
    (starts before ends at equal angle, matching closed disks) yields the
    densest placement with p on the boundary.  Coincident duplicates of p
    are covered from every angle and enter as a base depth.  Anchors with no
    neighbors contribute the disk centered on the point itself.

    Ties break toward the lexicographically smallest (cx, cy).
    """
    neighbor_lists = _neighbor_lists(pts)
    best_count = -1
    best_cx = best_cy = 0.0
    placements = 0
    for i, p in enumerate(pts):
        placements += 1
        base = 0
        events: list[tuple[float, int, int]] = []
        for j in neighbor_lists[i]:
            q = pts[j]
            dx, dy = q.x - p.x, q.y - p.y
            d = math.hypot(dx, dy)
            if d <= PAIR_EPS:
                base += 1
                continue
            placements += 1
            half = math.acos(min(d / 2.0, 1.0))
            theta = math.atan2(dy, dx)
            a = (theta - half) % TWO_PI
            b = (theta + half) % TWO_PI
            if a <= b:
                events.append((a, 0, 1))
                events.append((b, 1, -1))
            else:
                # arc wraps past 0: split into [a, 2pi] and [0, b]
                events.append((a, 0, 1))
                events.append((TWO_PI, 1, -1))
                events.append((0.0, 0, 1))
                events.append((b, 1, -1))
        if not events:
            count = 1 + base
            if count > best_count or (
                count == best_count and (p.x, p.y) < (best_cx, best_cy)
            ):
                best_count, best_cx, best_cy = count, p.x, p.y
            continue
        events.sort()
        depth = base
        max_depth = -1
        angles: list[float] = []
        for angle, _, delta in events:
            depth += delta
            if delta > 0:
                if depth > max_depth:
                    max_depth = depth
                    angles = [angle]
                elif depth == max_depth:
                    angles.append(angle)
        count = max_depth + 1
        for angle in angles:
            cx = p.x + math.cos(angle)
            cy = p.y + math.sin(angle)
            if count > best_count or (
                count == best_count and (cx, cy) < (best_cx, best_cy)
            ):
                best_count, best_cx, best_cy = count, cx, cy
    return best_count, best_cx, best_cy, placements


def best_disk_sweep(pts: list[Point]) -> SingleDiskResult:
    """Unit disk covering the maximum number of points, by angular sweep."""
    if not pts:
        raise ValueError("best_disk_sweep requires a non-empty point list")
    _, cx, cy, placements = _sweep_best(pts)
    disk = UnitDisk(cx, cy)
    cov = coverage(disk, pts)
    return SingleDiskResult(disk, cov, cov.count, placements_examined=placements)


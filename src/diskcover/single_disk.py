"""Exact single-disk maximum coverage by angular sweep, kept as one anchor table.

An optimal disk can be translated until some covered point lies on its
boundary, so it suffices to anchor each point p on the boundary,
parameterize the center on the unit circle around p, and sweep the arcs
contributed by neighbors within distance 2 (Chazelle & Lee, 1986).  A
KD-tree finds those neighbors, so each anchor only sees the points that a
unit disk through it can reach: O(rho) of them by packing, where rho is the
optimum.

``anchor_table`` runs the sweep of every anchor at once on numpy arrays and
keeps, per anchor, its best placement ``(count, cx, cy)``.  The best disk of
the instance is the best table entry.  Covered points are a boolean mask
over table positions, and ``_cover`` gives the mask of a list of disks.
Point ids must be distinct, so that a count of table positions is a count
of point ids; ``anchor_table`` raises ValueError on a repeated id.
Removing points changes the entry of an anchor only if one of its neighbors
is removed, so ``best_placement`` answers "the best disk on the points
outside ``covered``" by sweeping again only the uncovered anchors that have
a covered neighbor, over their uncovered neighbors, and reading every other
entry from the table.  A greedy step thus costs the few anchors near the
disks already placed, not a sweep of the whole residual instance; and since
the table always describes the full instance, any ``covered`` mask works,
not only a growing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import EPS_COVER, PAIR_EPS, Point, UnitDisk, _distinct_id_order

TWO_PI = 2.0 * math.pi

# Directed neighbor pairs per block of the table's sweep; a block's events
# peak at about 200 bytes per pair.
SWEEP_BLOCK = 4096


@dataclass(frozen=True)
class AnchorTable:
    """The sweep of one instance: its neighbor arcs and each anchor's best.

    Arrays are indexed by position in the point list (``x``, ``y``, ``ids``,
    ``count``, ``cx``, ``cy``) or by directed neighbor pair (``anchor``,
    ``neighbor``, ``dup``, ``start``, ``end``).  A pair's arc is the closed
    range of angles, from ``start`` to ``end`` and wrapping past 0 when
    ``start > end``, at which a center on the unit circle around the anchor
    also covers the neighbor; a duplicate (``dup``) is covered from every
    angle.  ``count`` is the most points a disk with the anchor on its
    boundary covers, and ``(cx, cy)`` the smallest such center.
    """

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    anchor: np.ndarray
    neighbor: np.ndarray
    dup: np.ndarray
    start: np.ndarray
    end: np.ndarray
    count: np.ndarray
    cx: np.ndarray
    cy: np.ndarray


def _math_map(fn, *arrays: np.ndarray) -> np.ndarray:
    # numpy's SIMD hypot, arctan2 and arccos can differ from the C library's
    # (which math calls) in the last ulp, and a moved arc endpoint can move a
    # tie-break.  numpy's cos, sin and float mod matched math on every value
    # tried (x86-64 with AVX-512), so only these three go through math; the
    # reference-loop tests pin the whole pipeline.  A memoryview yields
    # Python floats one at a time, without the list .tolist() would build.
    views = [memoryview(np.ascontiguousarray(a)) for a in arrays]
    return np.fromiter(map(fn, *views), dtype=np.float64, count=len(arrays[0]))


def anchor_table(pts: list[Point]) -> AnchorTable:
    """Sweep every anchor of ``pts`` once and tabulate its best placement.

    The ids of ``pts`` must be distinct; a repeated id raises ValueError.
    """
    if not pts:
        raise ValueError("the sweep requires a non-empty point list")
    ids = np.array([p.idx for p in pts], dtype=np.int64)
    _distinct_id_order(ids)
    x = np.array([p.x for p in pts], dtype=np.float64)
    y = np.array([p.y for p in pts], dtype=np.float64)
    pairs = cKDTree(np.column_stack([x, y])).query_pairs(
        r=2.0 + 1e-9, output_type="ndarray"
    ).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    near = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= (2.0 + PAIR_EPS) ** 2
    i, j = i[near], j[near]
    # a pair's two directions share the distance and the arc half-width, but
    # each takes its own differences: negating one would turn +0.0 into -0.0
    # and atan2(+0.0, -1) = pi into atan2(-0.0, -1) = -pi
    d = _math_map(math.hypot, x[j] - x[i], y[j] - y[i])
    half = np.tile(_math_map(math.acos, np.minimum(d / 2.0, 1.0)), 2)
    dup = np.tile(d <= PAIR_EPS, 2)
    anchor = np.concatenate([i, j])
    neighbor = np.concatenate([j, i])
    theta = _math_map(math.atan2, y[neighbor] - y[anchor], x[neighbor] - x[anchor])
    start = np.mod(theta - half, TWO_PI)
    end = np.mod(theta + half, TWO_PI)
    # sweep in blocks of about SWEEP_BLOCK pairs, cut between anchors, so
    # that the event arrays stay small whatever the instance size
    by_anchor = np.argsort(anchor, kind="stable")
    table = AnchorTable(
        x, y, ids, *(a[by_anchor] for a in (anchor, neighbor, dup, start, end)),
        count=np.ones(len(x), dtype=np.int64), cx=x.copy(), cy=y.copy(),
    )
    anchor = table.anchor
    cuts = np.unique(np.searchsorted(anchor, anchor[::SWEEP_BLOCK])).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [len(anchor)]):
        part = slice(anchor[lo], anchor[hi - 1] + 1)
        for column, swept in zip((table.count, table.cx, table.cy), _sweep(table, slice(lo, hi))):
            column[part] = swept[part]
    return table


def _sweep(table: AnchorTable, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ``(count, cx, cy)`` of every anchor over the pairs ``pairs`` selects.

    Each anchor's arc endpoints are sorted by angle, starts before ends at
    equal angle (closed arcs), and the depth after a start is the number of
    neighbors its angle covers; duplicates of the anchor add a base depth.
    Per anchor, the count is one more than the deepest start, and among the
    starts at that depth the smallest ``(cx, cy)`` wins, the first in angle
    order on exact ties.  An anchor with no arcs keeps the disk centered on
    itself.  Every arc adds +1 and -1 to the depth, so one running sum over
    all anchors' events resets to zero between anchors.
    """
    x, y = table.x, table.y
    anchor, dup = table.anchor[pairs], table.dup[pairs]
    start, end = table.start[pairs], table.end[pairs]
    n = len(x)
    count = 1 + np.bincount(anchor[dup], minlength=n)
    cx, cy = x.copy(), y.copy()
    arc = ~dup
    a_anchor, a_start, a_end = anchor[arc], start[arc], end[arc]
    if not len(a_anchor):
        return count, cx, cy
    # an arc that wraps past 0 is split into [start, 2pi] and [0, end]
    wrap = a_start > a_end
    w_anchor = a_anchor[wrap]
    ev_anchor = np.concatenate([a_anchor, w_anchor, a_anchor, w_anchor])
    ev_angle = np.concatenate(
        [a_start, np.zeros(len(w_anchor)), a_end, np.full(len(w_anchor), TWO_PI)]
    )
    n_starts = len(a_anchor) + len(w_anchor)
    ev_is_end = np.arange(2 * n_starts) >= n_starts
    # sort by (anchor, angle, start before end) in two passes, each cheaper
    # than a lexsort: first by (angle, end bit) as one integer (a float >= 0
    # orders like its bits), then by anchor with that order as the tie-break
    order = np.argsort((ev_angle.view(np.uint64) << np.uint64(1)) | ev_is_end)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    order = np.argsort(ev_anchor * len(order) + rank)
    ev_anchor, ev_angle, ev_is_end = ev_anchor[order], ev_angle[order], ev_is_end[order]
    depth = count[ev_anchor] - 1 + np.cumsum(np.where(ev_is_end, -1, 1))

    s_anchor, s_angle, s_depth = ev_anchor[~ev_is_end], ev_angle[~ev_is_end], depth[~ev_is_end]
    first = np.flatnonzero(np.r_[True, s_anchor[1:] != s_anchor[:-1]])
    swept = s_anchor[first]
    deepest = np.zeros(n, dtype=np.int64)
    deepest[swept] = np.maximum.reduceat(s_depth, first)
    top = s_depth == deepest[s_anchor]
    t_anchor, t_angle = s_anchor[top], s_angle[top]
    t_cx = x[t_anchor] + np.cos(t_angle)
    t_cy = y[t_anchor] + np.sin(t_angle)
    # per anchor, the smallest (cx, cy): the least cx, then the least cy at
    # it.  x + cos(a) and y + sin(a) are never -0.0, so equal values have
    # equal bits and any minimal center is the first one
    t_new = np.r_[True, t_anchor[1:] != t_anchor[:-1]]
    t_first, t_group = np.flatnonzero(t_new), np.cumsum(t_new) - 1
    least_cx = np.minimum.reduceat(t_cx, t_first)
    least_cy = np.minimum.reduceat(
        np.where(t_cx == least_cx[t_group], t_cy, np.inf), t_first
    )
    count[swept] = deepest[swept] + 1
    cx[swept] = least_cx
    cy[swept] = least_cy
    return count, cx, cy


def _cover(table: AnchorTable, disks: list[UnitDisk]) -> np.ndarray:
    """True at each table position whose point one of ``disks`` covers.

    Each disk is ``coverage``'s predicate, in the same float operations, on
    the table's coordinate arrays instead of one point at a time.
    """
    hit = np.zeros(len(table.x), dtype=bool)
    for d in disks:
        dx = table.x - d.cx
        dy = table.y - d.cy
        hit |= dx * dx + dy * dy <= 1.0 + EPS_COVER
    return hit


def best_placement(table: AnchorTable, covered: np.ndarray) -> tuple[int, UnitDisk] | None:
    """The sweep's count and disk on the table's points outside ``covered``.

    ``covered`` is a mask over table positions.  This is exactly what a
    sweep of only the other points returns: the most points, then the
    smallest ``(cx, cy)``, the first anchor on exact ties.  None when every
    point is covered.
    """
    live = ~covered
    if not live.any():
        return None
    # uncovered anchors that lose a neighbor: sweep them again over their
    # uncovered neighbors; every other uncovered anchor keeps its entry
    touched = np.zeros(len(live), dtype=bool)
    touched[table.anchor[~live[table.neighbor]]] = True
    touched &= live
    swept = _sweep(table, touched[table.anchor] & live[table.neighbor])
    count, cx, cy = (
        np.where(touched, new, old) for new, old in zip(swept, (table.count, table.cx, table.cy))
    )
    best = np.flatnonzero(live)
    best = best[count[best] == count[best].max()]
    i = best[np.lexsort((cy[best], cx[best]))[0]]
    return int(count[i]), UnitDisk(float(cx[i]), float(cy[i]))

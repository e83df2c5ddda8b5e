"""Exact single-disk maximum coverage by angular sweep, kept as a lazy anchor table.

An optimal disk can be translated until some covered point lies on its
boundary, so it suffices to anchor each point p on the boundary,
parameterize the center on the unit circle around p, and sweep the arcs
contributed by neighbors within distance 2 (Chazelle & Lee, 1986).  The
neighbors come from the anchor's near list in the instance's
``PointArrays`` record, the other points of it within 2 + PAIR_EPS, so each
anchor only sees the points that a unit disk through it can reach: O(rho)
of them by packing, where rho is the optimum.

``anchor_table`` keeps, per anchor, its best placement ``(count, cx, cy)``.
An anchor covers at most the points of its near list, so each entry starts
at that list's length, an upper bound, and the table fills as
``best_placement`` asks: it sweeps anchors on numpy arrays, in blocks taken
in bound-descending order, and stops at the first block whose bound is
below the best count found so far.  On sparse input most anchors' bound is
below rho and they are never swept.  Covered points are a boolean mask over
the record's rows, as ``geometry.covered_mask`` gives it for a list of
disks; the record's ids are distinct, so a count of rows is a count of
point ids.

``best_placement`` answers "the best disk on the points outside
``covered``".  Removing points changes the entry of an anchor only if one of
its neighbors is removed, so a swept anchor with no covered neighbor reads
its entry from the table; near lists are symmetric, so the covered points'
own lists find the anchors that lost one.  Every other uncovered anchor is
bounded by one more than its uncovered neighbors, and is swept over those
neighbors when that bound reaches the best.  Only a sweep over all of an
anchor's neighbors is stored, so the table always describes the full
instance and any ``covered`` mask works, not only a growing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .geometry import PAIR_EPS, PointArrays, UnitDisk, csr_entries

TWO_PI = 2.0 * math.pi

# Directed neighbor pairs per block of the sweep; a block's events peak at
# about 200 bytes per pair.
SWEEP_BLOCK = 4096


@dataclass(frozen=True)
class AnchorTable:
    """Each anchor's best placement on one instance, filled lazily.

    ``points`` is the instance's record, whose near lists hold each anchor's
    neighbors.  ``count``, ``cx``, ``cy`` and ``swept`` are indexed by its
    rows.  For a ``swept`` anchor, ``count`` is the most points a disk with
    the anchor on its boundary covers, and ``(cx, cy)`` the smallest such
    center.  For any other anchor, ``count`` is an upper bound, the length
    of its near list (1 + its neighbors within REACH, duplicates included),
    and ``(cx, cy)`` is the anchor itself.
    """

    points: PointArrays
    count: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    swept: np.ndarray


def _math_map(fn, *arrays: np.ndarray) -> np.ndarray:
    # numpy's SIMD hypot, arctan2 and arccos can differ from the C library's
    # (which math calls) in the last ulp, and a moved arc endpoint can move a
    # tie-break.  numpy's cos, sin and float mod matched math on every value
    # tried (x86-64 with AVX-512), so only these three go through math; the
    # reference-loop tests pin the whole pipeline.  A memoryview yields
    # Python floats one at a time, without the list .tolist() would build.
    views = [memoryview(np.ascontiguousarray(a)) for a in arrays]
    return np.fromiter(map(fn, *views), dtype=np.float64, count=len(arrays[0]))


def anchor_table(points: PointArrays) -> AnchorTable:
    """The table of ``points``, with every entry at its upper bound.

    ``best_placement`` sweeps the anchors it needs.
    """
    return AnchorTable(
        points,
        count=np.diff(points.near_ptr),
        cx=points.x.copy(),
        cy=points.y.copy(),
        swept=np.zeros(len(points.x), dtype=bool),
    )


def _arcs(points: PointArrays, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dup, start, end)`` of the near-list entries ``at``, (anchor, neighbor) pairs.

    A pair's arc is the closed range of angles, from ``start`` to ``end`` and
    wrapping past 0 when ``start > end``, at which a center on the unit
    circle around the anchor also covers the neighbor; a duplicate (``dup``)
    is covered from every angle.
    """
    x, y = points.x, points.y
    dx = x[points.near[at]] - x[points.near_row[at]]
    dy = y[points.near[at]] - y[points.near_row[at]]
    # each direction of a pair takes its own differences: negating one would
    # turn +0.0 into -0.0 and atan2(+0.0, -1) = pi into atan2(-0.0, -1) = -pi.
    # hypot takes absolute values, so both directions get the same distance
    d = _math_map(math.hypot, dx, dy)
    half = _math_map(math.acos, np.minimum(d / 2.0, 1.0))
    theta = _math_map(math.atan2, dy, dx)
    return d <= PAIR_EPS, np.mod(theta - half, TWO_PI), np.mod(theta + half, TWO_PI)


def _sweep_anchors(
    table: AnchorTable, anchors: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_sweep`` of ``anchors`` over their neighbors inside the mask ``live``.

    An anchor's neighbors are the other points of its near list within
    2 + PAIR_EPS.  The entry of an anchor with no neighbor outside ``live``
    is its sweep over the full instance, and is stored in the table.
    """
    points = table.points
    x, y = points.x, points.y
    at, _ = csr_entries(points.near_ptr, anchors)
    i, j = points.near_row[at], points.near[at]
    at = at[(i != j) & ((x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= (2.0 + PAIR_EPS) ** 2)]
    kept = live[points.near[at]]
    lost = np.bincount(points.near_row[at[~kept]], minlength=len(live))
    swept = _sweep(points, at[kept])
    full = anchors[lost[anchors] == 0]
    for column, new in zip((table.count, table.cx, table.cy), swept):
        column[full] = new[full]
    table.swept[full] = True
    return swept


def _sweep(points: PointArrays, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ``(count, cx, cy)`` of every anchor over the near-list entries ``at``.

    Each anchor's arc endpoints are sorted by angle, starts before ends at
    equal angle (closed arcs), and the depth after a start is the number of
    neighbors its angle covers; duplicates of the anchor add a base depth.
    Per anchor, the count is one more than the deepest start, and among the
    starts at that depth the smallest ``(cx, cy)`` wins, the first in angle
    order on exact ties.  An anchor with no arcs keeps the disk centered on
    itself.  Every arc adds +1 and -1 to the depth, so one running sum over
    all anchors' events resets to zero between anchors.
    """
    x, y = points.x, points.y
    anchor = points.near_row[at]
    dup, start, end = _arcs(points, at)
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
    first = np.flatnonzero(np.concatenate(([True], s_anchor[1:] != s_anchor[:-1])))
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
    t_new = np.concatenate(([True], t_anchor[1:] != t_anchor[:-1]))
    t_first, t_group = np.flatnonzero(t_new), np.cumsum(t_new) - 1
    least_cx = np.minimum.reduceat(t_cx, t_first)
    least_cy = np.minimum.reduceat(
        np.where(t_cx == least_cx[t_group], t_cy, np.inf), t_first
    )
    count[swept] = deepest[swept] + 1
    cx[swept] = least_cx
    cy[swept] = least_cy
    return count, cx, cy


def best_placement(table: AnchorTable, covered: np.ndarray) -> tuple[int, UnitDisk] | None:
    """The sweep's count and disk on the table's points outside ``covered``.

    ``covered`` is a mask over the rows of the table's record.  This is exactly what a
    sweep of only the other points returns: the most points, then the
    smallest ``(cx, cy)``, the first anchor on exact ties.  None when every
    point is covered.  Anchors the answer needs are swept into the table.
    """
    live = ~covered
    if not live.any():
        return None
    # near lists are symmetric, so the covered points' lists count the
    # covered points of every list.  A swept anchor whose list holds none
    # keeps its entry (a covered one's list holds itself); any other
    # uncovered anchor covers at most 1 + its uncovered neighbors
    ptr = table.points.near_ptr
    at, _ = csr_entries(ptr, np.flatnonzero(covered))
    lost = np.bincount(table.points.near[at], minlength=len(live))
    bound = np.diff(ptr) - lost
    known = table.swept & (lost == 0)
    count = np.where(known, table.count, 0)
    cx, cy = table.cx.copy(), table.cy.copy()
    best = count.max()
    todo = np.flatnonzero(live & ~known & (bound >= best))
    todo = todo[np.argsort(-bound[todo], kind="stable")]
    # blocks of about SWEEP_BLOCK pairs, in bound-descending order.  An
    # anchor is swept while its bound is >= the running best, not >: one
    # that can only tie may still win the (cx, cy) tie-break
    block_of = np.cumsum(bound[todo] - 1) // SWEEP_BLOCK
    cuts = (np.flatnonzero(block_of[1:] != block_of[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(todo)]):
        block = todo[lo:hi]
        block = block[bound[block] >= best]
        if not len(block):
            break
        swept = _sweep_anchors(table, block, live)
        for column, new in zip((count, cx, cy), swept):
            column[block] = new[block]
        best = max(best, count[block].max())
    top = np.flatnonzero(count == best)
    i = top[np.lexsort((cy[top], cx[top]))[0]]
    return int(count[i]), UnitDisk(float(cx[i]), float(cy[i]))

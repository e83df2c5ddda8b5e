"""Exact single-disk maximum coverage by angular sweep, kept as a lazy anchor table.

An optimal disk can be translated until some covered point lies on its
boundary, so it suffices to anchor each point p on the boundary,
parameterize the center on the unit circle around p, and sweep the arcs
contributed by neighbors within distance 2 (Chazelle & Lee, 1986).  The
neighbors come from the anchor's near list in the instance's
``PointArrays`` record, the other points of it within 2 + PAIR_EPS, so each
anchor only sees the points that a unit disk through it can reach: O(rho)
of them by packing, where rho is the optimum.

A neighbor's arc runs between the two unit disks through it and the anchor,
which ``geometry.pair_centers`` computes with + - * / and sqrt exactly as
``geometry.candidate_centers`` does, so every disk the sweep returns is a
candidate center, bit for bit.  Arc endpoints are ordered around the anchor
by a pseudo-angle built from abs, + and /: no trigonometry, whose last bit
may differ between libraries and CPUs.

``anchor_table`` keeps, per anchor, its best placement ``(count, cx, cy)``.
An anchor covers at most the points of its near list, so each entry starts
at that list's length, an upper bound, and the table fills as
``best_placement`` asks: it sweeps anchors on numpy arrays, in blocks taken
in bound-descending order, and stops at the first block whose bound is
below the best count found so far.  A block is one pass over its arcs
(``_sweep_anchors``): one comparison sort of their endpoints and one radix
sort by anchor, then one running sum whose per-anchor peak is the count.  On sparse input most anchors' bound is
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

from dataclasses import dataclass

import numpy as np
from .geometry import PAIR_EPS, PointArrays, UnitDisk, csr_entries, pair_centers

# Directed neighbor pairs per block of the sweep; a block's arrays peak at
# about 340 bytes per pair, besides a few arrays of one value per point.
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


def _pseudo_angle(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """A key in [0, 4] that orders the directions (vx, vy) as their angle
    from +x counterclockwise does, from p = vy / (|vx| + |vy|): p on the
    right (vx >= 0), 2 - p on the left, 4 + p below the +x axis; + 0.0
    turns p = -0.0 into 0.0.  Only abs, + - and /, so the key does not
    depend on the platform.
    """
    p = vy / (np.abs(vx) + np.abs(vy))
    return np.where(vx < 0, 2.0 - p, np.where(p < 0, 4.0 + p, p + 0.0))


def _sweep_anchors(
    table: AnchorTable, anchors: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ``(count, cx, cy)`` of each of ``anchors``, all inside the mask
    ``live``, over its neighbors inside ``live``.

    An anchor's neighbors are the other points of its near list within
    2 + PAIR_EPS.  A center on the unit circle around the anchor covers a
    neighbor along the closed arc from the neighbor's center right of the
    direction anchor -> neighbor counterclockwise to the one left of it.  The
    anchor's own entry and each duplicate (d <= PAIR_EPS) add to the anchor's
    base depth, and so does an arc that covers angle 0: its start's
    ``_pseudo_angle`` key is past its end's.  A start's depth is the base
    plus the number of arcs whose closed key range holds its key, so starts
    at one key share it.  The count is an anchor's greatest depth, and the
    disk is the own center of a start at that depth: the least ``(cx, cy)``,
    then the first in near-list order, since formula centers can be equal
    with other bits (a signed zero, from -0.0 in the input).  An anchor with
    no arcs keeps its base and the disk centered on itself.

    The events sort once by (key, start before end), as one integer of the
    key's bits (a float >= 0 orders like its bits), then stably by anchor, a
    radix sort.  Every arc adds +1 and -1, so one running sum over all the
    events returns to zero between anchors.  Within an anchor it peaks only
    at the last start of a run of equal keys, so the peak of its events
    (``np.maximum.reduceat``) is its greatest depth less the base, and the
    starts at that depth are the runs, within the anchor, that end at the
    peak.  The entry of an anchor with no neighbor outside ``live`` is its
    sweep over the full instance, and is stored in the table.
    """
    points = table.points
    x, y = points.x, points.y
    at, lengths = csr_entries(points.near_ptr, anchors)
    group = np.repeat(np.arange(len(anchors), dtype=np.min_scalar_type(len(anchors))), lengths)
    anchor, other = np.repeat(anchors, lengths), points.near[at]
    d, (ex, ey), (sx, sy) = pair_centers(x, y, anchor, other)
    reach = d <= 2.0 + PAIR_EPS
    kept = reach & live[other]
    lost = np.bincount(group[reach & ~kept], minlength=len(anchors))
    dup = kept & (d <= PAIR_EPS)
    count = np.bincount(group[dup], minlength=len(anchors))
    cx, cy = x[anchors], y[anchors]
    arc = np.flatnonzero(kept & ~dup)
    if len(arc):
        m, g = len(arc), group[arc]
        sx, sy, xa, ya = sx[arc], sy[arc], x[anchor[arc]], y[anchor[arc]]
        key = _pseudo_angle(
            np.concatenate((sx - xa, ex[arc] - xa)), np.concatenate((sy - ya, ey[arc] - ya))
        )
        bits = (key.view(np.uint64) << np.uint64(1)) | (np.arange(2 * m) >= m)
        order = np.argsort(bits)
        ev = order[np.argsort(np.concatenate((g, g))[order], kind="stable")]
        depth = np.cumsum(np.where(ev < m, 1, -1))
        # the anchors with arcs: where their arcs, and their events, begin
        heads = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
        begin = 2 * heads
        peak = np.maximum.reduceat(depth, begin)
        top = np.flatnonzero(depth == np.repeat(peak, 2 * np.diff(heads, append=m)))
        # each start at a peak ends its run of equal keys; walk back over
        # the run's other starts, within the anchor's events
        runs, at_key = [top], bits[ev[top]]
        first = begin[np.searchsorted(begin, top, side="right") - 1]
        while True:
            top = top - 1
            same = (top >= first) & (bits[ev[top]] == at_key)
            if not same.any():
                break
            top, first, at_key = top[same], first[same], at_key[same]
            runs.append(top)
        # of each anchor's starts at its peak, the least (cx, cy), then the
        # first arc, which is the first in near-list order
        start = ev[np.concatenate(runs)]
        start = start[np.lexsort((start, sy[start], sx[start], g[start]))]
        start = start[np.concatenate(([True], g[start][1:] != g[start][:-1]))]
        swept = g[heads]
        count[swept] += np.add.reduceat(key[:m] > key[m:], heads, dtype=np.int64) + peak
        cx[swept], cy[swept] = sx[start], sy[start]
    full = lost == 0
    keep = anchors[full]
    table.count[keep], table.cx[keep], table.cy[keep] = count[full], cx[full], cy[full]
    table.swept[keep] = True
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
    # bound-descending, ties in row order: a stable radix sort of the
    # distance below the largest bound, in the smallest unsigned dtype
    most = bound.max()
    todo = todo[np.argsort((most - bound[todo]).astype(np.min_scalar_type(most)), kind="stable")]
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
        count[block], cx[block], cy[block] = _sweep_anchors(table, block, live)
        best = max(best, count[block].max())
    top = np.flatnonzero(count == best)
    i = top[np.lexsort((cy[top], cx[top]))[0]]
    return int(count[i]), UnitDisk(float(cx[i]), float(cy[i]))

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
sort by anchor, then one running sum whose per-anchor peak is the count.
The list length spans about four disks' worth of area, so once a best is
known and the anchors left hold more than one block's pairs, their bounds
are first tightened by far-side exclusion (``_far_side_bound``): a disk
through the anchor has its center in some closed quadrant around it, and
covers no neighbor more than REACH/2 beyond the anchor on the two sides
that quadrant faces away from.  On sparse input most anchors' bound is
below rho and they are never swept: on ``generate(5000, 100, 101)`` the
first disk sweeps 430 of 5,000 anchors, 952 with the list lengths alone.
Covered points are a boolean mask over the record's rows, as
``geometry.covered_mask`` gives it for a list of disks; the record's ids
are distinct, so a count of rows is a count of point ids.

``best_placement`` answers "the best disk on the points outside
``covered``".  Removing points changes the entry of an anchor only if one of
its neighbors is removed, so a swept anchor with no covered neighbor reads
its entry from the table; near lists are symmetric, so the covered points'
own lists find the anchors that lost one.  Every other uncovered anchor is
bounded by one more than its uncovered neighbors, or by their far-side
bound, and is swept over those neighbors when that bound reaches the best.
Only a sweep over all of an anchor's neighbors is stored, so the table
always describes the full instance and any ``covered`` mask works, not only
a growing one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .geometry import PAIR_EPS, REACH, PointArrays, UnitDisk, csr_entries, pair_centers

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
    and ``(cx, cy)`` is the anchor itself.  The tighter far-side bounds of
    ``best_placement`` depend on the covered points and are not stored.
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


def _far_side_bound(table: AnchorTable, anchors: np.ndarray, live: np.ndarray) -> np.ndarray:
    """An upper bound on the count of each of ``anchors`` over its neighbors
    inside ``live``, at most the number of its live entries.

    A disk with the anchor a on its boundary has its center c on the unit
    circle around a.  A neighbor q that a center east of a (c_x >= a_x)
    covers has q_x - a_x >= -1, the least at |q - a| = sqrt 2 with c
    straight north or south of a; so such a disk covers no neighbor more
    than REACH/2 west of a, and the same holds for the other three sides.
    Every center lies in a closed quadrant around a, north-east, north-west,
    south-west or south-east, so the count is at most the most live entries
    that one quadrant's disks can still reach: for north-east, those
    neither more than REACH/2 west nor more than REACH/2 south of a.  The
    margin REACH/2 - 1 = 1e-6 absorbs the rounding of the sweep's arc ends,
    about 1e-16 times the coordinates, while they stay below about 1e9.
    """
    points = table.points
    at, lengths = csr_entries(points.near_ptr, anchors)
    other = points.near[at]
    dx = points.x[other] - np.repeat(points.x[anchors], lengths)
    dy = points.y[other] - np.repeat(points.y[anchors], lengths)
    # the live entries that a center east or west of the anchor can still
    # cover, and the entries a center north or south of it can
    ok = live[other]
    east, west = ok & (dx >= -REACH / 2), ok & (dx <= REACH / 2)
    north, south = dy >= -REACH / 2, dy <= REACH / 2
    heads = np.cumsum(lengths) - lengths
    return np.max(
        [
            np.add.reduceat(side.view(np.int8), heads, dtype=np.int32)
            for side in (east & north, west & north, west & south, east & south)
        ],
        axis=0,
    )


def _highest_first(todo: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``todo`` by descending ``bound``, ties in row order: a stable radix
    sort of the distance below the largest bound, in the smallest unsigned
    dtype."""
    most = bound.max()
    return todo[np.argsort((most - bound[todo]).astype(np.min_scalar_type(most)), kind="stable")]


def best_placement(table: AnchorTable, covered: np.ndarray) -> tuple[int, UnitDisk] | None:
    """The sweep's count and disk on the table's points outside ``covered``.

    ``covered`` is a mask over the rows of the table's record.  This is exactly what a
    sweep of only the other points returns: the most points, then the
    smallest ``(cx, cy)``, the first anchor on exact ties.  None when every
    point is covered.  Anchors the answer needs are swept into the table.

    Anchors are swept in blocks of about SWEEP_BLOCK pairs, highest bound
    first, while their bound reaches the best so far.  Once there is a best
    and the anchors left hold more than one block's pairs, their bounds are
    first tightened by ``_far_side_bound``, once: in the first step after
    the first block, in a later step before any block.
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
    # a block's size is its anchors' live pairs, whatever bounds them
    pairs = bound - 1
    known = table.swept & (lost == 0)
    count = np.where(known, table.count, 0)
    cx, cy = table.cx.copy(), table.cy.copy()
    best = count.max()
    todo = _highest_first(np.flatnonzero(live & ~known & (bound >= best)), bound)
    tightened = False
    # an anchor is swept while its bound is >= the running best, not >: one
    # that can only tie may still win the (cx, cy) tie-break
    while len(todo):
        total = np.cumsum(pairs[todo])
        if best and not tightened and total[-1] > SWEEP_BLOCK:
            tightened = True
            bound[todo] = _far_side_bound(table, todo, live)
            todo = _highest_first(todo[bound[todo] >= best], bound)
            continue
        size = max(1, np.searchsorted(total, SWEEP_BLOCK))
        block, todo = todo[:size], todo[size:]
        count[block], cx[block], cy[block] = _sweep_anchors(table, block, live)
        best = max(best, count[block].max())
        todo = todo[bound[todo] >= best]
    top = np.flatnonzero(count == best)
    i = top[np.lexsort((cy[top], cx[top]))[0]]
    return int(count[i]), UnitDisk(float(cx[i]), float(cy[i]))

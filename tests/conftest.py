"""Shared helpers for building point sets in tests."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from diskcover import Point, UnitDisk
from diskcover.geometry import PAIR_EPS, candidate_centers, point_arrays
from diskcover.rng import Xoshiro256StarStar

# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow shared host can neither flake nor change Tier-1.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def make_points(coords):
    """Point list from (x, y) tuples, ids in order."""
    return [Point(float(x), float(y), i) for i, (x, y) in enumerate(coords)]


def candidates(pts):
    """The candidate disks of ``pts``, in ``candidate_centers`` order."""
    cx, cy, _ = candidate_centers(point_arrays(pts))
    return [UnitDisk(x, y) for x, y in zip(cx.tolist(), cy.tolist())]


def reference_candidate_centers(pts):
    """Oracle: the per-pair loop that defines the candidate centers.

    Point centers, then the two centers of each KD-tree pair at distance
    PAIR_EPS < d <= 2 + PAIR_EPS, sorted, each skipped when it equals the
    last kept center.
    """
    centers = [(p.x, p.y) for p in pts]
    if len(pts) >= 2:
        coords = np.array([[p.x, p.y] for p in pts])
        pairs = cKDTree(coords).query_pairs(r=2.0 + 1e-9, output_type="ndarray")
        for i, j in pairs:
            ax, ay = pts[i].x, pts[i].y
            bx, by = pts[j].x, pts[j].y
            dx, dy = bx - ax, by - ay
            d2 = dx * dx + dy * dy
            d = math.sqrt(d2)
            if d <= PAIR_EPS or d > 2.0 + PAIR_EPS:
                continue
            mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
            h = math.sqrt(max(1.0 - d2 / 4.0, 0.0))
            ux, uy = dx / d, dy / d
            centers.append((mx - h * uy, my + h * ux))
            centers.append((mx + h * uy, my - h * ux))
    centers.sort()
    kept = []
    for c in centers:
        if not kept or c != kept[-1]:
            kept.append(c)
    return kept


def uniform_points(seed, n, lo, hi):
    """n points uniform in [lo, hi]^2 from the package RNG (x then y).

    Each coordinate is ``lo + (hi - lo) * u``, the operations of
    ``uniform``, on one batched draw, so the points are those of 2n
    ``uniform(lo, hi)`` calls.
    """
    u = lo + (hi - lo) * Xoshiro256StarStar(seed).random_array(2 * n)
    return list(map(Point, u[0::2].tolist(), u[1::2].tolist(), range(n)))


# Lattice coordinates (a 3 x 3 lattice, so they repeat often) give duplicate
# points and pairs at distance exactly 2; the jitter, a multiple of 4e-13,
# gives points and centers within about 1e-12 of one another, and pairs
# that close to distance 2.
_coord = st.one_of(
    st.integers(-1, 1).map(float),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
_jitter = st.integers(-4, 4).map(lambda k: k * 4e-13)


@st.composite
def point_sets(draw, min_size=0, max_size=24):
    """Hypothesis point lists: lattice and free coordinates, near-coincident
    jitter, a common translation up to 1e6, and ids that are distinct but
    neither contiguous nor sorted, as a neighborhood subset has."""
    raw = draw(
        st.lists(st.tuples(_coord, _coord, _jitter, _jitter), min_size=min_size, max_size=max_size)
    )
    ox = draw(st.sampled_from([0.0, 0.0, 1e3, -37.25, 1e6]))
    oy = draw(st.sampled_from([0.0, 0.0, -1e3, 512.5, 1e6]))
    ids = draw(st.permutations(range(3 * len(raw))))[: len(raw)]
    return [
        Point(x + jx + ox, y + jy + oy, i) for (x, y, jx, jy), i in zip(raw, ids)
    ]


@pytest.fixture
def rng_factory():
    return Xoshiro256StarStar

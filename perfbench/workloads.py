"""The benchmark's workloads: which public call is timed, on which instances,
and which independent computation its answer is checked against.

Every workload is a closed loop of one call at a time on instances from
``diskcover.generate(n, side, seed)``.  The call under test only ever receives
the points.  Its answer is checked against a different code path, never
against itself: ``solve`` against the pruned enumeration (and its ``rho``
against the angular sweep), ``most_points`` against ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import diskcover

# Same closed-disk slack as the library's EPS_COVER, kept here so the recount
# of a returned answer does not go through the code it checks.
RECOUNT_EPS = 1e-9


@dataclass(frozen=True)
class Answer:
    """What an op returned, reduced to the values the benchmark checks."""

    covered: int
    rho: int | None  # the single-disk optimum; solve only
    combos: int  # combos_evaluated, the paper's cost metric
    centers: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Reference:
    covered: int
    rho: int | None


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    side: float
    m: int
    pool: int  # instances generated per run; ops cycle through them
    call: Callable[[list, int], Any]  # the timed op
    reference: Callable[[list, int], Reference]


def call_solve(pts, m):
    return diskcover.solve(pts, m)


def call_baseline_enum(pts, m):
    # as harness.bench scores its baseline column
    return diskcover.most_points(pts, m, dedup=False)


def call_oracle(pts, m):
    # the oracle of verify and bench --sample-baseline
    return diskcover.most_points(pts, m, dedup=True, prune=True)


def reference_by_enumeration(pts, m) -> Reference:
    """Optimum by pruned enumeration; rho by the angular sweep (k=1)."""
    covered = diskcover.most_points(pts, m, dedup=True, prune=True).covered.count
    rho = diskcover.most_points(pts, 1).covered.count
    return Reference(covered, rho)


def reference_by_solve(pts, m) -> Reference:
    return Reference(diskcover.solve(pts, m).covered.count, None)


def answer_of(result) -> Answer:
    """Answer of a Solution (solve) or a MultiDiskResult (most_points)."""
    centers = tuple((d.cx, d.cy) for d in result.disks)
    if hasattr(result, "total_combos"):
        return Answer(result.covered.count, result.rho, result.total_combos, centers)
    return Answer(result.covered.count, None, result.stats.combos_evaluated, centers)


def recount(pts, centers) -> int:
    """Points within distance 1 (closed) of any center, counted with numpy."""
    xy = np.array([(p.x, p.y) for p in pts], dtype=np.float64)
    hit = np.zeros(len(pts), dtype=bool)
    for cx, cy in centers:
        hit |= (xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2 <= 1.0 + RECOUNT_EPS
    return int(hit.sum())


def verdict(answer: Answer, ref: Reference, pts) -> str | None:
    """Why ``answer`` is wrong for instance ``pts``, or None if it is right."""
    if answer.covered != ref.covered:
        return f"covered {answer.covered}, reference {ref.covered}"
    if ref.rho is not None and answer.rho != ref.rho:
        return f"rho {answer.rho}, reference {ref.rho}"
    realized = recount(pts, answer.centers)
    if realized != answer.covered:
        return f"claims {answer.covered} covered, its disks cover {realized}"
    return None


def instance_seed(seed: int, i: int) -> int:
    """Seed of the i-th instance of a run with workload seed ``seed``."""
    return seed * 10_000 + i


# Pool sizes: a run samples as many distinct instances as its time allows.
# The per-instance cost of dense-solve-m3 is heavy-tailed (the m=3 combo
# count grows with about the sixth power of the neighborhood size), so that
# workload uses small instances and a large pool; the others vary little
# from instance to instance.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-solve-m2", 5000, 100.0, 2, 8, call_solve, reference_by_enumeration),
        Workload("dense-solve-m3", 64, 10.0, 3, 512, call_solve, reference_by_enumeration),
        Workload("baseline-enum-m2", 300, 20.0, 2, 24, call_baseline_enum, reference_by_solve),
        Workload("oracle-pruned-m2", 5000, 100.0, 2, 8, call_oracle, reference_by_solve),
    )
}

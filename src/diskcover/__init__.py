"""Exact maximum-coverage of planar points by m unit disks.

Library layout:
  geometry     points, disks, the one point record per call (coordinates,
               ids, near lists), packed coverage words, the candidate set
  single_disk  exact single-disk optimum (angular sweep, one anchor table)
  exact        exact best-k disks by candidate enumeration
  solver       output-sensitive exact solver (greedy + neighborhood re-solve)
  harness      reproducible instances, benchmark, self-verification
  rng          fixed splitmix64/xoshiro256** generator

Point ids must be distinct and non-negative: ``solve``, ``greedy_solve`` and
``most_points`` raise ValueError on a negative or repeated id.
``solve(pts, 1)`` is the single-disk optimum.
"""

from .exact import ExactSolveStats, MultiDiskResult, most_points
from .geometry import (
    EPS_COVER,
    CoverageSet,
    Point,
    PointFormatError,
    UnitDisk,
    coverage,
    covers,
    exclusive_cover,
    load_points,
    parse_points,
    save_points,
    union_cover,
)
from .harness import (
    BenchRecord,
    BenchmarkError,
    Instance,
    VerificationReport,
    bench,
    generate,
    verify,
    write_bench_csv,
    write_bench_json,
)
from .rng import Xoshiro256StarStar, splitmix64
from .solver import (
    NEIGHBOR_RADIUS,
    IterationTrace,
    Solution,
    greedy_solve,
    neighbor_points,
    solve,
)

__all__ = [
    "EPS_COVER",
    "NEIGHBOR_RADIUS",
    "BenchRecord",
    "BenchmarkError",
    "CoverageSet",
    "ExactSolveStats",
    "Instance",
    "IterationTrace",
    "MultiDiskResult",
    "Point",
    "PointFormatError",
    "Solution",
    "UnitDisk",
    "VerificationReport",
    "Xoshiro256StarStar",
    "bench",
    "coverage",
    "covers",
    "exclusive_cover",
    "generate",
    "greedy_solve",
    "load_points",
    "most_points",
    "neighbor_points",
    "parse_points",
    "save_points",
    "solve",
    "splitmix64",
    "union_cover",
    "verify",
    "write_bench_csv",
    "write_bench_json",
]

__version__ = "0.1.0"

"""Instance generation, benchmarking, and self-verification.

The benchmark compares the cost metric of the two exact multi-disk solvers:
the number of complete disk combinations ("pairs" for m=2) each one scores.
The baseline enumerates candidate pairs over the whole instance; the
output-sensitive solver only enumerates inside greedy neighborhoods, so its
pair count tracks the single-disk optimum instead of n.  Coverage values of
the two solvers are hard-asserted equal on every record.

Instances are drawn uniformly from a square with the package's fixed
splitmix64/xoshiro256** generator, so identical (n, side, seed) arguments
reproduce identical points in any environment.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields

from .exact import most_points
from .geometry import Point, candidate_centers, point_arrays
from .rng import Xoshiro256StarStar
from .solver import solve

class BenchmarkError(RuntimeError):
    """A benchmark record failed; message identifies the (n, side, seed)."""


@dataclass
class Instance:
    points: list[Point]


@dataclass
class BenchRecord:
    n: int
    side: float
    rho: int
    pairs_baseline: int
    pairs_ours: int
    cover_baseline: int
    cover_ours: int
    time_baseline_ms: float
    time_ours_ms: float
    seed: int


BENCH_FIELDS = [f.name for f in fields(BenchRecord)]

TIMING_FIELDS = ("time_baseline_ms", "time_ours_ms")


@dataclass
class VerificationReport:
    trials_requested: int
    trials_run: int
    passes: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.trials_run > 0


def check_generate_args(n: int, side: float) -> None:
    """Raise ValueError unless ``generate`` accepts this n and side."""
    if n < 1:
        raise ValueError("generate requires n >= 1")
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"generate requires a finite side > 0, got {side}")


def check_bench_args(m: int, sample_baseline: int | None) -> None:
    """Raise ValueError unless ``bench`` accepts this m and sample_baseline."""
    if m < 1:
        raise ValueError("bench requires m >= 1")
    if sample_baseline is not None and sample_baseline < 0:
        raise ValueError(f"bench requires sample_baseline >= 0, got {sample_baseline}")


def generate(n: int, side: float, seed: int) -> Instance:
    """n points i.i.d. uniform in [0, side]^2, deterministic in the seed.

    Draw order is fixed: x then y per point, points in index order, each
    coordinate ``rng.random() * side``.  The 2n doubles come from one
    ``random_array`` call and are scaled in numpy, which gives the same
    bits as drawing and multiplying them one at a time.
    """
    check_generate_args(n, side)
    u = Xoshiro256StarStar(seed).random_array(2 * n) * side
    return Instance(list(map(Point, u[0::2].tolist(), u[1::2].tolist(), range(n))))


def bench(
    configs: list[tuple[int, float]],
    seeds: list[int],
    m: int = 2,
    sample_baseline: int | None = None,
) -> list[BenchRecord]:
    """Run baseline and output-sensitive solver on every config x seed.

    ``sample_baseline`` caps the baseline's enumeration cost: when the
    candidate count exceeds the cap, the baseline optimum is computed through
    the (provably value-preserving) dedup+prune path while pairs_baseline is
    still reported as the count the faithful enumeration would score:
    C(candidates, m), or 1 (the padded solution) when m >= candidates.
    Coverage equality is asserted on every record either way.
    """
    if not configs or not seeds:
        raise ValueError("bench requires at least one config and one seed")
    check_bench_args(m, sample_baseline)
    records = []
    for n, side in sorted(configs):
        for seed in sorted(seeds):
            try:
                inst = generate(n, side, seed)
                records.append(_bench_one(inst.points, n, side, seed, m, sample_baseline))
            except BenchmarkError:
                raise
            except Exception as exc:
                raise BenchmarkError(
                    f"config n={n} side={side} seed={seed}: {exc}"
                ) from exc
    records.sort(key=lambda r: (r.n, r.side, r.seed))
    return records


def _bench_one(
    pts: list[Point],
    n: int,
    side: float,
    seed: int,
    m: int,
    sample_baseline: int | None,
) -> BenchRecord:
    t0 = time.perf_counter()
    ours = solve(pts, m)
    time_ours = (time.perf_counter() - t0) * 1000.0

    # the choice is not part of the baseline's time
    fast = sample_baseline is not None and (
        len(candidate_centers(point_arrays(pts))[0]) > sample_baseline
    )
    t0 = time.perf_counter()
    baseline = most_points(pts, m, dedup=fast, prune=fast)
    # the faithful enumeration scores exactly this many combinations
    n_candidates = baseline.stats.candidates_generated
    pairs_baseline = math.comb(n_candidates, m) if m < n_candidates else 1
    time_baseline = (time.perf_counter() - t0) * 1000.0

    if baseline.covered.count != ours.covered.count:
        raise BenchmarkError(
            f"config n={n} side={side} seed={seed}: coverage mismatch "
            f"(baseline {baseline.covered.count}, ours {ours.covered.count})"
        )
    return BenchRecord(
        n=n,
        side=side,
        rho=ours.rho,
        pairs_baseline=pairs_baseline,
        pairs_ours=ours.total_combos,
        cover_baseline=baseline.covered.count,
        cover_ours=ours.covered.count,
        time_baseline_ms=time_baseline,
        time_ours_ms=time_ours,
        seed=seed,
    )


def write_bench_csv(records: list[BenchRecord], path: str) -> None:
    """Fixed schema: header matches the record fields, '.' decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_FIELDS)
        for r in records:
            writer.writerow(astuple(r))


def write_bench_json(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in records], fh, indent=2)
        fh.write("\n")


def verify(
    trials: int,
    n_max: int,
    m_max: int,
    seed: int,
    max_seconds: float | None = None,
) -> VerificationReport:
    """Randomized self-check of the output-sensitive solver.

    Per trial: draw a small instance, assert the solver's coverage equals the
    optimum of ``most_points``, which enumerates the candidate set for every
    m (m=1 too, so the single-disk sweep is checked against an independent
    path), and assert the neighborhood packing bound (neighborhood size
    <= 21 * rho * (i - 1)) on every iteration.  Failures carry a reproducer
    (seed, n, m, side), side at full (repr) precision, so
    ``generate(n, side, seed)`` rebuilds the instance.  ``max_seconds``
    (positive and finite) stops early on a time budget.
    """
    if trials < 1 or n_max < 1 or m_max < 1:
        raise ValueError("verify requires positive trials, n_max, m_max")
    if max_seconds is not None and not (math.isfinite(max_seconds) and max_seconds > 0):
        raise ValueError(f"verify requires a positive finite max_seconds, got {max_seconds}")
    rng = Xoshiro256StarStar(seed)
    report = VerificationReport(trials_requested=trials, trials_run=0, passes=0)
    t_start = time.perf_counter()
    for _ in range(trials):
        if max_seconds is not None and time.perf_counter() - t_start > max_seconds:
            break
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_max)
        side = rng.uniform(1.0, 3.0 * math.sqrt(n))
        inst_seed = rng.next_u64()
        inst = generate(n, side, inst_seed)
        tag = f"seed={inst_seed} n={n} m={m} side={side!r}"
        report.trials_run += 1

        sol = solve(inst.points, m, prune=True)
        opt = most_points(inst.points, m, dedup=True, prune=True)
        if sol.covered.count != opt.covered.count:
            report.failures.append(
                f"{tag}: solver covered {sol.covered.count}, optimum {opt.covered.count}"
            )
            continue
        bound_bad = False
        for tr in sol.traces:
            if tr.neighborhood_size > 21 * sol.rho * (tr.i - 1):
                report.failures.append(
                    f"{tag}: neighborhood {tr.neighborhood_size} exceeds "
                    f"21*rho*(i-1) = {21 * sol.rho * (tr.i - 1)} at i={tr.i}"
                )
                bound_bad = True
                break
        if bound_bad:
            continue
        report.passes += 1
    return report

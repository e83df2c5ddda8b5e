"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import statistics

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from diskcover import (
    CoverageSet,
    UnitDisk,
    bench,
    covers,
    exclusive_cover,
    generate,
    greedy_solve,
    most_points,
    solve,
    union_cover,
    write_bench_csv,
)
from diskcover.geometry import (
    candidate_centers,
    coverage_rows,
    packed_coverage,
    point_arrays,
    unpack_coverage,
)
from diskcover.harness import TIMING_FIELDS
from diskcover.rng import Xoshiro256StarStar

from conftest import reference_candidate_centers, uniform_points

SMALL_CORPUS_SIZE = 500
SMALL_CORPUS_SEED = 20240901

REFERENCE_CONFIGS = [(1000, 200.0), (1000, 100.0), (500, 100.0)]
BENCH_SEEDS = [101, 102, 103, 104, 105]
SIDE200_MIN_RATIO = 5.0

MILP_CORPUS_SIZE = 40
MILP_CORPUS_SEED = 9


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")


@pytest.fixture(scope="session")
def small_corpus():
    """>= 500 random instances with n in [2, 25] and m in {1, 2, 3}.

    Each entry carries the output-sensitive solution, the enumeration
    optimum, and the plain greedy value for the same instance.
    """
    rng = Xoshiro256StarStar(SMALL_CORPUS_SEED)
    corpus = []
    for _ in range(SMALL_CORPUS_SIZE):
        n = rng.randint(2, 25)
        m = rng.randint(1, 3)
        side = rng.uniform(1.0, 3.0 * math.sqrt(n))
        seed = rng.next_u64()
        pts = generate(n, side, seed).points
        sol = solve(pts, m, prune=True)
        opt = most_points(pts, m, dedup=True, prune=True).covered.count
        grd = greedy_solve(pts, m).covered.count
        corpus.append((n, m, seed, sol, opt, grd))
    return corpus


@pytest.fixture(scope="session")
def bench_records():
    return bench(REFERENCE_CONFIGS, seeds=BENCH_SEEDS, m=2)


def test_criterion_1_solver_matches_enumeration_optimum(small_corpus):
    bad = [
        (n, m, seed, sol.covered.count, opt)
        for n, m, seed, sol, opt, _ in small_corpus
        if sol.covered.count != opt
    ]
    _verdict(
        1,
        not bad,
        f"output-sensitive coverage == enumeration optimum on "
        f"{len(small_corpus)} instances (n in [2,25], m in 1..3)",
    )
    assert not bad, bad[:5]


def test_criterion_2_single_disk_equivalence():
    # oracle: the best popcount over the full candidate set, which holds an
    # optimal disk by the translation argument
    rng = Xoshiro256StarStar(7151)
    instances = []
    for _ in range(140):
        n = rng.randint(2, 500)
        side = rng.uniform(math.sqrt(n), 4.0 * math.sqrt(n))
        instances.append((n, side, rng.next_u64()))
    for _ in range(60):
        n = rng.randint(2, 60)
        side = rng.uniform(2.0, 8.0)
        instances.append((n, side, rng.next_u64()))
    bad = []
    for n, side, seed in instances:
        pts = uniform_points(seed, n, 0.0, side)
        swept = solve(pts, 1).rho
        points = point_arrays(pts)
        indptr, cols = coverage_rows(*candidate_centers(points), points)
        words, gids, _ = packed_coverage(indptr, cols, np.arange(len(indptr) - 1), points)
        brute = max(unpack_coverage(row, gids).count for row in words)
        if swept != brute:
            bad.append((n, side, seed, swept, brute))
    _verdict(
        2,
        not bad,
        f"sweep == candidate brute force on all {len(instances)} instances (n <= 500)",
    )
    assert not bad, bad[:5]


def test_criterion_3_neighborhood_packing_bound(small_corpus, bench_records):
    violations = []
    solutions = 0
    for n, m, seed, sol, _, _ in small_corpus:
        solutions += 1
        for tr in sol.traces:
            if tr.neighborhood_size > 21 * sol.rho * (tr.i - 1):
                violations.append(("corpus", n, m, seed, tr.i))
    for r in bench_records:
        sol = solve(generate(r.n, r.side, r.seed).points, 2)
        solutions += 1
        for tr in sol.traces:
            if tr.neighborhood_size > 21 * sol.rho * (tr.i - 1):
                violations.append(("bench", r.n, r.side, r.seed, tr.i))
    _verdict(
        3,
        not violations,
        f"neighborhood size <= 21*rho*(i-1) at every iteration of "
        f"{solutions} solves",
    )
    assert not violations, violations[:5]


def test_criterion_4_pair_count_direction(bench_records):
    summaries = []
    ok = True
    for n, side in REFERENCE_CONFIGS:
        rows = [r for r in bench_records if r.n == n and r.side == side]
        assert len(rows) == len(BENCH_SEEDS)
        med_base = statistics.median(r.pairs_baseline for r in rows)
        med_ours = statistics.median(r.pairs_ours for r in rows)
        ratio = med_base / max(med_ours, 1)
        summaries.append(f"n={n} side={side:g}: {med_base:.0f}/{med_ours:.0f} (x{ratio:.0f})")
        if med_ours >= med_base:
            ok = False
        if side == 200.0 and ratio <= SIDE200_MIN_RATIO:
            ok = False
    _verdict(
        4,
        ok,
        "median baseline pairs vs ours: " + "; ".join(summaries)
        + f"; side=200 ratio must exceed {SIDE200_MIN_RATIO:g} "
        "(absolute counts are seed- and generator-dependent; direction and band only)",
    )
    assert ok, summaries


def test_criterion_5_benchmark_coverage_equality(bench_records):
    bad = [r for r in bench_records if r.cover_baseline != r.cover_ours]
    _verdict(
        5,
        not bad,
        f"cover_baseline == cover_ours on all {len(bench_records)} records",
    )
    assert not bad


def test_criterion_6_coverage_set_identities():
    rng = Xoshiro256StarStar(606060)
    n_pairs = 100_000
    bad = 0
    for _ in range(n_pairs):
        d = [CoverageSet(rng.next_u64() & rng.next_u64())]
        e = [CoverageSet(rng.next_u64() & rng.next_u64())]
        if exclusive_cover(d, e) > union_cover(d).count:
            bad += 1
        elif union_cover(d + e).count != union_cover(d).count + exclusive_cover(e, d):
            bad += 1
        elif union_cover(d + e).count > union_cover(d).count + union_cover(e).count:
            bad += 1
    _verdict(6, bad == 0, f"set-algebra identities hold on {n_pairs} random pairs")
    assert bad == 0


def test_criterion_7_greedy_approximation_bound(small_corpus):
    floor = 1.0 - 1.0 / math.e
    bad = [
        (n, m, seed, grd, opt)
        for n, m, seed, _, opt, grd in small_corpus
        if grd < floor * opt - 1e-9
    ]
    _verdict(
        7,
        not bad,
        f"greedy >= (1 - 1/e) * optimum on all {len(small_corpus)} instances",
    )
    assert not bad, bad[:5]


def test_criterion_8_bench_determinism(tmp_path):
    args = dict(configs=[(100, 20.0), (60, 12.0)], seeds=[1, 2, 3], m=2)
    p1 = str(tmp_path / "run1.csv")
    p2 = str(tmp_path / "run2.csv")
    write_bench_csv(bench(**args), p1)
    write_bench_csv(bench(**args), p2)

    def strip_timing(path):
        with open(path) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        keep = [i for i, h in enumerate(rows[0]) if h not in TIMING_FIELDS]
        return [[row[i] for i in keep] for row in rows]

    same = strip_timing(p1) == strip_timing(p2)
    _verdict(8, same, "repeated bench runs emit identical CSV (timing columns excluded)")
    assert same


def _recount(disks, pts):
    """Points covered by some disk, counted by the reference predicate."""
    return sum(any(covers(d, p) for d in disks) for p in pts)


def _milp_optimum(pts, m):
    """(recount, bound): a HiGHS solution of the max-coverage MILP over the
    reference candidate set, recounted by ``covers``, and HiGHS's bound.

    Binary x_c per candidate with sum x <= m, y_p in [0, 1] with
    y_p <= sum of the x_c whose disk covers p; maximize sum y.
    """
    disks = [UnitDisk(x, y) for x, y in reference_candidate_centers(pts)]
    n_c, n_p = len(disks), len(pts)
    cover = np.array([[covers(d, p) for d in disks] for p in pts], dtype=np.float64)
    budget = np.concatenate([np.ones(n_c), np.zeros(n_p)])[None, :]
    rows = np.vstack([budget, np.hstack([-cover, np.eye(n_p)])])
    res = milp(
        np.concatenate([np.zeros(n_c), -np.ones(n_p)]),
        constraints=LinearConstraint(rows, -np.inf, np.concatenate([[m], np.zeros(n_p)])),
        integrality=np.concatenate([np.ones(n_c), np.zeros(n_p)]),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    assert res.success, res.message
    chosen = [d for d, v in zip(disks, res.x[:n_c]) if v > 0.5]
    assert len(chosen) <= m
    return _recount(chosen, pts), -res.mip_dual_bound


def test_criterion_9_solver_matches_milp_optimum():
    # an oracle that shares no code with ``solve`` or ``most_points``: the
    # reference candidate loop, ``covers`` and scipy's HiGHS.  Dense squares
    # (side 4 to 7) and sparse ones (side sqrt(n) to 3 sqrt(n)) alternate
    rng = Xoshiro256StarStar(MILP_CORPUS_SEED)
    bad = []
    for i in range(MILP_CORPUS_SIZE):
        n = rng.randint(8, 40)
        m = rng.randint(4, 6)
        side = rng.uniform(4.0, 7.0) if i % 2 == 0 else rng.uniform(math.sqrt(n), 3 * math.sqrt(n))
        seed = rng.next_u64()
        pts = generate(n, side, seed).points
        recount, bound = _milp_optimum(pts, m)
        for prune in (True, False):
            sol = solve(pts, m, prune=prune)
            if (
                abs(bound - recount) > 1e-6
                or sol.covered.count != recount
                or _recount(sol.disks, pts) != recount
            ):
                bad.append((n, side, seed, m, prune, sol.covered.count, recount, bound))
    _verdict(
        9,
        not bad,
        f"solve, pruned and unpruned, == certified MILP optimum on {MILP_CORPUS_SIZE} instances "
        "(n in [8,40], m in 4..6, dense and sparse)",
    )
    assert not bad, bad[:5]

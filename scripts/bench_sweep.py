"""Time the single-disk sweep, greedy steps, ``solve`` and the combination kernel at two revisions.

    python3 scripts/bench_sweep.py --base REV --out BENCH.json [--repeats 5] [--slow]

The base revision's ``src/`` is exported with ``git archive`` into a
temporary directory; the head is this checkout's ``src/``.  Both must have
the library layout of ``7d5c532`` or later (``geometry.point_arrays``, a
lazy ``single_disk.anchor_table`` and ``solver._greedy_step(table,
covered)``).  Each repeat runs one child process per tree, back to back,
and the tree that runs first alternates from repeat to repeat, so a slow
spell of a shared host, or a cost of running second, falls on both.  A
child times each row INNER times and reports the median; every figure is
the median of those over the repeats.  Instances are ``generate(n, side, 101)`` unless a
row names another seed, timed after one warm-up ``solve`` on a small
instance.  Rows:

* ``sweep``: ``solve(pts, 1)`` on the whole instance (the first disk);
* ``greedy_step``: ``solver._greedy_step`` on the points its first disk
  leaves uncovered, the mask of ``solve(pts, 1).covered``.  Each timing
  gets a fresh anchor table, built with its point record and the first step
  outside the timed region, as ``solve`` builds the table and takes the
  first step once for every later step;
* ``anchors_swept``: the anchors whose full sweep the table holds after the
  first step (in the ``sweep`` row) and after the timed step (in the
  ``greedy_step`` row);
* ``solve_m2``: ``solve(pts, 2)`` end to end;
* ``geometry``: ``point_arrays``, ``candidate_centers`` and
  ``center_coverage_bits(..., distinct=True)`` on 5000:100 and 2000:40, the
  candidate set and its distinct coverage rows as ``most_points`` builds
  them;
* ``kernel``: the combination enumeration, on ``most_points(pts, 2,
  dedup=False)`` for 300:20 seed 5 (the ``bench`` baseline column), ``solve``
  m=3 on dense 64:10, and ``most_points(pts, 2, dedup=True, prune=True)``
  on 5000:100 (the ``verify`` oracle);
* ``--slow`` adds ``solve`` m=3 on 2000:40: 171,868,741 combos, about
  1.4 s a run with the packed kernel (``BENCH_7.json``).

Each row also records what the call returned (coverage, and combos where the
call counts them), so the two trees can be seen to agree.  ``speedup`` is
the ratio of the two medians; ``paired_speedup`` is the median over the
repeats of base ms / head ms within one repeat, whose two children ran back
to back, so a slow spell of the host cancels out of each ratio;
``paired_q1`` and ``paired_q3`` are the quartiles of those ratios, so a
row's spread shows next to its median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101
STEP_SIZES = [(5000, 100.0), (20000, 200.0)]
SOLVE_SIZES = [(1000, 200.0), (5000, 100.0), (20000, 200.0), (2000, 40.0)]
GEOMETRY_SIZES = [(5000, 100.0), (2000, 40.0)]
SLOW_SIZE = (2000, 40.0)
# timings of a row in one child, of which it reports the median
INNER = 5


def _timed(call, setup=lambda: ()):
    """Median ms of INNER calls ``call(*setup())``, setup untimed, and the last result."""
    times = []
    for _ in range(INNER):
        args = setup()
        t0 = time.perf_counter()
        out = call(*args)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times), out


def _counts(result) -> dict:
    """Coverage and combos of a ``Solution`` or a ``MultiDiskResult``."""
    if hasattr(result, "total_combos"):
        return {"covered": result.covered.count, "combos": result.total_combos}
    return {"covered": result.covered.count, "combos": result.stats.combos_evaluated}


def measure(slow: bool) -> dict:
    """One run of every row on the ``diskcover`` found first on sys.path."""
    import numpy as np

    from diskcover import generate, most_points, single_disk, solve, solver
    from diskcover.geometry import candidate_centers, center_coverage_bits, point_arrays

    # first calls pay one-time costs (lazy imports, first allocations)
    solve(generate(50, 5.0, SEED).points, 2)
    rows = {}
    for n, side in STEP_SIZES:
        pts = generate(n, side, SEED).points
        ms, first = _timed(lambda: solve(pts, 1))
        rows[f"sweep {n}:{side:g}"] = {"ms": ms, "rho": first.rho}
        tables = []

        def first_step(pts=pts, covered=first.covered.ids()):
            table = single_disk.anchor_table(point_arrays(pts))
            solver._greedy_step(table, np.zeros(len(pts), dtype=bool))
            tables.append((table, int(table.swept.sum())))
            return table, np.isin(table.points.ids, covered)

        ms, (disk, union) = _timed(solver._greedy_step, first_step)
        table, swept_first = tables[-1]
        rows[f"sweep {n}:{side:g}"]["anchors_swept"] = swept_first
        rows[f"greedy_step {n}:{side:g}"] = {
            "ms": ms,
            "covered": int(union.sum()),
            "disk": [disk.cx.hex(), disk.cy.hex()],
            "anchors_swept": int(table.swept.sum()),
        }
    for n, side in SOLVE_SIZES:
        pts = generate(n, side, SEED).points
        ms, sol = _timed(lambda: solve(pts, 2))
        rows[f"solve_m2 {n}:{side:g}"] = {
            "ms": ms,
            "covered": sol.covered.count,
            "rho": sol.rho,
            "combos": sol.total_combos,
        }
    for n, side in GEOMETRY_SIZES:
        pts = generate(n, side, SEED).points

        def geometry_row(pts=pts):
            points = point_arrays(pts)
            centers = candidate_centers(points)
            return len(centers[0]), center_coverage_bits(*centers, points, distinct=True)[0]

        ms, (n_candidates, distinct) = _timed(geometry_row)
        rows[f"geometry {n}:{side:g}"] = {
            "ms": ms,
            "candidates": n_candidates,
            "distinct_rows": len(distinct),
        }
    kernel = [
        ("most_points_m2_nodedup 300:20 seed 5", 300, 20.0, 5,
         lambda pts: most_points(pts, 2, dedup=False)),
        ("solve_m3 64:10", 64, 10.0, SEED, lambda pts: solve(pts, 3)),
        ("most_points_m2_prune 5000:100", 5000, 100.0, SEED,
         lambda pts: most_points(pts, 2, dedup=True, prune=True)),
    ]
    if slow:
        n, side = SLOW_SIZE
        kernel.append((f"solve_m3 {n}:{side:g}", n, side, SEED, lambda pts: solve(pts, 3)))
    for name, n, side, seed, call in kernel:
        pts = generate(n, side, seed).points
        ms, result = _timed(lambda: call(pts))
        rows[f"kernel {name}"] = {"ms": ms, **_counts(result)}
    return rows


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _child(src: Path, slow: bool) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)] + ["--slow"] * slow,
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--slow", action="store_true",
        help=f"also time solve m=3 on {SLOW_SIZE[0]}:{SLOW_SIZE[1]:g} (171,868,741 combos)",
    )
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        sys.path.insert(0, args.measure)
        print(json.dumps(measure(args.slow)))
        return
    if not args.base or not args.out:
        parser.error("--base and --out are required")

    import numpy
    import scipy

    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "base.tar"
        with open(archive, "wb") as fh:
            subprocess.run(
                ["git", "archive", args.base, "src"], cwd=ROOT, check=True, stdout=fh
            )
        with tarfile.open(archive) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"base": Path(tmp) / "src", "head": ROOT / "src"}
        runs = {name: [] for name in trees}
        for repeat in range(args.repeats):
            # the tree that runs first alternates, so that an effect of the
            # order on this host falls on both trees alike
            for name in ("base", "head") if repeat % 2 == 0 else ("head", "base"):
                runs[name].append(_child(trees[name], args.slow))

    rows = {}
    for row in runs["base"][0]:
        entry = {}
        for name in trees:
            times = [run[row]["ms"] for run in runs[name]]
            result = {k: v for k, v in runs[name][0][row].items() if k != "ms"}
            entry[name] = {"median_ms": statistics.median(times), "runs_ms": times, **result}
        entry["speedup"] = entry["base"]["median_ms"] / entry["head"]["median_ms"]
        paired = [b / h for b, h in zip(entry["base"]["runs_ms"], entry["head"]["runs_ms"])]
        entry["paired_speedup"] = statistics.median(paired)
        entry["paired_q1"], entry["paired_q3"] = numpy.percentile(paired, [25, 75]).tolist()
        rows[row] = entry
    report = {
        "description": __doc__.splitlines()[0],
        "base_rev": _git("rev-parse", args.base),
        "head_rev": _git("rev-parse", "HEAD"),
        "head_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "repeats": args.repeats,
        "inner_repeats": INNER,
        "slow_rows": args.slow,
        "statistic": "median over the repeats of each child's median; paired_speedup: "
        "median over the repeats of base / head within a repeat; paired_q1, paired_q3: "
        "its quartiles (linear interpolation)",
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row, entry in rows.items():
        print(
            f"{row:48s} base {entry['base']['median_ms']:9.1f} ms   "
            f"head {entry['head']['median_ms']:9.1f} ms   x{entry['speedup']:.2f}"
            f"   paired x{entry['paired_speedup']:.2f}"
            f" (q1 {entry['paired_q1']:.2f}, q3 {entry['paired_q3']:.2f})"
        )


if __name__ == "__main__":
    main()

"""Time instance generation, the single-disk sweep, greedy steps, ``solve`` and the combination kernel at two revisions.

    python3 scripts/bench_sweep.py --base REV --out BENCH.json [--repeats 5] [--slow]

The base revision's ``src/`` is exported with ``git archive`` into a
temporary directory; the head is this checkout's ``src/``.  Both trees are
imported into this one process, as the packages ``diskcover_base`` and
``diskcover_head``, so both must have the library layout of ``2a0d561`` or
later (``geometry.point_arrays``, the public ``geometry.coverage_rows`` and
``packed_coverage``, a lazy ``single_disk.anchor_table`` and
``solver._greedy_step(table, covered)``).  Each tree gets its own inputs,
built before anything is timed, and one warm-up ``solve`` on a small
instance.  A repeat times each row INNER times per tree, call by call, the
two trees alternating and the one that goes first alternating too, so a
slow spell of a shared host falls on both trees alike; it records each
tree's median.  Every figure is the median of those over the repeats.
Instances are ``generate(n, side, 101)`` unless a row names another seed.
Rows:

* ``generate``: ``generate(n, side, 101)`` on 5000:100 and 20000:200, and
  ``generate(64, 10, seed)`` for the 512 seeds 0–511, a pool as large as
  perfbench's dense-solve-m3 builds; its summary is a digest of every
  point's coordinate bits and id, so the trees can be seen to draw the same
  points;
* ``sweep``: ``solve(pts, 1)`` on the whole instance (the first disk), on
  sparse 5000:100 and 20000:200 and on dense 500:3;
* ``greedy_step``: ``solver._greedy_step`` on the points its first disk
  leaves uncovered, the mask of ``solve(pts, 1).covered``.  Each timing
  gets a fresh anchor table, built with its point record and the first step
  outside the timed region, as ``solve`` builds the table and takes the
  first step once for every later step;
* ``anchors_swept``: the anchors whose full sweep the table holds after the
  first step (in the ``sweep`` row) and after the timed step (in the
  ``greedy_step`` row);
* ``solve_m2``: ``solve(pts, 2)`` end to end;
* ``geometry``: ``point_arrays``, ``candidate_centers``, ``coverage_rows``,
  ``distinct_rows`` and ``packed_coverage`` on 5000:100 and 2000:40, the
  candidate set and its distinct coverage rows as unpruned ``most_points``
  builds them (on a tree up to ``ac33c95``, which has no ``distinct_rows``,
  ``packed_coverage(..., distinct=True)``, the same work);
* ``kernel``: the combination enumeration, on ``most_points(pts, 2,
  dedup=False)`` for 300:20 seed 5 (the ``bench`` baseline column), for
  1000:40 and for dense 300:6, where the count floor keeps 98 of 2,890,
  55 of 8,560 and 1,821 of 21,684 rows, on unpruned ``most_points(pts,
  3)`` for dense 40:3, where the floor keeps every row (its cost where it
  cuts nothing), ``solve`` m=3 on dense 64:10, and
  ``most_points(pts, 2, dedup=True, prune=True)`` on 5000:100 (the ``verify`` oracle), on 2000:40, where the oracle's
  near-list bound leaves the most candidates to build, and on dense 300:6,
  where it joins nearly every candidate in two joins, and ``solve(pts, 6,
  prune=True)`` on 5000:100, five pruned neighborhood re-solves;
* ``--slow`` adds ``solve`` m=3 on 2000:40: 171,868,741 combos, about
  0.2 s a run with the shared k >= 3 pair table (``BENCH_20.json``), and
  ``solve(pts, 3, prune=True)`` on dense 60:3, the one pruned row whose
  search reaches long last levels: 20,582,152 combos, about 1.0 s a run
  (``BENCH_23.json``).

Each row also records what the last call returned (coverage, and combos
where the call counts them), so the two trees can be seen to agree.
``speedup`` is the ratio of the two medians; ``paired_speedup`` is the
median over the repeats of base ms / head ms within one repeat, whose calls
alternated, so a slow spell of the host cancels out of each ratio;
``paired_q1`` and ``paired_q3`` are the quartiles of those ratios, so a
row's spread shows next to its median.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
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
# sparse anchors (about 7 near-list entries each) and dense 500:3 (about 340)
STEP_SIZES = [(5000, 100.0), (20000, 200.0), (500, 3.0)]
GENERATE_SIZES = [(5000, 100.0), (20000, 200.0)]
GENERATE_POOL = (512, 64, 10.0)  # instances, n, side
SOLVE_SIZES = [(1000, 200.0), (5000, 100.0), (20000, 200.0), (2000, 40.0)]
GEOMETRY_SIZES = [(5000, 100.0), (2000, 40.0)]
SLOW_SIZE = (2000, 40.0)
# timings of a row per tree in one repeat, of which it records the median
INNER = 5


def _counts(result) -> dict:
    """Coverage and combos of a ``Solution``, and also the rows searched of a
    ``MultiDiskResult``."""
    if hasattr(result, "total_combos"):
        return {"covered": result.covered.count, "combos": result.total_combos}
    return {
        "covered": result.covered.count,
        "combos": result.stats.combos_evaluated,
        "candidates_after_dedup": result.stats.candidates_after_dedup,
    }


def _points_digest(instances) -> dict:
    """Point count and a SHA-256 of every point's coordinates and id."""
    import numpy as np

    pts = [p for inst in instances for p in inst.points]
    bits = np.array([(p.x, p.y, p.idx) for p in pts], dtype=np.float64).tobytes()
    return {"points": len(pts), "sha256": hashlib.sha256(bits).hexdigest()}


def cases(diskcover, slow: bool) -> list[tuple]:
    """(row, call, setup, summary) of every row, on the package ``diskcover``.

    A timing runs ``call(*setup())`` and times only the call; ``summary``
    reads what the last call returned.  The inputs are built here.
    """
    import numpy as np

    generate, solve, most_points = diskcover.generate, diskcover.solve, diskcover.most_points

    def step(table, covered):
        # the table rides along with the step's result, for its summary
        return diskcover.solver._greedy_step(table, covered), table

    def step_summary(out):
        (disk, union), table = out
        return {
            "covered": int(union.sum()),
            "disk": [disk.cx.hex(), disk.cy.hex()],
            "anchors_swept": int(table.swept.sum()),
        }

    out = []
    for n, side in GENERATE_SIZES:
        out.append((
            f"generate {n}:{side:g}", lambda n=n, side=side: [generate(n, side, SEED)], tuple,
            _points_digest,
        ))
    count, n, side = GENERATE_POOL
    out.append((
        f"generate {count}x{n}:{side:g}",
        lambda count=count, n=n, side=side: [generate(n, side, seed) for seed in range(count)],
        tuple, _points_digest,
    ))
    for n, side in STEP_SIZES:
        pts = generate(n, side, SEED).points
        covered = solve(pts, 1).covered.ids()

        def first_step(pts=pts):
            table = diskcover.single_disk.anchor_table(diskcover.geometry.point_arrays(pts))
            step(table, np.zeros(len(pts), dtype=bool))
            return table

        def after_first_step(first_step=first_step, covered=covered):
            table = first_step()
            return table, np.isin(table.points.ids, covered)

        out.append((
            f"sweep {n}:{side:g}", lambda pts=pts: solve(pts, 1), tuple,
            lambda sol, first_step=first_step: {
                "rho": sol.rho, "anchors_swept": int(first_step().swept.sum()),
            },
        ))
        out.append((f"greedy_step {n}:{side:g}", step, after_first_step, step_summary))
    for n, side in SOLVE_SIZES:
        pts = generate(n, side, SEED).points
        out.append((
            f"solve_m2 {n}:{side:g}", lambda pts=pts: solve(pts, 2), tuple,
            lambda sol: {"covered": sol.covered.count, "rho": sol.rho, "combos": sol.total_combos},
        ))
    for n, side in GEOMETRY_SIZES:
        pts = generate(n, side, SEED).points

        def geometry_row(pts=pts, geometry=diskcover.geometry):
            points = geometry.point_arrays(pts)
            centers = geometry.candidate_centers(points)
            indptr, cols = geometry.coverage_rows(*centers, points)
            if not hasattr(geometry, "distinct_rows"):
                # up to ac33c95 the dedup was packed_coverage's flag
                return len(centers[0]), geometry.packed_coverage(
                    indptr, cols, points, distinct=True
                )[0]
            rows = np.arange(len(centers[0]))
            distinct = geometry.distinct_rows(indptr, cols, rows, len(pts))
            geometry.packed_coverage(indptr, cols, distinct, points)
            return len(centers[0]), distinct

        out.append((
            f"geometry {n}:{side:g}", geometry_row, tuple,
            lambda out: {"candidates": out[0], "distinct_rows": len(out[1])},
        ))
    kernel = [
        ("most_points_m2_nodedup 300:20 seed 5", 300, 20.0, 5,
         lambda pts: most_points(pts, 2, dedup=False)),
        ("most_points_m2_nodedup 1000:40", 1000, 40.0, SEED,
         lambda pts: most_points(pts, 2, dedup=False)),
        ("most_points_m2_nodedup 300:6", 300, 6.0, SEED,
         lambda pts: most_points(pts, 2, dedup=False)),
        ("most_points_m3 40:3", 40, 3.0, SEED, lambda pts: most_points(pts, 3)),
        ("solve_m3 64:10", 64, 10.0, SEED, lambda pts: solve(pts, 3)),
        ("most_points_m2_prune 5000:100", 5000, 100.0, SEED,
         lambda pts: most_points(pts, 2, dedup=True, prune=True)),
        ("most_points_m2_prune 2000:40", 2000, 40.0, SEED,
         lambda pts: most_points(pts, 2, dedup=True, prune=True)),
        ("most_points_m2_prune 300:6", 300, 6.0, SEED,
         lambda pts: most_points(pts, 2, dedup=True, prune=True)),
        ("solve_m6_prune 5000:100", 5000, 100.0, SEED, lambda pts: solve(pts, 6, prune=True)),
    ]
    if slow:
        n, side = SLOW_SIZE
        kernel.append((f"solve_m3 {n}:{side:g}", n, side, SEED, lambda pts: solve(pts, 3)))
        kernel.append(("solve_m3_prune 60:3", 60, 3.0, SEED, lambda pts: solve(pts, 3, prune=True)))
    for name, n, side, seed, call in kernel:
        pts = generate(n, side, seed).points
        out.append((f"kernel {name}", lambda call=call, pts=pts: call(pts), tuple, _counts))
    return out


def measure(packages: dict, repeats: int, slow: bool) -> dict:
    """Per tree and row: the median ms of each repeat and the summary."""
    rows = {name: cases(package, slow) for name, package in packages.items()}
    for package in packages.values():
        # first calls pay one-time costs (lazy imports, first allocations)
        package.solve(package.generate(50, 5.0, SEED).points, 2)
    runs = {name: {row[0]: [] for row in rows[name]} for name in packages}
    last = {}
    base_first = True
    for _ in range(repeats):
        for i, (row, *_) in enumerate(rows["base"]):
            times = {name: [] for name in packages}
            for _ in range(INNER):
                for name in ("base", "head") if base_first else ("head", "base"):
                    _, call, setup, _ = rows[name][i]
                    args = setup()
                    t0 = time.perf_counter()
                    last[name, i] = call(*args)
                    times[name].append(1e3 * (time.perf_counter() - t0))
                base_first = not base_first
            for name in packages:
                runs[name][row].append(statistics.median(times[name]))
    return {
        name: {
            row: {"runs_ms": runs[name][row], **summary(last[name, i])}
            for i, (row, _, _, summary) in enumerate(rows[name])
        }
        for name in packages
    }


def _load(src: Path, name: str):
    """The package ``diskcover`` of the tree ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "diskcover" / "__init__.py",
        submodule_search_locations=[str(src / "diskcover")],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("geometry", "single_disk", "solver"):
        importlib.import_module(f"{name}.{module}")
    return package


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--slow", action="store_true",
        help=f"also time solve m=3 on {SLOW_SIZE[0]}:{SLOW_SIZE[1]:g} (171,868,741 combos) "
        "and pruned solve m=3 on 60:3 (20,582,152 combos)",
    )
    args = parser.parse_args()
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
        # measured while the base tree exists, for the imports its calls make
        runs = measure(
            {name: _load(src, f"diskcover_{name}") for name, src in trees.items()},
            args.repeats, args.slow,
        )

    rows = {}
    for row in runs["base"]:
        entry = {}
        for name in trees:
            times = runs[name][row]["runs_ms"]
            entry[name] = {"median_ms": statistics.median(times), **runs[name][row]}
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
        "statistic": "median over the repeats of each tree's median of INNER calls, the "
        "trees alternating call by call in one process; paired_speedup: median over the "
        "repeats of base / head within a repeat; paired_q1, paired_q3: its quartiles "
        "(linear interpolation)",
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

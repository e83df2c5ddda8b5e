"""Command-line interface.

Subcommands:
  solve   solve one point file for m disks, print the solution (or JSON)
  bench   run the baseline-vs-output-sensitive pair-count benchmark to CSV
  verify  randomized self-verification against the exact enumeration
  gen     generate a reproducible uniform-square point file

Exit codes: 0 success, 1 usage or input parse error, 2 verification failure.
Every library error (``ValueError``, ``OSError``, ``BenchmarkError``) is caught
in ``main`` alone and printed as one line, ``<command>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .geometry import load_points, save_points
from .harness import (
    BenchmarkError,
    bench,
    check_bench_args,
    check_generate_args,
    generate,
    verify,
    write_bench_csv,
    write_bench_json,
)
from .solver import Solution, solve


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # verification failures and uses 1 for usage problems
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _solution_dict(sol: Solution) -> dict:
    return {
        "disks": [{"cx": d.cx, "cy": d.cy} for d in sol.disks],
        "covered": sol.covered.count,
        "rho": sol.rho,
        "traces": [asdict(t) for t in sol.traces],
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    pts = load_points(args.input)
    if not pts:
        raise ValueError(f"{args.input}: no points")
    sol = solve(pts, args.m, prune=args.prune)
    if args.json:
        print(json.dumps(_solution_dict(sol), indent=2))
        return 0
    print(f"covered {sol.covered.count} of {len(pts)} points with {args.m} disk(s)")
    print(f"rho (single-disk optimum): {sol.rho}")
    for d in sol.disks:
        print(f"  disk center ({d.cx:.9f}, {d.cy:.9f})")
    for t in sol.traces:
        branch = "greedy" if t.chose_greedy else "neighborhood"
        print(
            f"  i={t.i}: greedy {t.greedy_gain}, neighborhood exact {t.exact_value} "
            f"({t.neighborhood_size} pts, {t.combos_evaluated} combos) -> {branch}"
        )
    return 0


def _parse_list(text: str, option: str, form: str, convert) -> list:
    """Comma-separated values of ``option``; a bad or missing one names the
    option and the expected form."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(convert(part))
        except ValueError:
            raise ValueError(f"{option} expects {form}, got {part!r}") from None
    if not values:
        raise ValueError(f"{option} expects {form}, got {text!r}")
    return values


def _config(part: str) -> tuple[int, float]:
    n_str, _, side_str = part.partition(":")
    return int(n_str), float(side_str)


def _parse_configs(text: str) -> list[tuple[int, float]]:
    configs = _parse_list(text, "--config", "n:side pairs such as 1000:200,5000:100", _config)
    for n, side in configs:
        check_generate_args(n, side)
    return configs


def _check_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be written; creates and truncates nothing."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"cannot write {path}: no directory {directory}")
    target = path if os.path.exists(path) else directory
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise PermissionError(f"cannot write {path}")


def _cmd_bench(args: argparse.Namespace) -> int:
    # a bad argument fails here, before the cost warning and the run
    configs = _parse_configs(args.config)
    seeds = _parse_list(args.seeds, "--seeds", "integers such as 1,2,3", int)
    check_bench_args(args.m, args.sample_baseline)
    if args.json_out and os.path.realpath(args.json_out) == os.path.realpath(args.out):
        # the JSON would overwrite the CSV
        raise ValueError(f"--out and --json-out name one file, {args.out}")
    for path in (args.out, args.json_out):
        if path:
            _check_writable(path)
    if args.m >= 3:
        print(
            "warning: m >= 3 enumerates the m-combinations of candidate disks that can "
            "reach a greedy answer's count; on dense configs that cuts little, so "
            "expect combinatorial cost growth",
            file=sys.stderr,
        )
    records = bench(configs, seeds, m=args.m, sample_baseline=args.sample_baseline)
    write_bench_csv(records, args.out)
    if args.json_out:
        write_bench_json(records, args.json_out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(
        args.trials, args.n_max, args.m_max, args.seed, max_seconds=args.max_seconds
    )
    print(
        f"verify: {report.passes}/{report.trials_run} trials passed"
        + (
            f" ({report.trials_requested - report.trials_run} skipped on time budget)"
            if report.trials_run < report.trials_requested
            else ""
        )
    )
    for line in report.failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 0 if report.ok else 2


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = generate(args.n, args.side, args.seed)
    save_points(args.out, inst.points)
    print(f"wrote {args.n} points to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diskcover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a point file")
    p.add_argument("--input", required=True, help="point file (x y per line)")
    p.add_argument("--m", type=int, required=True, help="number of disks")
    p.add_argument("--json", action="store_true", help="print JSON solution")
    p.add_argument("--prune", action="store_true", help="branch-and-bound in exact searches")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="pair-count benchmark")
    p.add_argument("--config", required=True, help='configs as "n:side,n:side,..."')
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seeds", required=True, help='seeds as "s1,s2,..."')
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json-out", default=None, help="optional JSON output path")
    p.add_argument(
        "--sample-baseline",
        type=int,
        default=None,
        help="candidate-count cap above which the baseline optimum is computed "
        "via the accelerated exact path (pairs still reported as the full "
        "enumeration count)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="randomized self-verification")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-seconds", type=float, default=None, help="time budget")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a uniform-square point file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--side", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the one error boundary: a library error is one line and exit 1
    try:
        return args.func(args)
    except (ValueError, OSError, BenchmarkError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""diskcover benchmark: one workload as a closed loop, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Instances come from ``diskcover.generate`` with seeds derived from ``--seed``.
The loop times each call into the library from outside for ``--seconds``
seconds.  After the loop, every answer is checked against a reference
computed by another code path (pinned in ``pinned.json`` for the default
seed), and against a recount of the points its disks cover.

Every untraced op is followed by a fixed pure-Python loop, the probe.  Other
tenants of a shared host change the speed of the same code by up to 1.6x
for minutes at a time, and an op and the probe right after it run at about
the same speed, so the time metric is their ratio.  For the same reason
each set-up is timed between two probes, and ``setup_s`` is its time scaled
to a fixed probe time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then traced, and reports the per-layer metrics of
``tracing.layer_metrics``.  The last line of standard output is the result
as one JSON object; the lines before it give every metric by name with its
unit, the run's environment, failures with a reproducer, and pinned counts
that drifted.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import diskcover
except ImportError as exc:
    sys.exit(f"perfbench: cannot import diskcover from {SRC}: {exc}")
if Path(diskcover.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: diskcover was imported from {diskcover.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Answer, Reference, answer_of, instance_seed, verdict  # noqa: E402

DEFAULT_SEED = 1
PINNED = HERE / "pinned.json"
# set-up runs once before the loop and again after each further ninth of the
# loop time, and its median is reported: the repeats see the host over the
# same span of time as the ops, so that one slow moment of a shared machine
# does not move setup_s.  Each repeat starts from a collected heap.
SETUP_REPEATS = 9
# the warm-up op runs on an instance of this many points at the workload's
# density: enough to reach every code path, small enough that its cost does
# not vary with the seed
WARM_N = 20
MAX_FAIL_LINES = 20
# the probe takes about 13 ms on an idle core of a 2-vCPU Intel Xeon VM, about
# a fifth of the median op of the fastest workload (dense-solve-m3)
PROBE_LOOPS = 200_000
# setup_s is given in seconds at this probe time: a set-up's wall time times
# PROBE_REF_S over the mean of the probes just before and just after it
PROBE_REF_S = 0.013

END_TO_END_UNITS = {
    "latency_rel_p50": "probe",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "single_disk.self_ms": "ms/op",
    "single_disk.calls": "calls/op",
    "single_disk.points_in": "points/op",
    "single_disk.share": "frac",
    "exact.self_ms": "ms/op",
    "exact.calls": "calls/op",
    "exact.combos": "combos/op",
    "exact.combos_per_s": "1/s",
    "exact.dedup_keep_frac": "frac",
    "geometry.self_ms": "ms/op",
    "geometry.candidates_ms": "ms/op",
    "geometry.candidates": "disks/op",
    "geometry.coverage_ms": "ms/op",
    "geometry.coverage_tests": "tests/op",
    "geometry.coverage_tests_per_s": "1/s",
    "solver.self_ms": "ms/op",
    "solver.neighbor_ms": "ms/op",
    "solver.neighborhood_pts": "points/op",
    "solver.greedy_win_frac": "frac",
    "rng.generate_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.attributed_frac": "frac",
}


@dataclass
class Op:
    instance: int  # index into the pool
    seconds: float
    answer: Answer | None
    error: str | None = None
    traced: bool = False
    probe: float | None = None  # seconds of the probe run right after the op


def probe() -> float:
    """Seconds of a fixed pure-Python loop that never calls diskcover."""
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return perf_counter() - t0


def set_up(w, seed: int):
    """Generate the instance pool and warm up; return (pool, seconds, gen seconds)."""
    t0 = perf_counter()
    pool = [diskcover.generate(w.n, w.side, instance_seed(seed, i)).points for i in range(w.pool)]
    gen_s = perf_counter() - t0
    warm = diskcover.generate(WARM_N, w.side * (WARM_N / w.n) ** 0.5, instance_seed(seed, w.pool))
    w.call(warm.points, w.m)
    return pool, perf_counter() - t0, gen_s


def time_op(w, pts, k: int, traced: bool = False) -> Op:
    t0 = perf_counter()
    try:
        result = w.call(pts, w.m)
        seconds = perf_counter() - t0
        return Op(k, seconds, answer_of(result), None, traced)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return Op(k, perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", traced)


def run_loop(w, pool, seconds: float, tracer: Tracer | None = None,
             between=None, every: float = math.inf) -> tuple[list[Op], float]:
    """Closed loop over the pool for ``seconds``; returns (ops, elapsed seconds).

    Every untraced op is followed by the probe.  With a tracer, every op is
    run untraced and then traced on one instance.  ``between``, if given, is
    called between two ops after each further ``every`` seconds of the loop;
    the time it takes is not loop time.
    """
    ops: list[Op] = []
    start = perf_counter()
    deadline = start + seconds
    mark = start + every
    i = 0
    while (now := perf_counter()) < deadline:
        if between is not None and now >= mark:
            between()
            paused = perf_counter() - now
            deadline += paused
            mark += every + paused
        k = i % len(pool)
        op = time_op(w, pool[k], k)
        op.probe = probe()
        ops.append(op)
        if tracer is not None:
            tracer.begin_op()
            with tracer.installed():
                ops.append(time_op(w, pool[k], k, traced=True))
        i += 1
    return ops, perf_counter() - start


def load_pins(w, seed: int) -> list[dict] | None:
    """Pinned per-instance answers of workload ``w``, if pinned for ``seed``."""
    if not PINNED.exists():
        return None
    data = json.loads(PINNED.read_text(encoding="utf-8"))
    entry = data["workloads"].get(w.name)
    if seed != data["seed"] or entry is None:
        return None
    if (entry["n"], entry["side"], entry["m"]) != (w.n, w.side, w.m):
        return None
    return entry["instances"]


def references(w, pool, used: set[int], pins) -> dict[int, Reference]:
    """Reference answers for the instances the loop used; computed untimed."""
    if pins is not None:
        return {k: Reference(pins[k]["ref_covered"], pins[k]["ref_rho"]) for k in used}
    return {k: w.reference(pool[k], w.m) for k in sorted(used)}


def repro_command(w, seed: int, k: int) -> str:
    return (
        f"python3 perfbench/repro.py {w.name} {w.n} {w.side!r} "
        f"{instance_seed(seed, k)} {w.m}"
    )


def check(w, seed: int, pool, ops: list[Op], refs: dict[int, Reference]) -> tuple[int, list[str]]:
    """Count failed ops; return (failed, one line per failure with a reproducer).

    An op fails if it raised, if its answer disagrees with the reference or
    with the recount of its disks, or (traced runs) if the traced answer
    differs from the untraced answer on the same instance.
    """
    failed = 0
    lines: list[str] = []
    verdicts: dict[tuple[int, Answer], str | None] = {}
    untraced: dict[int, Answer | None] = {}
    for op in ops:
        if op.error is not None:
            why = f"raised {op.error}"
        else:
            key = (op.instance, op.answer)
            if key not in verdicts:
                verdicts[key] = verdict(op.answer, refs[op.instance], pool[op.instance])
            why = verdicts[key]
            if why is None and op.traced and untraced.get(op.instance) != op.answer:
                why = "traced answer differs from the untraced answer"
        if not op.traced:
            untraced[op.instance] = op.answer
        if why is not None:
            failed += 1
            lines.append(f"FAIL {w.name}: {why}; reproduce: {repro_command(w, seed, op.instance)}")
    return failed, lines


def drift(w, ops: list[Op], pins) -> list[str]:
    """Instances whose rho, covered count or combo count differ from the pins."""
    if pins is None:
        return []
    out = []
    seen = set()
    for op in ops:
        if op.answer is None or op.instance in seen:
            continue
        seen.add(op.instance)
        pin = pins[op.instance]
        got = {"rho": op.answer.rho, "covered": op.answer.covered, "combos": op.answer.combos}
        for key, value in got.items():
            if value != pin[key]:
                out.append(
                    f"DRIFT {w.name} instance seed {pin['seed']}: {key} {value}, pinned {pin[key]}"
                )
    return out


def git_rev() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "diskcover").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    w = WORKLOADS[workload]
    print(f"workload {w.name} n={w.n} side={w.side} m={w.m} pool={w.pool} "
          f"seed={seed} seconds={seconds} trace={int(trace)}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    setups = []  # (set-up seconds, generation seconds, mean probe seconds) of each repeat

    def set_up_again():
        gc.collect()
        before = probe()
        pool, setup_s, gen_s = set_up(w, seed)
        setups.append((setup_s, gen_s, statistics.fmean((before, probe()))))
        return pool

    pool = set_up_again()
    tracer = Tracer() if trace else None
    ops, _ = run_loop(w, pool, seconds, tracer, set_up_again, seconds / SETUP_REPEATS)
    rss = peak_rss_mb()

    pins = load_pins(w, seed)
    refs = references(w, pool, {op.instance for op in ops}, pins)
    failed, fail_lines = check(w, seed, pool, ops, refs)
    for line in fail_lines[:MAX_FAIL_LINES]:
        print(line)
    if len(fail_lines) > MAX_FAIL_LINES:
        print(f"... {len(fail_lines) - MAX_FAIL_LINES} more failures")
    for line in drift(w, ops, pins):
        print(line)

    plain = [op for op in ops if not op.traced]
    answered = [op.answer for op in plain if op.answer is not None]
    info = {
        "latency samples": len(plain),
        "latency_ms_p50": 1e3 * statistics.median(op.seconds for op in plain),
        "ops_per_s": len(plain) / sum(op.seconds for op in plain),
        "probe_ms_p50": 1e3 * statistics.median(op.probe for op in plain),
        "setup_wall_s": statistics.median(s[0] for s in setups),
        "instances used": len({op.instance for op in ops}),
        "fail_frac": failed / len(ops),
        "combos_per_op": statistics.fmean(a.combos for a in answered) if answered else 0.0,
        "references": "pinned" if pins is not None else "computed",
    }
    print("info " + json.dumps(info, sort_keys=True))

    if trace:
        traced_s = sum(op.seconds for op in ops if op.traced)
        values = layer_metrics(tracer, traced_s)
        values["rng.generate_ms"] = 1e3 * statistics.median(s[1] for s in setups)
        values["trace.overhead_frac"] = traced_s / sum(op.seconds for op in plain) - 1.0
        units = PER_LAYER_UNITS
        if tracer.counter_errors:
            print("counters skipped: " + ", ".join(sorted(tracer.counter_errors)))
    else:
        values = {
            "latency_rel_p50": statistics.median(op.seconds / op.probe for op in plain),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(s[0] * PROBE_REF_S / s[2] for s in setups),
        }
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one diskcover benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

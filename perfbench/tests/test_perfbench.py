"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src first on sys.path)
import diskcover  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Reference, instance_seed  # noqa: E402

# small instances of each workload's shape, so that every op takes milliseconds
SMALL = {
    "sparse-solve-m2": (300, 24.0),
    "dense-solve-m3": (30, 7.0),
    "baseline-enum-m2": (40, 7.0),
    "oracle-pruned-m2": (300, 24.0),
}


def small(name, pool=3):
    n, side = SMALL[name]
    return replace(WORKLOADS[name], n=n, side=side, pool=pool)


def pool_of(w, seed=5):
    return [diskcover.generate(w.n, w.side, instance_seed(seed, i)).points for i in range(w.pool)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_returns_the_untraced_answers(name):
    w = small(name)
    pool = pool_of(w)
    tracer = tracing.Tracer()
    ops, _ = run.run_loop(w, pool, 0.2, tracer)
    refs = run.references(w, pool, {op.instance for op in ops}, None)
    failed, lines = run.check(w, 5, pool, ops, refs)
    assert failed == 0, lines
    assert [op.traced for op in ops] == [False, True] * tracer.ops
    assert all((op.probe is None) == op.traced for op in ops)
    assert all(a.answer == b.answer and a.instance == b.instance for a, b in zip(ops[::2], ops[1::2]))
    assert tracer.spans and not tracer.counter_errors
    metrics = tracing.layer_metrics(tracer, sum(op.seconds for op in ops if op.traced))
    assert metrics["trace.attributed_frac"] == pytest.approx(1.0, abs=0.05)
    # the originals are back in place after each traced call
    assert not any(hasattr(f, "__wrapped__") for _, _, f in tracing.layer_functions().values())
    assert not hasattr(diskcover.solve, "__wrapped__")
    assert not hasattr(diskcover.solver.best_disk_grid, "__wrapped__")


def _traced(tracer, w, pts, k):
    tracer.begin_op()
    with tracer.installed():
        return run.time_op(w, pts, k, traced=True)


def test_between_runs_after_each_interval_outside_loop_time():
    w = small("dense-solve-m3")
    calls = []

    def between():
        calls.append(len(calls))
        time.sleep(0.05)

    ops, elapsed = run.run_loop(w, pool_of(w), 0.3, between=between, every=0.1)
    assert calls == [0, 1]
    assert elapsed >= 0.3 + 2 * 0.05
    assert sum(op.seconds + op.probe for op in ops) < elapsed - 2 * 0.05


def test_wrong_reference_counts_as_failure():
    w = small("dense-solve-m3")
    pool = pool_of(w)
    ops, _ = run.run_loop(w, pool, 0.3)
    refs = run.references(w, pool, {op.instance for op in ops}, None)
    assert run.check(w, 5, pool, ops, refs)[0] == 0
    good = refs[0]
    refs[0] = Reference(good.covered + 1, good.rho)
    failed, lines = run.check(w, 5, pool, ops, refs)
    on_first = sum(1 for op in ops if op.instance == 0)
    assert failed == on_first > 0
    assert all("reproduce: python3 perfbench/repro.py dense-solve-m3 30 7.0 50000 3" in l for l in lines)


def test_answer_that_its_disks_do_not_cover_is_a_failure():
    w = small("baseline-enum-m2")
    pool = pool_of(w)
    op = run.time_op(w, pool[0], 0)
    ref = w.reference(pool[0], w.m)
    moved = replace(op.answer, centers=tuple((x + 50.0, y) for x, y in op.answer.centers))
    failed, lines = run.check(w, 5, pool, [replace(op, answer=moved)], {0: ref})
    assert failed == 1 and "its disks cover 0" in lines[0]


def test_drift_from_pins_is_reported():
    w = small("sparse-solve-m2", pool=1)
    pool = pool_of(w)
    op = run.time_op(w, pool[0], 0)
    a = op.answer
    pin = {"seed": 50000, "rho": a.rho, "covered": a.covered, "combos": a.combos}
    assert run.drift(w, [op], [pin]) == []
    lines = run.drift(w, [op], [dict(pin, combos=a.combos + 1)])
    assert len(lines) == 1 and "combos" in lines[0]


def test_missing_public_name_is_skipped(monkeypatch):
    monkeypatch.delattr(diskcover.single_disk, "best_disk_grid")
    w = small("sparse-solve-m2", pool=1)
    pts = pool_of(w)[0]
    tracer = tracing.Tracer()
    op = _traced(tracer, w, pts, 0)
    assert op.error is None
    assert {s.name for s in tracer.spans} >= {"solve", "best_disk_sweep", "most_points"}
    assert "best_disk_grid" not in {s.name for s in tracer.spans}


def test_self_time_subtracts_direct_children():
    S = tracing.Span
    spans = [S("solver", "solve", -1, 0, 0.0, 10.0), S("exact", "most_points", 0, 0, 1.0, 7.0),
             S("geometry", "candidate_disks", 1, 0, 2.0, 3.0), S("solver", "neighbor_points", 0, 0, 8.0, 9.0)]
    assert tracing.self_times(spans) == [3.0, 5.0, 1.0, 1.0]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_pins_cover_every_default_seed_instance():
    data = json.loads(run.PINNED.read_text(encoding="utf-8"))
    assert data["seed"] == run.DEFAULT_SEED
    for w in WORKLOADS.values():
        assert len(run.load_pins(w, run.DEFAULT_SEED)) == w.pool
        assert run.load_pins(w, run.DEFAULT_SEED + 1) is None

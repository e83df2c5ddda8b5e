import json
import math
import sys
from types import SimpleNamespace

import pytest

from diskcover import (
    Point,
    bench,
    generate,
    most_points,
    solve,
    verify,
    write_bench_csv,
    write_bench_json,
)
from diskcover import exact, harness, single_disk
from diskcover.geometry import candidate_centers, point_arrays
from diskcover.harness import BENCH_FIELDS, TIMING_FIELDS


def csv_without_timing(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_FIELDS]
    return [[row[i] for i in keep] for row in rows]


def record_generated(monkeypatch):
    """Make the harness log every instance it generates: seed -> points."""
    generated = {}

    def recording(n, side, seed):
        inst = generate(n, side, seed)
        generated[seed] = inst.points
        return inst

    monkeypatch.setattr(harness, "generate", recording)
    return generated


def install_first_point_sweep(monkeypatch):
    """A sweep table that never looks past the first point (the least id), in
    every module holding it; ``solve`` and ``greedy_solve`` both read their
    single disks from that table."""
    real = single_disk.anchor_table

    def wrong_table(points):
        first = Point(float(points.x[0]), float(points.y[0]), int(points.ids[0]))
        return real(point_arrays([first]))

    for name, module in list(sys.modules.items()):
        if name.startswith("diskcover") and getattr(module, "anchor_table", None) is real:
            monkeypatch.setattr(module, "anchor_table", wrong_table)


class TestGenerate:
    def test_single_point_in_bounds(self):
        inst = generate(1, 10.0, 0)
        assert len(inst.points) == 1
        p = inst.points[0]
        assert 0.0 <= p.x <= 10.0 and 0.0 <= p.y <= 10.0

    def test_thousand_points_in_bounds(self):
        inst = generate(1000, 200.0, 4242)
        assert len(inst.points) == 1000
        assert all(0.0 <= p.x <= 200.0 and 0.0 <= p.y <= 200.0 for p in inst.points)
        assert [p.idx for p in inst.points] == list(range(1000))

    def test_deterministic_in_seed(self):
        a = generate(50, 30.0, 9).points
        b = generate(50, 30.0, 9).points
        c = generate(50, 30.0, 10).points
        assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]
        assert [(p.x, p.y) for p in a] != [(p.x, p.y) for p in c]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate(0, 1.0, 0)
        with pytest.raises(ValueError):
            generate(1, 0.0, 0)
        with pytest.raises(ValueError):
            generate(1, -2.0, 0)
        for side in (math.inf, math.nan):
            with pytest.raises(ValueError):
                generate(1, side, 0)


class TestBench:
    def test_records_sorted_and_exact(self):
        records = bench([(40, 10.0), (20, 6.0)], seeds=[2, 1], m=2)
        keys = [(r.n, r.side, r.seed) for r in records]
        assert keys == sorted(keys)
        for r in records:
            assert r.cover_baseline == r.cover_ours
            assert r.rho <= r.n
            assert r.pairs_ours <= r.pairs_baseline

    def test_dense_tiny_instance_counts_comparable(self):
        # with the single-disk optimum near n the two solvers do similar
        # work; the gap stays within a small factor instead of exploding
        records = bench([(10, 2.0)], seeds=[1, 2, 3], m=2)
        for r in records:
            assert r.pairs_ours <= r.pairs_baseline
            assert r.pairs_baseline <= 60 * max(r.pairs_ours, 1)

    def test_sample_baseline_keeps_exactness_and_pair_count(self):
        full = bench([(60, 12.0)], seeds=[5], m=2)[0]
        capped = bench([(60, 12.0)], seeds=[5], m=2, sample_baseline=10)[0]
        assert capped.cover_baseline == full.cover_baseline == full.cover_ours
        n_candidates = len(candidate_centers(point_arrays(generate(60, 12.0, 5).points))[0])
        assert capped.pairs_baseline == math.comb(n_candidates, 2)
        assert capped.pairs_baseline == full.pairs_baseline

    def test_sample_baseline_choice_is_outside_the_timers(self, monkeypatch):
        # a clock that moves only while the harness sizes the candidate set
        clock = [0.0]
        real = harness.candidate_centers

        def sizing(points):
            clock[0] += 1000.0
            return real(points)

        monkeypatch.setattr(harness, "candidate_centers", sizing)
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        record = bench([(60, 12.0)], seeds=[5], m=2, sample_baseline=10)[0]
        assert clock[0] == 1000.0
        assert record.time_baseline_ms == record.time_ours_ms == 0.0

    def test_pairs_baseline_independent_of_sample_baseline(self):
        # one candidate (n=1) and two far-apart ones (n=2): m >= candidates
        # makes the faithful enumeration score one padded combo
        for config in [(1, 5.0), (2, 50.0)]:
            for m in (1, 2, 3):
                full = bench([config], seeds=[1], m=m)[0]
                capped = bench([config], seeds=[1], m=m, sample_baseline=0)[0]
                assert capped.pairs_baseline == full.pairs_baseline, (config, m)

    def test_faithful_baseline_generates_candidates_once(self, monkeypatch):
        generated = record_generated(monkeypatch)
        real = harness.candidate_centers
        whole_instance_calls = []

        def counting(points):
            # neighborhood searches in solve pass records of other lists;
            # count only the calls on a whole instance's record
            if any(
                points.ids.tolist() == [p.idx for p in inst] for inst in generated.values()
            ):
                whole_instance_calls.append(len(points.ids))
            return real(points)

        monkeypatch.setattr(harness, "candidate_centers", counting)
        monkeypatch.setattr(exact, "candidate_centers", counting)
        record = bench([(30, 8.0)], seeds=[1], m=2)[0]
        assert whole_instance_calls == [30]
        assert record.pairs_baseline == math.comb(
            len(candidate_centers(point_arrays(generated[1]))[0]), 2
        )

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError):
            bench([], seeds=[1])
        with pytest.raises(ValueError):
            bench([(10, 2.0)], seeds=[])

    def test_bad_m_or_cap_is_blamed_before_any_config_runs(self):
        # the message names the argument, not the first config it would hit
        with pytest.raises(ValueError) as exc:
            bench([(10, 2.0)], seeds=[1], m=0)
        assert "m >= 1" in str(exc.value)
        assert "config" not in str(exc.value)
        with pytest.raises(ValueError, match="sample_baseline"):
            bench([(10, 2.0)], seeds=[1], sample_baseline=-3)


class TestBenchOutput:
    def test_csv_schema_and_determinism(self, tmp_path):
        records = bench([(30, 8.0)], seeds=[1, 2], m=2)
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        write_bench_csv(records, p1)
        write_bench_csv(bench([(30, 8.0)], seeds=[1, 2], m=2), p2)
        rows1 = csv_without_timing(p1)
        rows2 = csv_without_timing(p2)
        assert rows1 == rows2
        with open(p1) as fh:
            header = fh.readline().strip().split(",")
        assert header == BENCH_FIELDS

    def test_json_round_trip(self, tmp_path):
        records = bench([(20, 5.0)], seeds=[3], m=2)
        path = str(tmp_path / "r.json")
        write_bench_json(records, path)
        with open(path) as fh:
            data = json.load(fh)
        assert len(data) == 1
        assert data[0]["n"] == 20
        assert data[0]["cover_baseline"] == data[0]["cover_ours"]


class TestVerify:
    def test_single_point_single_disk(self):
        report = verify(1, 1, 1, seed=0)
        assert report.ok and report.passes == 1

    def test_two_hundred_trials_pass(self):
        report = verify(200, 20, 2, seed=1)
        assert report.trials_run == 200
        assert report.passes == 200
        assert report.failures == []

    def test_hundred_trials_three_disks(self):
        report = verify(100, 25, 3, seed=6, max_seconds=120.0)
        assert report.passes == report.trials_run
        assert report.failures == []

    def test_time_budget_stops_early(self):
        report = verify(10_000, 20, 2, seed=2, max_seconds=0.2)
        assert report.trials_run < 10_000
        assert report.failures == []

    def test_single_disk_oracle_is_independent_of_the_sweep(self, monkeypatch):
        # the m=1 oracle must catch a wrong sweep even where every module
        # that holds the sweep uses the wrong one
        install_first_point_sweep(monkeypatch)
        report = verify(40, 30, 1, seed=7)
        assert report.trials_run == 40
        assert report.failures

    def test_failure_line_reproduces_its_instance(self, monkeypatch):
        install_first_point_sweep(monkeypatch)
        generated = record_generated(monkeypatch)
        report = verify(40, 30, 1, seed=7)
        assert report.failures
        for line in report.failures:
            tag, _, mismatch = line.partition(": ")
            fields = dict(field.split("=") for field in tag.split())
            n, m, seed = int(fields["n"]), int(fields["m"]), int(fields["seed"])
            pts = generate(n, float(fields["side"]), seed).points
            assert pts == generated[seed], line
            sol = solve(pts, m, prune=True)
            opt = most_points(pts, m, dedup=True, prune=True)
            assert mismatch == (
                f"solver covered {sol.covered.count}, optimum {opt.covered.count}"
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            verify(0, 10, 1, seed=0)
        for budget in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                verify(3, 10, 1, seed=0, max_seconds=budget)

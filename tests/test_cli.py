import json

import pytest

from diskcover import generate, solve
from diskcover.cli import main
import diskcover.cli as cli_module
from diskcover.harness import VerificationReport, TIMING_FIELDS


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_small_file(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("0 0\n0.5 0\n")
        code, out, _ = run(["solve", "--input", str(path), "--m", "1"], capsys)
        assert code == 0
        assert "covered 2 of 2" in out

    def test_two_clusters_json(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("0 0\n0.1 0\n10 0\n10.1 0\n")
        code, out, _ = run(
            ["solve", "--input", str(path), "--m", "2", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["covered"] == 4
        assert len(data["disks"]) == 2
        assert {"cx", "cy"} == set(data["disks"][0])
        assert data["traces"][0]["chose_greedy"] is True

    def test_round_trip_matches_in_memory(self, tmp_path, capsys):
        inst = generate(40, 9.0, 123)
        path = tmp_path / "gen.txt"
        code, _, _ = run(
            ["gen", "--n", "40", "--side", "9", "--seed", "123", "--out", str(path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["solve", "--input", str(path), "--m", "2", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        expected = solve(inst.points, 2)
        assert data["covered"] == expected.covered.count
        assert data["rho"] == expected.rho
        got_centers = [(d["cx"], d["cy"]) for d in data["disks"]]
        assert got_centers == [(d.cx, d.cy) for d in expected.disks]

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\nnot a point here\n")
        code, _, err = run(["solve", "--input", str(path), "--m", "1"], capsys)
        assert code == 1
        assert "line 2" in err

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        code, _, err = run(["solve", "--input", str(path), "--m", "1"], capsys)
        assert code == 1
        assert "no points" in err

    def test_overflowing_span_one_line_exit_1(self, tmp_path, capsys):
        path = tmp_path / "far.txt"
        path.write_text("1e200 0\n0 0\n")
        code, _, err = run(["solve", "--input", str(path), "--m", "1"], capsys)
        assert code == 1
        assert err == "solve: points span 1e+200 in x and 0 in y; squared distances overflow\n"

    def test_overflowing_pair_sum_one_line_exit_1(self, tmp_path, capsys):
        path = tmp_path / "far.txt"
        path.write_text("1e308 0\n1e308 1\n1e308 0.5\n")
        code, _, err = run(["solve", "--input", str(path), "--m", "1"], capsys)
        assert code == 1
        assert err == "solve: a coordinate reaches 1e+308, above 8.98847e+307; pair sums overflow\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["solve", "--input", str(tmp_path / "nope"), "--m", "1"], capsys)
        assert code == 1


class TestUsageErrors:
    def test_missing_required_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--m", "1"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--m", "0"],
            ["verify", "--trials", "0", "--n-max", "5", "--m-max", "2", "--seed", "1"],
            ["bench", "--config", "0:5", "--seeds", "1"],
            ["bench", "--config", "5:-1", "--seeds", "1"],
            ["verify", "--trials", "3", "--n-max", "5", "--m-max", "2", "--seed", "1",
             "--max-seconds", "-1"],
            ["verify", "--trials", "3", "--n-max", "5", "--m-max", "2", "--seed", "1",
             "--max-seconds", "nan"],
            ["gen", "--n", "3", "--side", "inf", "--seed", "1"],
            ["bench", "--config", "10:2", "--seeds", "1", "--m", "0"],
            # the argument error comes before the m >= 3 cost warning
            ["bench", "--config", "10:2", "--seeds", "1", "--m", "3", "--sample-baseline", "-3"],
        ],
        ids=[
            "solve-m0",
            "verify-trials0",
            "bench-n0",
            "bench-side-negative",
            "verify-budget-negative",
            "verify-budget-nan",
            "gen-side-inf",
            "bench-m0",
            "bench-sample-baseline-negative",
        ],
    )
    def test_out_of_range_value_one_line_exit_1(self, argv, tmp_path, capsys):
        if argv[0] == "solve":
            path = tmp_path / "p.txt"
            path.write_text("0 0\n")
            argv = argv + ["--input", str(path)]
        if argv[0] in ("bench", "gen"):
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--config", "10:5", "--seeds", ",", "--out", "{tmp}/x.csv"],
            ["bench", "--config", "10:5", "--seeds", "1", "--out", "{missing}/x.csv"],
            ["bench", "--config", "10:5", "--seeds", "1", "--out", "{tmp}/x.csv",
             "--json-out", "{missing}/x.json"],
            ["gen", "--n", "5", "--side", "2", "--seed", "1", "--out", "{missing}/g.txt"],
        ],
        ids=["bench-no-seeds", "bench-out-missing-dir", "bench-json-out-missing-dir",
             "gen-out-missing-dir"],
    )
    def test_unusable_argument_one_line_exit_1(self, argv, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path, missing=tmp_path / "no-such-dir") for a in argv]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestBenchCommand:
    def test_csv_written_and_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(
                [
                    "bench",
                    "--config",
                    "30:8,20:5",
                    "--m",
                    "2",
                    "--seeds",
                    "1,2",
                    "--out",
                    str(out),
                ],
                capsys,
            )
            assert code == 0

        def strip_timing(path):
            rows = [l.split(",") for l in path.read_text().strip().splitlines()]
            keep = [i for i, h in enumerate(rows[0]) if h not in TIMING_FIELDS]
            return [[r[i] for i in keep] for r in rows]

        assert strip_timing(out1) == strip_timing(out2)

    def test_json_out(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        jout = tmp_path / "r.json"
        code, _, _ = run(
            [
                "bench",
                "--config",
                "15:4",
                "--seeds",
                "7",
                "--out",
                str(out),
                "--json-out",
                str(jout),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(jout.read_text())
        assert data[0]["cover_baseline"] == data[0]["cover_ours"]

    @pytest.mark.parametrize("missing", ["--out", "--json-out"])
    def test_unwritable_output_fails_before_running(
        self, missing, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli_module, "bench", lambda *a, **kw: calls.append(a) or [])
        csv_out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
        csv_out.write_text("keep\n")
        paths = {"--out": str(csv_out), "--json-out": str(json_out)}
        paths[missing] = str(tmp_path / "no-such-dir" / "y")
        argv = ["bench", "--config", "10:5", "--seeds", "1"]
        for flag, path in paths.items():
            argv += [flag, path]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert calls == []
        assert csv_out.read_text() == "keep\n"
        assert not json_out.exists()

    @pytest.mark.parametrize("json_name", ["r.csv", "./r.csv", "link.csv"])
    def test_one_file_for_both_outputs_is_refused(self, json_name, tmp_path, capsys, monkeypatch):
        # the JSON would overwrite the CSV; a relative path or a symlink to
        # the same file is the same file
        calls = []
        monkeypatch.setattr(cli_module, "bench", lambda *a, **kw: calls.append(a) or [])
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.csv").symlink_to(tmp_path / "r.csv")
        argv = ["bench", "--config", "10:5", "--seeds", "1", "--out", str(tmp_path / "r.csv")]
        code, out, err = run(argv + ["--json-out", json_name], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("bench: ") and len(err.strip().splitlines()) == 1
        assert "--out and --json-out" in err
        assert calls == []
        assert not (tmp_path / "r.csv").exists()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            ["bench", "--config", "abc", "--seeds", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "option, value, form",
        [
            ("--config", "abc", "n:side"),
            ("--config", "10", "n:side"),
            ("--config", "10:x", "n:side"),
            ("--config", "10:5:1", "n:side"),
            ("--config", "10:5,2.5:3", "n:side"),
            ("--seeds", "x", "integers"),
            ("--seeds", "1,2.5", "integers"),
        ],
    )
    def test_malformed_value_names_option_and_form(self, option, value, form, tmp_path, capsys):
        args = {"--config": "10:5", "--seeds": "1", option: value}
        argv = ["bench", "--out", str(tmp_path / "x.csv")]
        for flag, text in args.items():
            argv += [flag, text]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"bench: {option} expects ")
        # the form, and the part that broke it
        assert form in err and repr(value.split(",")[-1]) in err
        assert "invalid literal" not in err and "could not convert" not in err

    @pytest.mark.parametrize(
        "config, seeds", [("0:5", "1"), ("5:-1", "1"), ("abc", "1"), ("10:5", ",")]
    )
    def test_bad_argument_with_m3_is_one_line(self, config, seeds, tmp_path, capsys):
        # the m >= 3 cost warning comes only after every argument is checked
        code, _, err = run(
            ["bench", "--m", "3", "--config", config, "--seeds", seeds,
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "warning" not in err


class TestVerifyCommand:
    def test_success_exit_0(self, capsys):
        code, out, _ = run(
            ["verify", "--trials", "10", "--n-max", "10", "--m-max", "2", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert "10/10 trials passed" in out

    def test_failure_exit_2(self, capsys, monkeypatch):
        def fake_verify(trials, n_max, m_max, seed, max_seconds=None):
            return VerificationReport(1, 1, 0, failures=["seed=1 n=2 m=1: boom"])

        monkeypatch.setattr(cli_module, "verify", fake_verify)
        code, _, err = run(
            ["verify", "--trials", "1", "--n-max", "2", "--m-max", "1", "--seed", "0"],
            capsys,
        )
        assert code == 2
        assert "FAIL" in err


class TestGenCommand:
    def test_bounds_and_count(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, _, _ = run(
            ["gen", "--n", "25", "--side", "6", "--seed", "9", "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 25

    def test_invalid_n(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "--n", "0", "--side", "6", "--seed", "9", "--out", str(tmp_path / "g")],
            capsys,
        )
        assert code == 1

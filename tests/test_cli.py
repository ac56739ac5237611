import gc
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import specsub.cli
from specsub import __version__, analyze_instance, sharp_example_2x2
from specsub.bounds import critical_strength, first_branch_point, kappa, second_branch_point
from specsub.cli import main
from specsub.fileio import (
    dumps,
    load_problem,
    parse_problem,
    parse_report,
    problem_payload,
    report_payload,
    sha256_digest,
)
from specsub.errors import ConvergenceFailure, ParseError
from specsub.harness import BOUND_CHECKS, Instance


def write_problem(tmp_path, inst, name="problem.json"):
    path = tmp_path / name
    path.write_text(dumps(problem_payload(inst)) + "\n", encoding="utf-8")
    return str(path)


def sharp_problem(tmp_path, v_plus=0.3, v_minus=0.2):
    inst, _ = sharp_example_2x2(v_plus, v_minus)
    return write_problem(tmp_path, inst)


class TestAnalyze:
    def test_sharp_file_reports_equality(self, tmp_path, capsys):
        path = sharp_problem(tmp_path)
        code = main(["analyze", path])
        out = capsys.readouterr().out
        assert code == 0
        doc = parse_report(out)
        rep = doc["report"]
        assert rep["measured_angle"] == pytest.approx(rep["favourable_bound"], abs=1e-12)
        assert doc["geometry"] == "favourable"
        assert rep["violations"] == []
        assert doc["tool_version"] == __version__

    def test_zero_perturbation_file(self, tmp_path, capsys):
        inst = Instance(
            a=np.diag([0.5, -0.5]),
            v=np.zeros((2, 2)),
            component_intervals=((0.25, 0.75),),
            seed=0,
            label="zero",
        )
        code = main(["analyze", write_problem(tmp_path, inst)])
        out = capsys.readouterr().out
        assert code == 0
        rep = parse_report(out)["report"]
        assert rep["measured_angle"] == pytest.approx(0.0, abs=1e-12)

    def test_large_perturbation_marks_bounds_inapplicable(self, tmp_path, capsys):
        inst = Instance(
            a=np.diag([0.5, -0.5]),
            v=np.diag([2.0, -2.0]),
            component_intervals=((0.25, 0.75),),
            seed=0,
            label="big",
        )
        code = main(["analyze", write_problem(tmp_path, inst)])
        out = capsys.readouterr().out
        assert code == 0
        rep = parse_report(out)["report"]
        assert not rep["gap_condition"]
        assert not rep["favourable_applicable"]
        assert not rep["generic_applicable"]
        assert rep["measured_angle"] is None
        assert rep["enclosure_ok"] is True

    def test_negative_tolerance_forces_violations(self, tmp_path, capsys):
        path = sharp_problem(tmp_path)
        code = main(["analyze", path, "--tol", "-1"])
        out = capsys.readouterr().out
        assert code == 2
        assert parse_report(out)["report"]["violations"]

    def test_violations_follow_the_check_table(self, tmp_path, capsys):
        path = sharp_problem(tmp_path)
        assert main(["analyze", path, "--tol", "-1"]) == 2
        names = [v["name"] for v in parse_report(capsys.readouterr().out)["report"]["violations"]]
        table = [check.name for check in BOUND_CHECKS]
        assert len(names) >= 2
        assert set(names) <= set(table)
        assert names == sorted(names, key=table.index)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_input_error(self, tmp_path, capsys, tol):
        path = sharp_problem(tmp_path)
        assert main(["analyze", path, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be finite" in captured.err

    def test_missing_file_is_input_error(self, capsys):
        code = main(["analyze", "/no/such/file.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [1,\n  2,,]}', encoding="utf-8")
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 2" in captured.err

    def test_non_hermitian_file_is_input_error(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "a": {"n": 2, "real": [[0.0, 1.0], [0.0, 0.0]]},
            "v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]},
            "sigma": [[-0.5, 0.5]],
        }
        path = tmp_path / "nonherm.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "Hermitian" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["analyze"]) == 1
        assert main(["no-such-command"]) == 1
        capsys.readouterr()


class TestReportRoundTrip:
    def test_emitted_report_reverifies_identically(self, tmp_path, capsys):
        path = sharp_problem(tmp_path)
        assert main(["analyze", path]) == 0
        first = capsys.readouterr().out
        doc = parse_report(first)
        inst, digest = load_problem(path)
        analysis = analyze_instance(inst)
        second = dumps(report_payload(analysis, __version__, digest)) + "\n"
        assert second == first
        assert parse_report(second) == doc

    def test_float_round_trip_is_lossless(self, tmp_path, capsys):
        path = sharp_problem(tmp_path, 0.123456789, 0.2)
        main(["analyze", path])
        doc = parse_report(capsys.readouterr().out)
        inst, _ = load_problem(path)
        rep = analyze_instance(inst).report
        assert doc["report"]["measured_angle"] == rep.measured_angle
        assert doc["report"]["favourable_bound"] == rep.favourable_bound
        assert doc["report"]["norm_plus"] == rep.norm_plus


class TestProblemParsing:
    def test_problem_requires_fields(self):
        with pytest.raises(ParseError):
            parse_problem('{"format_version": 1, "a": {"n": 1, "real": [[0.0]]}}')

    def test_problem_rejects_bad_matrix_shape(self):
        with pytest.raises(ParseError):
            parse_problem(
                '{"a": {"n": 2, "real": [[0.0]]}, '
                '"v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]}, '
                '"sigma": [[0.0, 1.0]]}'
            )

    def test_problem_rejects_overlapping_sigma(self):
        with pytest.raises(ParseError):
            parse_problem(
                '{"a": {"n": 2, "real": [[0.0, 0.0], [0.0, 1.0]]}, '
                '"v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]}, '
                '"sigma": [[0.0, 1.0], [0.5, 2.0]]}'
            )

    def test_complex_problem_round_trip(self, tmp_path):
        a = np.array([[1.0, 1j], [-1j, 5.0]])
        v = np.array([[0.1, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]])
        inst = Instance(
            a=a, v=v, component_intervals=((0.0, 2.0),), seed=0, label="complex"
        )
        path = write_problem(tmp_path, inst)
        loaded, digest = load_problem(path)
        assert np.array_equal(loaded.a, a)
        assert np.array_equal(loaded.v, v)
        assert digest.startswith("sha256:")


class TestBoundTable:
    def test_single_point(self, capsys):
        assert main(["bound-table", "--min", "0", "--max", "0", "--points", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,N,branch"
        x, value, branch = out[1].split(",")
        assert float(x) == 0.0 and float(value) == 0.0 and int(branch) == 1

    def test_endpoint_row(self, capsys):
        c = critical_strength()
        assert (
            main(["bound-table", "--min", "0", "--max", repr(c), "--points", "11"]) == 0
        )
        rows = capsys.readouterr().out.splitlines()[1:]
        last = rows[-1].split(",")
        assert float(last[0]) == pytest.approx(c, abs=1e-15)
        assert float(last[1]) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert int(last[2]) == 4

    def test_branch_changes_exactly_at_solved_constants(self, capsys):
        c = critical_strength()
        assert (
            main(["bound-table", "--min", "0", "--max", repr(c), "--points", "4001"])
            == 0
        )
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        constants = [first_branch_point(), second_branch_point(), kappa()]
        transitions = []
        for (x0, _, b0), (x1, _, b1) in zip(rows, rows[1:]):
            if b0 != b1:
                transitions.append((float(x0), float(x1), int(b0), int(b1)))
        assert [(b0, b1) for _, _, b0, b1 in transitions] == [(1, 2), (2, 3), (3, 4)]
        for (lo, hi, _, _), boundary in zip(transitions, constants):
            assert lo <= boundary < hi

    def test_floats_round_trip(self, capsys):
        main(["bound-table", "--min", "0.1", "--max", "0.2", "--points", "7"])
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            x, value, _ = row.split(",")
            assert repr(float(x)) == x
            assert repr(float(value)) == value

    def test_domain_validation(self, capsys):
        assert main(["bound-table", "--min", "0", "--max", "0.9", "--points", "5"]) == 1
        assert main(["bound-table", "--min", "0", "--max", "0.1", "--points", "0"]) == 1
        capsys.readouterr()


class TestKappaCommand:
    def test_output_contents(self, capsys):
        assert main(["kappa"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        value = float(lines[0].split("=")[1])
        lo, hi = kappa_bracket_values(lines[1])
        residual = float(lines[2].split("=")[1])
        assert lo < value < hi
        assert residual <= 1e-13
        assert len(lines[0].split("=")[1].strip()) >= 15

    def test_repeat_is_identical(self, capsys):
        main(["kappa"])
        first = capsys.readouterr().out
        main(["kappa"])
        second = capsys.readouterr().out
        assert first == second


def kappa_bracket_values(line):
    inner = line.split("=")[1].strip().strip("()")
    lo, hi = inner.split(",")
    return float(lo), float(hi)


class TestSharpCommand:
    def test_balanced_case(self, capsys):
        assert main(["sharp", "--vplus", "0.25", "--vminus", "0.25"]) == 0
        captured = capsys.readouterr()
        rep = parse_report(captured.out)["report"]
        assert rep["measured_angle"] == pytest.approx(math.pi / 12.0, abs=1e-11)
        assert rep["favourable_bound"] == pytest.approx(math.pi / 12.0, abs=1e-11)
        assert "measured_angle" in captured.err

    def test_semidefinite_case(self, capsys):
        assert main(["sharp", "--vplus", "0", "--vminus", "0.5"]) == 0
        rep = parse_report(capsys.readouterr().out)["report"]
        assert rep["favourable_bound"] == pytest.approx(
            0.5 * math.asin(0.5), abs=1e-12
        )

    def test_rejects_total_strength_one(self, capsys):
        assert main(["sharp", "--vplus", "0.5", "--vminus", "0.5"]) == 1
        assert "error" in capsys.readouterr().err


class TestFuzzCommand:
    def test_small_campaign_clean(self, capsys):
        code = main(
            ["fuzz", "--n", "6", "--count", "20", "--scale", "0.9", "--seed", "42"]
        )
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["checked"] == 20
        assert summary["violations"] == 0
        assert summary["per_bound"]["enclosure"]["applicable"] == 20
        assert summary["per_bound"]["favourable_bound"]["violations"] == 0

    def test_zero_scale(self, capsys):
        code = main(
            ["fuzz", "--n", "4", "--count", "5", "--scale", "0", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_jobs_do_not_change_summary(self, capsys):
        args = ["fuzz", "--n", "5", "--count", "12", "--scale", "0.8", "--seed", "7"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_jobs_do_not_change_reports(self, tmp_path, capsys):
        # 40 instances in chunks of 32 give both workers a share
        args = ["fuzz", "--n", "5", "--count", "40", "--scale", "0.8", "--seed", "9"]
        texts = {}
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            assert main(args + ["--jobs", jobs, "--out", str(out_dir)]) == 0
            capsys.readouterr()
            texts[jobs] = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        assert len(texts["1"]) == 40
        assert texts["1"] == texts["2"]

    @pytest.mark.parametrize(
        "jobs, count, cpus, workers",
        [(4096, 2, 8, 2), (4096, 50, 3, 3), (3, 50, 8, 3), (4, 1, 8, None), (4, 50, None, None)],
    )
    def test_jobs_start_no_more_workers_than_usable(
        self, monkeypatch, capsys, jobs, count, cpus, workers
    ):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(specsub.cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(specsub.cli.os, "cpu_count", lambda: cpus)
        args = ["fuzz", "--n", "4", "--count", str(count), "--scale", "0.5", "--seed", "2"]
        assert main(args + ["--jobs", str(jobs)]) == 0
        pooled = capsys.readouterr().out
        assert started == ([] if workers is None else [workers])
        assert main(args) == 0
        assert capsys.readouterr().out == pooled

    def test_per_bound_follows_the_check_table(self, capsys):
        assert main(["fuzz", "--n", "4", "--count", "3", "--scale", "0.5", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary["per_bound"]) == [check.name for check in BOUND_CHECKS]

    def test_out_directory_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            [
                "fuzz",
                "--n", "5",
                "--count", "4",
                "--scale", "0.5",
                "--seed", "3",
                "--out", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == [f"instance-{i:06d}.json" for i in range(4)]
        doc = parse_report((out_dir / files[0]).read_text(encoding="utf-8"))
        assert doc["report"]["violations"] == []

    def test_invalid_parameters(self, capsys):
        assert main(["fuzz", "--n", "1", "--count", "5", "--scale", "0.5", "--seed", "1"]) == 1
        assert main(["fuzz", "--n", "4", "--count", "0", "--scale", "0.5", "--seed", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_scale_is_input_error(self, capsys, scale):
        assert main(["fuzz", "--n", "4", "--count", "2", f"--scale={scale}", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite scale" in captured.err


def fuzz_args(count, out_dir=None, n=8):
    args = ["fuzz", "--n", str(n), "--count", str(count), "--scale", "0.9", "--seed", "4"]
    return args + (["--out", str(out_dir)] if out_dir is not None else [])


def traced_peak(args):
    """Peak traced memory of one in-process fuzz run, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


class EagerPool:
    """A pool that runs each map call to completion when it is made, as a
    fast real pool would, and hands out the results in order."""

    def __init__(self, max_workers):
        self.workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return iter([fn(task) for task in tasks])


class TestFuzzStreaming:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_memory_is_flat_in_count(self, monkeypatch, tmp_path, capsys, pooled):
        if pooled:
            # windows of 4 * 2 * 2 = 16 tasks, so 50 instances already fill two
            monkeypatch.setattr(specsub.cli, "ProcessPoolExecutor", EagerPool)
            monkeypatch.setattr(specsub.cli.os, "cpu_count", lambda: 2)
            monkeypatch.setattr(specsub.cli, "_CHUNKSIZE", 2)
        jobs = ["--jobs", "2"] if pooled else []
        main(fuzz_args(5, tmp_path / "warm") + jobs)  # one-time set-up is not traced
        small = traced_peak(fuzz_args(50, tmp_path / "small") + jobs)
        large = traced_peak(fuzz_args(400, tmp_path / "large") + jobs)
        capsys.readouterr()
        assert len(os.listdir(tmp_path / "large")) == 400
        assert large <= 1.2 * small, (small, large)

    def test_pool_is_fed_fixed_windows_in_order(self, monkeypatch, capsys):
        pools = []
        events = []

        class RecordingPool(EagerPool):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.calls = []
                pools.append(self)

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                window = len(self.calls)
                self.calls.append((tasks, chunksize))
                events.append(("map", window))
                results = super().map(fn, tasks, chunksize)

                def drain():
                    for result in results:
                        events.append(("result", window))
                        yield result

                return drain()

        monkeypatch.setattr(specsub.cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(specsub.cli.os, "cpu_count", lambda: 2)
        count = 600
        assert main(fuzz_args(count, n=4) + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        (pool,) = pools
        size = specsub.cli._WINDOW_CHUNKS * pool.workers * specsub.cli._CHUNKSIZE
        windows = [tasks for tasks, _ in pool.calls]
        assert len(windows) == math.ceil(count / size) >= 3
        assert all(len(w) <= size for w in windows)
        assert all(chunksize == specsub.cli._CHUNKSIZE for _, chunksize in pool.calls)
        assert [task[0] for w in windows for task in w] == list(range(count))
        # each window is submitted before the one ahead of it yields a result
        for k in range(1, len(windows)):
            assert events.index(("map", k)) < events.index(("result", k - 1))
        assert main(fuzz_args(count, n=4)) == 0
        assert capsys.readouterr().out == pooled

    def test_reports_before_a_failure_stay_on_disk(self, monkeypatch, tmp_path, capsys):
        assert main(fuzz_args(12, tmp_path / "clean")) == 0
        calls = []

        def failing_at_seven(inst, *args, **kwargs):
            calls.append(inst)
            if len(calls) == 8:
                raise ConvergenceFailure("forced failure at index 7")
            return analyze_instance(inst, *args, **kwargs)

        monkeypatch.setattr(specsub.cli, "analyze_instance", failing_at_seven)
        assert main(fuzz_args(12, tmp_path / "broken")) == 1
        captured = capsys.readouterr()
        assert "forced failure at index 7" in captured.err
        written = sorted(os.listdir(tmp_path / "broken"))
        assert written == [f"instance-{i:06d}.json" for i in range(7)]
        for name in written:
            clean = (tmp_path / "clean" / name).read_bytes()
            assert (tmp_path / "broken" / name).read_bytes() == clean

    def test_report_files_are_closed_in_bounded_groups(self, monkeypatch, tmp_path, capsys):
        assert main(fuzz_args(10, tmp_path / "clean")) == 0
        clean_summary = capsys.readouterr().out
        rewritten = tmp_path / "rewritten"
        rewritten.mkdir()
        for i in range(10):  # longer stale reports, which a rewrite must replace
            (rewritten / f"instance-{i:06d}.json").write_bytes(b"x" * 100_000)
        groups = []
        close_all = specsub.cli._close_all

        def recording(fds):
            if fds:
                groups.append(len(fds))
            close_all(fds)

        monkeypatch.setattr(specsub.cli, "_OPEN_REPORTS", 3)
        monkeypatch.setattr(specsub.cli, "_close_all", recording)
        assert main(fuzz_args(10, rewritten)) == 0
        assert groups == [3, 3, 3, 1]
        assert capsys.readouterr().out == clean_summary
        for i in range(10):
            name = f"instance-{i:06d}.json"
            assert (rewritten / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_report_file_stays_open(self, monkeypatch, tmp_path, capsys):
        before = len(os.listdir("/proc/self/fd"))
        assert main(fuzz_args(20, tmp_path / "clean")) == 0
        assert len(os.listdir("/proc/self/fd")) == before

        calls = []

        def failing_at_six(inst, *args, **kwargs):
            calls.append(inst)
            if len(calls) == 7:
                raise ConvergenceFailure("forced failure at index 6")
            return analyze_instance(inst, *args, **kwargs)

        # reports 0-3 are closed as a group, and 4-5 are still open at the failure
        monkeypatch.setattr(specsub.cli, "_OPEN_REPORTS", 4)
        monkeypatch.setattr(specsub.cli, "analyze_instance", failing_at_six)
        assert main(fuzz_args(9, tmp_path / "broken")) == 1
        capsys.readouterr()
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(os.listdir(tmp_path / "broken")) == 6


class TestSerializer:
    def test_seventeen_digit_floats(self):
        text = dumps({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_integral_floats_stay_floats(self):
        text = dumps({"x": 1.0})
        assert '"x": 1.0' in text
        assert json.loads(text)["x"] == 1.0

    def test_digest_stable(self):
        assert sha256_digest(b"abc") == sha256_digest(b"abc")
        assert sha256_digest(b"abc") != sha256_digest(b"abd")

import collections
import concurrent.futures
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import specsub.cli
import specsub.harness
from specsub import __version__, analyze_instance, sharp_example_2x2
from specsub.bounds import critical_strength, first_branch_point, kappa, second_branch_point
from specsub.cli import main
from specsub.fileio import (
    dumps,
    load_problem,
    parse_problem,
    parse_report,
    problem_digest,
    problem_payload,
    report_payload,
)
from specsub.errors import ConvergenceFailure, ParseError
from specsub.harness import ANGLE_SLACK, BOUND_CHECKS, Instance, _fuzz_instance
from specsub.linalg import SpectralDecomposition

from referee import referee


def assert_one_error_line(captured):
    """An input error: nothing on stdout and one `error:` line, not a traceback, on stderr."""
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def run_cli_process(argv, **kwargs):
    """`python -m specsub.cli *argv` in a subprocess on one BLAS thread, output captured."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "specsub.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs,
    )


def write_problem(tmp_path, inst, name="problem.json"):
    path = tmp_path / name
    path.write_text(dumps(problem_payload(inst)) + "\n", encoding="utf-8")
    return str(path)


def sharp_problem(tmp_path, v_plus=0.3, v_minus=0.2):
    inst, _ = sharp_example_2x2(v_plus, v_minus)
    return write_problem(tmp_path, inst)


def set_angle_slack(monkeypatch, slack):
    """Give the angle rows of the check table `slack`; a report reads the table for its checks."""
    monkeypatch.setattr(specsub.harness, "BOUND_CHECKS", tuple(
        check._replace(slack=slack) if check.slack == ANGLE_SLACK else check
        for check in BOUND_CHECKS
    ))


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
            label="big",
        )
        code = main(["analyze", write_problem(tmp_path, inst)])
        out = capsys.readouterr().out
        assert code == 0
        doc = parse_report(out)
        rep = doc["report"]
        assert rep["favourable_bound"] is None
        assert rep["generic_bound"] is None
        assert rep["measured_angle"] is None
        assert doc["singular_values"] is None
        assert rep["enclosure_ok"] is True

    def test_negative_tolerance_forces_violations(self, monkeypatch, tmp_path, capsys):
        path = sharp_problem(tmp_path)
        set_angle_slack(monkeypatch, -1.0)
        code = main(["analyze", path])
        out = capsys.readouterr().out
        assert code == 2
        assert parse_report(out)["report"]["violations"]

    def test_violations_follow_the_check_table(self, monkeypatch, tmp_path, capsys):
        path = sharp_problem(tmp_path)
        set_angle_slack(monkeypatch, -1.0)
        assert main(["analyze", path]) == 2
        names = [v["name"] for v in parse_report(capsys.readouterr().out)["report"]["violations"]]
        table = [check.name for check in BOUND_CHECKS]
        assert len(names) >= 2
        assert set(names) <= set(table)
        assert names == sorted(names, key=table.index)

    def test_tolerance_is_a_usage_error(self, tmp_path, capsys):
        # every check's slack is fixed in the check table; none is set per call
        assert main(["analyze", sharp_problem(tmp_path), "--tol", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --tol 1\n"

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

    def test_integer_literal_too_long_to_read_is_input_error(self, tmp_path, capsys):
        # json.loads refuses an int of over 4300 digits with a bare ValueError
        path = tmp_path / "long.json"
        path.write_text(
            '{"a": {"n": 1, "real": [[' + "1" * 5001 + ']]}, '
            '"v": {"n": 1, "real": [[0.0]]}, "sigma": [[-0.5, 0.5]]}',
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

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

    def test_overflowing_spectrum_is_input_error(self, tmp_path, capsys):
        # finite entries whose eigenvalue 2e308 overflows: one error line, and
        # pytest turns any numpy warning into a failure
        inst = Instance(
            a=np.array([[1e308, 1e308], [1e308, 1e308]]), v=np.zeros((2, 2)),
            component_intervals=((-1.0, 1.0),), label="overflow",
        )
        assert main(["analyze", write_problem(tmp_path, inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "non-finite eigenvalue" in captured.err

    def test_overflowing_asymmetry_is_input_error(self, tmp_path, capsys):
        # the asymmetry 2e308 overflows: one error line, no numpy warning
        inst = Instance(
            a=np.array([[0.0, 1e308], [-1e308, 0.0]]), v=np.zeros((2, 2)),
            component_intervals=((-1.0, 1.0),), label="overflow",
        )
        assert main(["analyze", write_problem(tmp_path, inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not Hermitian" in captured.err

    def test_overflowing_sum_is_input_error(self, tmp_path, capsys):
        # ||A|| + ||V|| = 2.5e308 overflows: one error line, no numpy warning
        inst = Instance(
            a=np.diag([1.5e308, 0.0]), v=np.diag([1e308, 0.0]),
            component_intervals=((-0.5, 0.5),), label="overflow",
        )
        assert main(["analyze", write_problem(tmp_path, inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflows" in captured.err

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
        inst = load_problem(path)
        analysis = analyze_instance(inst)
        second = dumps(report_payload(analysis)) + "\n"
        assert second == first
        assert parse_report(second) == doc

    def test_float_round_trip_is_lossless(self, tmp_path, capsys):
        path = sharp_problem(tmp_path, 0.123456789, 0.2)
        main(["analyze", path])
        doc = parse_report(capsys.readouterr().out)
        inst = load_problem(path)
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

    @pytest.mark.parametrize("sigma", [[[0, 1], [0.5, 2]], [[0, 1], [1, 2]]], ids=["overlap", "touch"])
    def test_sigma_intervals_must_be_disjoint(self, tmp_path, capsys, sigma):
        doc = {
            "a": {"n": 2, "real": [[0.0, 0.0], [0.0, 1.0]]},
            "v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]},
            "sigma": sigma,
        }
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "pairwise disjoint" in captured.err

    @pytest.mark.parametrize("entry", [{"lo": 0.25}, [0.25, 0.75, "junk"], [0.25], [True, 1.0]])
    def test_sigma_entry_must_be_two_numbers(self, tmp_path, capsys, entry):
        doc = {
            "a": {"n": 2, "real": [[0.5, 0.0], [0.0, -0.5]]},
            "v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]},
            "sigma": [entry],
        }
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sigma[0] must be a list of two numbers")

    @pytest.mark.parametrize("n", ["2.7", '"2"', "true", "2.0"])
    def test_block_n_must_be_a_json_integer(self, n):
        with pytest.raises(ParseError, match=r"a\.n must be a JSON integer"):
            parse_problem(
                f'{{"a": {{"n": {n}, "real": [[0.0, 0.0], [0.0, 1.0]]}}, '
                '"v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]}, '
                '"sigma": [[-0.5, 0.5]]}'
            )

    # numpy would convert each of these to a float
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("entry", ['"0.5"', '"0"', "true", "false"])
    def test_matrix_entries_must_be_json_numbers(self, tmp_path, capsys, part, entry):
        other = "imag" if part == "real" else "real"
        path = tmp_path / "entries.json"
        path.write_text(
            '{"a": {"n": 2, "real": [[0.5, 0.0], [0.0, -0.5]]}, '
            f'"v": {{"n": 2, "{part}": [[{entry}, 0.0], [0.0, 0.0]], '
            f'"{other}": [[0.0, 0.0], [0.0, 0.0]]}}, '
            '"sigma": [[0.25, 0.75]]}',
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: v.{part} entries must be JSON numbers")

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_problem_format_version_must_be_a_json_integer(self, tmp_path, capsys, version):
        path = tmp_path / "version.json"
        path.write_text(
            f'{{"format_version": {version}, '
            '"a": {"n": 2, "real": [[0.5, 0.0], [0.0, -0.5]]}, '
            '"v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]}, '
            '"sigma": [[0.25, 0.75]]}',
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = f"error: unsupported format_version {json.loads(version)!r}"
        assert captured.err.startswith(expected)

    @pytest.mark.parametrize("version", ["2.0", "true", '"2"'])
    def test_report_format_version_must_be_a_json_integer(self, tmp_path, capsys, version):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        assert main(["analyze", write_problem(tmp_path, inst)]) == 0
        text = capsys.readouterr().out
        assert parse_report(text)["format_version"] == 5
        with pytest.raises(ParseError, match="format_version"):
            parse_report(text.replace('"format_version": 5,', f'"format_version": {version},', 1))

    # 1e400 overflows to inf in json.loads; a 401-digit integer has no float
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize(
        "value", ["1e400", "-1e400", "1" + "0" * 400], ids=["inf", "-inf", "big-int"]
    )
    def test_non_finite_entries_fail_at_parse_time(self, part, value):
        other = "imag" if part == "real" else "real"
        text = (
            '{"a": {"n": 1, "real": [[0.0]]}, '
            f'"v": {{"n": 1, "{part}": [[{value}]], "{other}": [[0.0]]}}, '
            '"sigma": [[-0.5, 0.5]]}'
        )
        with pytest.raises(ParseError, match=rf"^v\.{part} "):
            parse_problem(text)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('[{"n": 1}]', "top level must be an object"),
            ('{"a": [[0.0]], "v": {"n": 1, "real": [[0.0]]}, "sigma": [[-0.5, 0.5]]}',
             "a must be an object"),
            ('{"a": {"n": 0, "real": []}, "v": {"n": 1, "real": [[0.0]]}, "sigma": [[-0.5, 0.5]]}',
             r"a\.n must be positive"),
            ('{"a": {"n": 1, "real": [[0.0]]}, "v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]}, '
             '"sigma": [[-0.5, 0.5]]}', "a and v disagree on dimension"),
            ('{"a": {"n": 1, "real": [[0.0]]}, "v": {"n": 1, "real": [[0.0]]}, "sigma": []}',
             "sigma must be a nonempty list"),
            ('{"a": {"n": 1, "real": [[0.0]]}, "v": {"n": 1, "real": [[0.0]]}, '
             '"sigma": [[0.5, 0.75], [-0.75, -0.5]]}', "sorted by lower endpoint"),
        ],
        ids=["top-level", "block", "block-n", "dimensions", "empty-sigma", "unsorted-sigma"],
    )
    def test_schema_errors_name_the_field(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_problem(doc)

    # an endpoint beyond the float range, non-finite or reversed
    @pytest.mark.parametrize(
        "pair",
        ["[1e400, 2.0]", "[-1e400, 2.0]", "[NaN, 2.0]", f"[{'1' + '0' * 400}, 2.0]", "[0.75, 0.25]"],
        ids=["inf", "-inf", "nan", "big-int", "reversed"],
    )
    def test_sigma_endpoints_are_finite_and_ordered(self, tmp_path, capsys, pair):
        text = (
            '{"a": {"n": 2, "real": [[0.5, 0.0], [0.0, -0.5]]}, '
            '"v": {"n": 2, "real": [[0.0, 0.0], [0.0, 0.0]]}, '
            f'"sigma": [{pair}]}}'
        )
        with pytest.raises(ParseError, match=r"sigma\[0\]"):
            parse_problem(text)
        path = tmp_path / "sigma.json"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "sigma[0]" in captured.err

    def test_report_must_be_an_object(self):
        with pytest.raises(ParseError, match="not a report document"):
            parse_report("[]")

    def test_complex_problem_round_trip(self, tmp_path):
        a = np.array([[1.0, 1j], [-1j, 5.0]])
        v = np.array([[0.1, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]])
        inst = Instance(a=a, v=v, component_intervals=((0.0, 2.0),), label="complex")
        path = write_problem(tmp_path, inst)
        loaded = load_problem(path)
        assert np.array_equal(loaded.a, a)
        assert np.array_equal(loaded.v, v)
        assert problem_digest(loaded) == problem_digest(inst)


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

    @pytest.mark.parametrize(
        "x_min, x_max, points",
        [
            ("0", "0.9", "5"),
            ("0", "0.1", "0"),
            ("0", "0.1", "-1"),
            ("0", "0.1", str(10**20)),  # beyond sys.maxsize
            # beyond the largest float64 grid numpy can size
            ("0", "0.1", str(sys.maxsize // 16 + 1)),
            ("0", "0.1", str(2**60)),
            ("0", "0.1", str(sys.maxsize)),
            ("nan", "0.1", "5"),
            ("0", "inf", "5"),
            ("0.2", "0.1", "5"),
        ],
    )
    def test_domain_validation(self, capsys, x_min, x_max, points):
        argv = ["bound-table", f"--min={x_min}", f"--max={x_max}", f"--points={points}"]
        assert main(argv) == 1
        assert_one_error_line(capsys.readouterr())


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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 13: near s/d = 1 the bound side's rounding, amplified by "
        "1/(2 cos 2 theta), exceeds ANGLE_SLACK and reads as a favourable_bound violation",
    )
    def test_sharp_family_near_the_gap_edge(self, capsys):
        # the bound is attained on this family, so no check may fail; today
        # favourable_bound fails by 1.22e-9, above ANGLE_SLACK
        assert main(["sharp", "--vplus", "0.4999999999999999", "--vminus", "0.5"]) == 0

    def test_near_edge_instance_meets_the_favourable_bound(self):
        # the float instance above, its entries taken as exact, attains the
        # bound only to 1.88e-10: it meets it, and no check should fail
        exact = referee(sharp_example_2x2(0.4999999999999999, 0.5)[0])
        assert exact.favourable_bound - exact.angle == pytest.approx(1.88e-10, rel=0.01)

    def test_near_edge_report_errs_on_the_bound_side(self, capsys):
        # the measured angle is exact to rounding; the bound side, reading
        # eigvalsh norms through 1/(2 cos 2 theta), is low by 1.41e-9
        main(["sharp", "--vplus", "0.4999999999999999", "--vminus", "0.5"])
        report = parse_report(capsys.readouterr().out)["report"]
        exact = referee(sharp_example_2x2(0.4999999999999999, 0.5)[0])
        assert abs(report["measured_angle"] - exact.angle) < 1e-15
        assert exact.favourable_bound - report["favourable_bound"] > ANGLE_SLACK


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
        [
            (4096, 2, 8, 2), (10**20, 2, 8, 2), (4096, 50, 3, 3), (3, 50, 8, 3),
            (4, 1, 8, None), (4, 50, None, None),
        ],
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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

    def test_checks_are_evaluated_once_per_instance(self, monkeypatch, tmp_path, capsys):
        # the tally and the report document share one evaluation of the table
        calls = collections.Counter()

        def counted(name, side, read):
            def reader(report):
                calls[name, side] += 1
                return read(report)
            return reader

        monkeypatch.setattr(specsub.harness, "BOUND_CHECKS", tuple(
            check._replace(
                measured=counted(check.name, "measured", check.measured),
                bound=counted(check.name, "bound", check.bound),
            )
            for check in BOUND_CHECKS
        ))
        assert main(fuzz_args(1, tmp_path)) == 0
        capsys.readouterr()
        assert calls == {
            (check.name, side): 1 for check in BOUND_CHECKS for side in ("measured", "bound")
        }

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

    @pytest.mark.parametrize("n", [8, 32])
    def test_reports_replay_through_analyze(self, tmp_path, capsys, n):
        # even indices draw a separated component, odd ones an interlaced one
        count = 6
        assert main(fuzz_args(count, tmp_path / "reports", n=n)) == 0
        capsys.readouterr()
        for index in range(count):
            inst = _fuzz_instance(4, index, n, 0.9)
            path = write_problem(tmp_path, inst, f"problem-{index}.json")
            assert main(["analyze", path]) == 0
            replayed = capsys.readouterr().out
            fuzzed = (tmp_path / "reports" / f"instance-{index:06d}.json").read_text("utf-8")
            label = f'"label": {dumps(inst.label)},'
            assert fuzzed.count(label) == 1
            assert replayed == fuzzed.replace(label, f'"label": {dumps(path)},')

    def test_enclosure_failure_is_a_violation(self, monkeypatch, tmp_path, capsys):
        # every decomposition of A + V reports its eigenvalues 0.4 too high:
        # the campaign runs to its summary and exits 2
        # (A's decomposition is the one of the matrix harness validated last)
        validate, real = specsub.harness.require_hermitian, specsub.harness.decompose
        validated = [None]

        def recorded(a, name="matrix"):
            validated[0] = validate(a, name=name)
            return validated[0]

        def shifted(h):
            dec = real(h)
            if h is validated[0]:
                return dec
            return SpectralDecomposition(dec.eigenvalues + 0.4, dec.eigenvectors)

        monkeypatch.setattr(specsub.harness, "require_hermitian", recorded)
        monkeypatch.setattr(specsub.harness, "decompose", shifted)
        assert main(fuzz_args(20, tmp_path / "reports")) == 2
        summary = json.loads(capsys.readouterr().out)
        enclosure = summary["per_bound"]["enclosure"]
        assert summary["checked"] == 20
        assert 0 < enclosure["violations"] == summary["violations"]
        assert enclosure["max_slack"] == summary["max_slack"] > 0.0
        failed = 0
        for name in os.listdir(tmp_path / "reports"):
            report = parse_report((tmp_path / "reports" / name).read_text("utf-8"))["report"]
            flagged = [{"name": "enclosure", "slack": report["enclosure_excess"]}]
            assert report["violations"] == ([] if report["enclosure_ok"] else flagged)
            failed += not report["enclosure_ok"]
        assert failed == enclosure["violations"]

    @pytest.mark.parametrize(
        "n, count, jobs",
        [
            ("1", "5", "1"),
            ("4", "0", "1"),
            (str(10**20), "1", "1"),  # beyond sys.maxsize
            # beyond the largest n x n complex128 matrix numpy can size
            (str(2**40), "1", "1"),
            (str(2**62), "1", "1"),
            (str(sys.maxsize), "1", "1"),
            ("4", "2", "0"),
        ],
    )
    def test_invalid_parameters(self, tmp_path, capsys, n, count, jobs):
        argv = ["fuzz", "--n", n, "--count", count, "--scale", "0.5", "--seed", "1"]
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / "reports")]) == 1
        assert_one_error_line(capsys.readouterr())
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_scale_is_input_error(self, capsys, scale):
        assert main(["fuzz", "--n", "4", "--count", "2", f"--scale={scale}", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite scale" in captured.err

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["fuzz", "--n", "4", "--count", "2", "--scale", "0.5", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "seed >= 0" in captured.err



_LARGEST_N = math.isqrt(sys.maxsize // 16)  # of an n x n complex128 matrix
_LARGEST_POINTS = sys.maxsize // 16  # of a float64 grid numpy sizes by a float count
_FUZZ = ["fuzz", "--count", "1", "--scale", "0.5", "--seed", "1", "--n"]
_TABLE = ["bound-table", "--min", "0", "--max", "0.1", "--points"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_FUZZ + [str(_LARGEST_N)], "error: out of memory"),
        (_FUZZ + [str(_LARGEST_N + 1)],
         f"error: n must be an integer with n >= 2 and n <= {_LARGEST_N},"),
        (_TABLE + [str(_LARGEST_POINTS)], "error: out of memory"),
        (_TABLE + [str(_LARGEST_POINTS + 1)],
         f"error: points must be an integer with points >= 1 and points <= {_LARGEST_POINTS},"),
    ],
    ids=["fuzz-n", "fuzz-n-over", "bound-table-points", "bound-table-points-over"],
)
def test_sizes_at_the_cap(argv, message):
    # under a 1 GiB address-space limit, so no allocation it asks for can succeed
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    proc = run_cli_process(
        argv, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


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
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", EagerPool)
            monkeypatch.setattr(specsub.cli.os, "cpu_count", lambda: 2)
            monkeypatch.setattr(specsub.cli, "_CHUNKSIZE", 2)
        jobs = ["--jobs", "2"] if pooled else []
        main(fuzz_args(5, tmp_path / "warm") + jobs)  # one-time set-up is not traced
        small = traced_peak(fuzz_args(50, tmp_path / "small") + jobs)
        large = traced_peak(fuzz_args(400, tmp_path / "large") + jobs)
        capsys.readouterr()
        assert len(os.listdir(tmp_path / "large")) == 400
        assert large <= 1.2 * small, (small, large)

    def test_analysis_is_dropped_before_the_report_text(self, monkeypatch, tmp_path, capsys):
        analyses = []
        held_at_dumps = []
        real_analyze, real_dumps = specsub.cli.analyze_instance, specsub.cli.fileio.dumps

        def analyze(inst):
            analysis = real_analyze(inst)
            analyses.append(weakref.ref(analysis))
            return analysis

        def dumps(obj):
            held_at_dumps.append(sum(ref() is not None for ref in analyses))
            return real_dumps(obj)

        monkeypatch.setattr(specsub.cli, "analyze_instance", analyze)
        monkeypatch.setattr(specsub.cli.fileio, "dumps", dumps)
        assert main(fuzz_args(4, tmp_path)) == 0
        capsys.readouterr()
        # four report texts, then the summary
        assert len(analyses) == 4
        assert held_at_dumps == [0] * 5

    def test_report_text_is_dropped_before_the_next_instance(self, monkeypatch, tmp_path, capsys):
        class Text(str):  # a str subclass, as str itself takes no weakref
            pass

        texts = []
        held_at_next = []
        real_results = specsub.cli._fuzz_results

        def results(tasks, workers):
            for index, checks, text in real_results(tasks, workers):
                held_at_next.append(sum(ref() is not None for ref in texts))
                text = Text(text)
                texts.append(weakref.ref(text))
                yield index, checks, text
                del text  # so that only the fuzz loop can hold it

        monkeypatch.setattr(specsub.cli, "_fuzz_results", results)
        assert main(fuzz_args(4, tmp_path)) == 0
        capsys.readouterr()
        assert len(texts) == 4
        assert held_at_next == [0] * 4
        assert all((tmp_path / f"instance-{i:06d}.json").stat().st_size for i in range(4))

    def test_runs_leave_no_cyclic_garbage(self, capsys):
        # garbage left for the cyclic collector would make the traced peak of
        # a run depend on when the collector last ran
        main(fuzz_args(3))
        gc.collect()
        main(fuzz_args(3))
        main(["kappa"])
        capsys.readouterr()
        assert gc.collect() == 0

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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

    @staticmethod
    def fail_at(monkeypatch, tmp_path, capsys, name, index, exc):
        """Fuzz with specsub.cli's `name` raising `exc` at `index`; returns stderr.

        The reports of the instances before `index` stay on disk, byte for
        byte as a clean run writes them.
        """
        assert main(fuzz_args(index + 5, tmp_path / "clean")) == 0
        capsys.readouterr()
        real = getattr(specsub.cli, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == index + 1:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(specsub.cli, name, failing)
        assert main(fuzz_args(index + 5, tmp_path / "broken")) == 1
        written = sorted(os.listdir(tmp_path / "broken"))
        assert written == [f"instance-{i:06d}.json" for i in range(index)]
        for report in written:
            clean = (tmp_path / "clean" / report).read_bytes()
            assert (tmp_path / "broken" / report).read_bytes() == clean
        return capsys.readouterr().err

    def test_reports_before_a_failure_stay_on_disk(self, monkeypatch, tmp_path, capsys):
        exc = ConvergenceFailure("forced failure at index 7")
        err = self.fail_at(monkeypatch, tmp_path, capsys, "analyze_instance", 7, exc)
        assert "forced failure at index 7" in err

    def test_out_of_memory_is_an_error_line(self, monkeypatch, tmp_path, capsys):
        exc = MemoryError("Unable to allocate 74.5 GiB")
        err = self.fail_at(monkeypatch, tmp_path, capsys, "_fuzz_instance", 3, exc)
        assert err == "error: out of memory: Unable to allocate 74.5 GiB\n"

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


def failing_routine(*args, **kwargs):
    """A stand-in for a numpy.linalg routine whose LAPACK call fails."""
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh", "svd"])
def test_eigensolver_error_is_an_input_error(monkeypatch, tmp_path, capsys, solver):
    # numpy's LinAlgError from any solver ends `analyze` as any input error does
    path = sharp_problem(tmp_path)
    monkeypatch.setattr(np.linalg, solver, failing_routine)
    assert main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err == "error: eigensolver failed: did not converge\n"


@pytest.mark.parametrize("routine", ["qr", "eigvalsh", "svd"])
def test_lapack_error_ends_a_fuzz_campaign_with_one_error_line(monkeypatch, capsys, routine):
    # qr and eigvalsh fail in the generator, svd in the angle measurement
    monkeypatch.setattr(np.linalg, routine, failing_routine)
    assert main(["fuzz", "--n", "8", "--count", "5", "--scale", "0.9", "--seed", "42"]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err == "error: eigensolver failed: did not converge\n"


def test_non_finite_eigenvalue_ends_a_fuzz_campaign_with_one_error_line(monkeypatch, capsys):
    # the generator draws V once, so a NaN strength fails at once rather than looping
    calls = []

    def nan_eigenvalues(arr):
        calls.append(arr.shape)
        assert len(calls) == 1, "V redrawn"
        return np.full(arr.shape[0], np.nan)

    monkeypatch.setattr(np.linalg, "eigvalsh", nan_eigenvalues)
    assert main(["fuzz", "--n", "8", "--count", "3", "--scale", "0.9", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err == "error: eigensolver returned a non-finite eigenvalue\n"
    assert calls == [(8, 8)]


def test_overflowing_scale_is_one_error_line():
    # a subprocess with Python's default warning filters, which print numpy's
    # RuntimeWarning on stderr, where pytest would turn it into an exception
    argv = ["fuzz", "--n", "2", "--count", "200", "--scale", "1e308", "--seed", "1"]
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: need scale * d_target in the float range, got scale 1e+308\n"


def test_deeply_nested_problem_is_an_input_error(tmp_path, capsys):
    # json.loads raises RecursionError on arrays nested past the recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err.startswith("error: nested too deeply: ")

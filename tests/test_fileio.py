"""The serializer against a reference copy of its original recursive emitter."""

import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from specsub import __version__, analyze_instance, random_instance, sharp_example_2x2
from specsub.errors import ParseError
from specsub.fileio import (
    REPORT_FORMAT_VERSION,
    dumps,
    parse_problem,
    parse_report,
    problem_digest,
    problem_payload,
    report_payload,
)
from specsub.harness import Instance


def reference_dumps(obj):
    pieces = []
    _reference_emit(obj, pieces, 0)
    return "".join(pieces)


def _reference_format_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _reference_emit(obj, out, level):
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_reference_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _reference_emit(value, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad)
            _reference_emit(value, out, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def assert_same_output(obj):
    try:
        expected = reference_dumps(obj)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dumps(obj)
    else:
        assert dumps(obj) == expected


def fuzz_instances(n, count):
    """Complex instances as the fuzz campaign draws them, each with a real twin.

    The twin keeps the spectrum of A on the diagonal and the real part of V,
    whose split norms are no larger, so the same intervals still apply.
    """
    for i in range(count):
        interlaced = i % 2 == 1 and n >= 4
        split = 2 + i % (n - 3) if interlaced else 1 + i % (n - 1)
        inst = random_instance(
            n=n, d_target=1.0, component_split=split, scale=0.9, seed=1000 + i,
            interlaced=interlaced,
        )
        yield inst
        yield Instance(
            a=np.diag(np.linalg.eigvalsh(inst.a)),
            v=inst.v.real,
            component_intervals=inst.component_intervals,
            seed=inst.seed,
            label=inst.label + " real",
        )


class TestAgainstReference:
    @pytest.mark.parametrize("n", [2, 8])
    def test_problem_and_report_payloads(self, n):
        checked = 0
        for inst in fuzz_instances(n, 50):
            problem = problem_payload(inst)
            text = dumps(problem)
            assert text == reference_dumps(problem)
            report = report_payload(analyze_instance(inst))
            assert dumps(report) == reference_dumps(report)
            checked += 1
        assert checked == 100

    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            1.0,
            1e16,
            1e22,
            5e-324,
            np.float64(2.5),
            np.float64(3.0),
            np.int64(-7),
            np.bool_(True),
            True,
            None,
            "text with \"quotes\" and é",
            (1.5, 2, None),
            [],
            {},
            [1, 2, 3],
            [0.5, 1.0, -0.0, 1e16],
            [[1.0, 2.0], [3.0, 4.0]],
            [1.0, 2],
            [1.0, np.float64(2.0)],
            {"a": [], "b": {}, 3: [0.25]},
            np.arange(3.0),
            np.array(1.0),
        ],
    )
    def test_special_values(self, value):
        assert_same_output(value)
        assert_same_output({"nested": [value, {"k": value}]})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("nan")])
    def test_non_finite_raises_value_error(self, value):
        for obj in (value, [value], [1.0, value], {"x": value}):
            with pytest.raises(ValueError):
                reference_dumps(obj)
            with pytest.raises(ValueError):
                dumps(obj)

    def test_unsupported_type_raises_type_error(self):
        for obj in (object(), [object()], {"x": 1j}, [1.0, {1.0}]):
            with pytest.raises(TypeError):
                reference_dumps(obj)
            with pytest.raises(TypeError):
                dumps(obj)


def test_integer_literal_too_long_to_read_is_a_parse_error():
    # json.loads refuses an int of over 4300 digits with a bare ValueError
    text = f'{{"format_version": {REPORT_FORMAT_VERSION}, "seed": {"1" * 5001}}}'
    with pytest.raises(ParseError, match="unreadable number"):
        parse_report(text)


def test_deeply_nested_document_is_a_parse_error():
    # json.loads raises a bare RecursionError past the interpreter's recursion limit
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_report("[" * 100_000 + "]" * 100_000)


def test_report_keys_are_the_published_format():
    inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.5, seed=3)
    doc = report_payload(analyze_instance(inst))
    assert list(doc) == [
        "format_version",
        "tool_version",
        "input_digest",
        "label",
        "geometry",
        "report",
        "component_indices",
        "rest_indices",
        "singular_values",
    ]
    assert doc["format_version"] == 5
    # the two values the analysis determines: the package's version and the
    # digest of the analyzed problem
    assert doc["tool_version"] == __version__
    assert doc["input_digest"] == problem_digest(inst)
    assert list(doc["report"]) == [
        "measured_angle",
        "favourable_bound",
        "generic_bound",
        "half_arcsin_bound",
        "sin2theta_measured",
        "sin2theta_bound",
        "integral_bound",
        "gap",
        "norm_plus",
        "norm_minus",
        "norm_v",
        "measured_gap",
        "gap_lower_bound",
        "enclosure_ok",
        "enclosure_excess",
        "violations",
    ]


ROW_VALUES = [
    0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, 99999999999999984.0, 1e17, 1e22, 5e-324, 1 / 3,
]


class TestFloatRows:
    """Lists of floats print as the oracle prints them, one value at a time."""

    @pytest.mark.parametrize("value", ROW_VALUES)
    def test_each_value(self, value):
        for row in ([value], [value, -value], [0.5, value, 2.0], [value] * 5):
            assert_same_output(row)
            assert_same_output({"rows": [row, row[::-1]]})

    def test_all_values_in_one_row(self):
        assert_same_output(ROW_VALUES)
        assert_same_output([-x for x in reversed(ROW_VALUES)])

    def test_integral_values_near_the_cutoff(self):
        edge = 1e17
        row = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf),
               -math.nextafter(edge, 0.0), -edge, 2.0**56, 2.0**57, 123456789.0]
        assert_same_output(row)

    def test_random_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            row = (rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)).tolist()
            row += np.round(rng.standard_normal(size) * 10.0 ** rng.integers(0, 20, size)).tolist()
            rng.shuffle(row)
            assert_same_output(row)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_non_finite_anywhere_raises_value_error(self, bad, position):
        row = [0.5, 2.0, -0.0, 1e22]
        row.insert(position, bad)
        with pytest.raises(ValueError):
            reference_dumps(row)
        with pytest.raises(ValueError):
            dumps(row)


class TestFloatArrays:
    """Float64 arrays print as the nested lists of their values print."""

    @pytest.mark.parametrize("value", ROW_VALUES)
    def test_each_value(self, value):
        for row in ([value], [value, -value], [0.5, value, 2.0], [value] * 5):
            # a row, a matrix holding the value once, and a matrix made of it
            matrix = np.full((3, len(row)), 0.1)
            matrix[1] = row
            for arr in (np.array(row), matrix, np.array([row, row[::-1]])):
                assert dumps(arr) == reference_dumps(arr)
                assert dumps({"m": arr}) == reference_dumps({"m": arr})

    def test_all_values_in_one_matrix(self):
        values = np.array(ROW_VALUES + [-x for x in ROW_VALUES] + [0.25, 1e300])
        for arr in (values, values.reshape(3, 8), values.reshape(8, 3)):
            assert dumps(arr) == reference_dumps(arr)

    def test_views_and_shapes(self):
        m = np.arange(1.0, 13.0).reshape(3, 4) / 7.0
        c = m + 1j * (m + 0.5)
        for arr in (m, m.T, m[:, ::2], m[1:2], m[:, :1], c.real, c.imag, m[0], m[:, 1]):
            assert dumps({"m": arr}) == reference_dumps({"m": arr})

    def test_random_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            rows, cols = (int(k) for k in rng.integers(1, 9, 2))
            arr = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 300, (rows, cols))
            if rng.random() < 0.5:
                arr.flat[rng.integers(arr.size)] = np.round(rng.standard_normal() * 1e6)
            assert dumps(arr) == reference_dumps(arr)
            assert dumps({"rows": [arr, arr[0]]}) == reference_dumps({"rows": [arr, arr[0]]})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 5, 11])
    def test_non_finite_anywhere_raises_value_error(self, bad, position):
        for integral in (0.5, 2.0):
            arr = np.full((3, 4), 0.75)
            arr[2, 3] = integral
            arr.flat[position] = bad
            for obj in (arr, arr.ravel(), {"m": arr}):
                with pytest.raises(ValueError):
                    reference_dumps(obj)
                with pytest.raises(ValueError):
                    dumps(obj)


def round_trip(inst):
    """The instance that the problem file written for `inst` parses back to."""
    return parse_problem(dumps(problem_payload(inst)) + "\n")


def nudged(values, index):
    """A float copy of `values` with the entry at flat `index` one ulp higher."""
    out = np.array(values, dtype=float)
    out.flat[index] = np.nextafter(out.flat[index], math.inf)
    return out


class TestProblemDigest:
    """The digest hashes the problem's numbers, so a written problem file keeps it."""

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_digest_survives_round_trip(self, n):
        count = 10 if n == 32 else 50
        for inst in fuzz_instances(n, count):
            assert problem_digest(round_trip(inst)) == problem_digest(inst)

    def test_sharp_digest_survives_round_trip(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        assert problem_digest(round_trip(inst)) == problem_digest(inst)

    def test_zero_perturbation_digest_survives_round_trip(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.0, seed=5)
        assert "imag" in problem_payload(inst)["a"]
        assert "imag" not in problem_payload(inst)["v"]
        assert problem_digest(round_trip(inst)) == problem_digest(inst)

    def test_signed_zeros_hash_as_positive_zero(self):
        a = np.empty((2, 2), dtype=complex)
        a.real = [[-0.0, -0.0], [-0.0, 3.0]]
        a.imag = [[-0.0, 1.0], [-1.0, -0.0]]
        v = np.empty((2, 2), dtype=complex)
        v.real = [[0.25, -0.0], [-0.0, -0.0]]
        v.imag = -0.0
        inst = Instance(a=a, v=v, component_intervals=((-0.0, 1.0),), seed=0, label="zeros")
        assert "imag" in problem_payload(inst)["a"]
        assert "imag" not in problem_payload(inst)["v"]
        assert problem_digest(round_trip(inst)) == problem_digest(inst)
        positive = dataclasses.replace(
            inst, a=a + 0.0, v=v + 0.0, component_intervals=((0.0, 1.0),)
        )
        assert problem_digest(positive) == problem_digest(inst)

    def test_digests_are_distinct_across_a_suite(self):
        digests = {problem_digest(inst) for inst in fuzz_instances(8, 100)}
        assert len(digests) == 200

    @pytest.mark.parametrize("twin", ["complex", "real"])
    def test_one_ulp_changes_the_digest(self, twin):
        complex_inst, real_inst = fuzz_instances(8, 1)
        inst = complex_inst if twin == "complex" else real_inst
        variants = []
        for name in ("a", "v"):
            m = getattr(inst, name)
            for i in range(m.size):
                variants.append({name: nudged(m.real, i) + 1j * m.imag})
                if np.iscomplexobj(m):
                    variants.append({name: m.real + 1j * nudged(m.imag, i)})
        sigma = np.array(inst.component_intervals)
        for i in range(sigma.size):
            variants.append({"component_intervals": tuple(map(tuple, nudged(sigma, i)))})
        digests = {problem_digest(dataclasses.replace(inst, **v)) for v in variants}
        assert len(variants) == (2 if twin == "complex" else 1) * 2 * 64 + sigma.size
        assert digests.isdisjoint({problem_digest(inst)})
        assert len(digests) == len(variants)

    @pytest.mark.parametrize("twin", ["complex", "real"])
    def test_text_is_never_held_whole(self, twin):
        complex_inst, real_inst = fuzz_instances(32, 1)
        inst = complex_inst if twin == "complex" else real_inst
        length = len(dumps(problem_payload(inst)))
        problem_digest(inst)
        gc.collect()
        tracemalloc.start()
        try:
            problem_digest(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length

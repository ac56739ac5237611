"""The serializer against a reference copy of its original recursive emitter."""

import json
import math

import numpy as np
import pytest

from specsub import __version__, analyze_instance, random_instance
from specsub.fileio import dumps, problem_payload, report_payload
from specsub.harness import Instance


def reference_dumps(obj, indent=2):
    pieces = []
    _reference_emit(obj, pieces, 0, indent)
    return "".join(pieces)


def _reference_format_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _reference_emit(obj, out, level, indent):
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
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
            _reference_emit(value, out, level + 1, indent)
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
            _reference_emit(value, out, level + 1, indent)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def assert_same_output(obj, indent=2):
    try:
        expected = reference_dumps(obj, indent)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dumps(obj, indent)
    else:
        assert dumps(obj, indent) == expected


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
            report = report_payload(analyze_instance(inst), __version__, "sha256:" + "0" * 64)
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

    @pytest.mark.parametrize("indent", [0, 1, 4])
    def test_indent(self, indent):
        assert_same_output({"a": [1.0, 2.0, [3.0]], "b": {"c": None}}, indent)

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


def test_report_keys_are_the_published_format():
    inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.5, seed=3)
    report = report_payload(analyze_instance(inst), __version__, "sha256:" + "0" * 64)["report"]
    assert list(report) == [
        "measured_angle",
        "favourable_applicable",
        "favourable_bound",
        "generic_applicable",
        "generic_bound",
        "half_arcsin_applicable",
        "half_arcsin_bound",
        "sin2theta_measured",
        "sin2theta_bound",
        "integral_applicable",
        "integral_bound",
        "integral_below_threshold",
        "gap",
        "norm_plus",
        "norm_minus",
        "norm_v",
        "gap_condition",
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
    """Float-only lists are formatted in one operation; the oracle formats each value."""

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

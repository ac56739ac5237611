"""Problem and report files.

Problems are a single JSON document: matrix blocks with an optional
imaginary part, plus the selection intervals.  Reports serialize every
float with 17 significant digits so they re-parse to the identical
float64 values.  A report names its problem by `problem_digest`, a hash
of the problem's numbers, so a problem and its written file share it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from . import __version__
from .bounds import _real
from .errors import ParseError
from .harness import Analysis, BoundReport, Instance

PROBLEM_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 5

# the indent step of every document specsub writes
_INDENT = "  "


def format_float(x: float) -> str:
    """Render a float with 17 significant digits, keeping it a JSON float."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def dumps(obj: Any) -> str:
    """Deterministic JSON text indented by two spaces; every float is written by format_float."""
    pieces: list[str] = []
    _emit(obj, pieces.append, "")
    return "".join(pieces)


def _emit(obj: Any, write, pad: str) -> None:
    # the common payload types first; bool before int, its base class
    if isinstance(obj, (float, np.floating)):
        write(format_float(obj))
    elif isinstance(obj, dict):
        _emit_dict(obj, write, pad)
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, write, pad)
    elif isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None:
        write("null")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, np.ndarray) and obj.ndim:  # problem matrices, as nested lists
        _emit(obj.tolist(), write, pad)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_dict(obj: dict, write, pad: str) -> None:
    if not obj:
        write("{}")
        return
    inner = pad + _INDENT
    sep = "{\n" + inner
    for key, value in obj.items():
        write(sep + encode_basestring_ascii(str(key)) + ": ")
        _emit(value, write, inner)
        sep = ",\n" + inner
    write("\n" + pad + "}")


def _emit_list(seq: list | tuple, write, pad: str) -> None:
    if not seq:
        write("[]")
        return
    inner = pad + _INDENT
    sep = "[\n" + inner
    for value in seq:
        write(sep)
        _emit(value, write, inner)
        sep = ",\n" + inner
    write("\n" + pad + "]")


def _json_document(text: str) -> Any:
    """json.loads(text); malformed JSON, a number too long or nesting too deep raise ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's int-string limit
        raise ParseError(f"unreadable number: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise ParseError(f"nested too deeply: {exc}") from exc


def _number_array(obj: Any, field: str, n: int) -> np.ndarray:
    """The n x n float array of a JSON list of n rows of n numbers."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{field} must be an {n}x{n} numeric array") from None
    if arr.shape != (n, n):
        raise ParseError(f"{field} must have shape ({n}, {n}), got {arr.shape}")
    # numpy also converts numeric strings and booleans
    if not all(type(x) in (int, float) for row in obj for x in row):
        raise ParseError(f"{field} entries must be JSON numbers")
    if not np.isfinite(arr).all():
        raise ParseError(f"{field} contains non-finite entries")
    return arr


def _matrix_block(obj: Any, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{name} must be an object with n/real[/imag]")
    n = obj.get("n")
    if type(n) is not int:
        raise ParseError(f"{name}.n must be a JSON integer")
    if n < 1:
        raise ParseError(f"{name}.n must be positive, got {n}")
    real = _number_array(obj.get("real"), f"{name}.real", n)
    imag = obj.get("imag")
    if imag is None:
        return real
    return real + 1j * _number_array(imag, f"{name}.imag", n)


def parse_problem(text: str, label: str = "<problem>") -> Instance:
    """Parse a problem document into an Instance.

    Raises ParseError with line context for malformed JSON and with a field
    path for schema mistakes.
    """
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = doc.get("format_version", PROBLEM_FORMAT_VERSION)
    if type(version) is not int or version != PROBLEM_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    for key in ("a", "v", "sigma"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    a = _matrix_block(doc["a"], "a")
    v = _matrix_block(doc["v"], "v")
    if a.shape != v.shape:
        raise ParseError(f"a and v disagree on dimension: {a.shape} vs {v.shape}")
    sigma = doc["sigma"]
    if not isinstance(sigma, list) or not sigma:
        raise ParseError("sigma must be a nonempty list of [lo, hi] pairs")
    intervals: list[tuple[float, float]] = []
    for i, pair in enumerate(sigma):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(type(x) in (int, float) for x in pair)
        ):
            raise ParseError(f"sigma[{i}] must be a list of two numbers [lo, hi]")
        lo, hi = (_real(x, f"sigma[{i}]", ParseError) for x in pair)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ParseError(f"sigma[{i}] = [{lo!r}, {hi!r}] is not a valid interval")
        intervals.append((lo, hi))
    ordered = sorted(intervals)
    if ordered != intervals:
        raise ParseError("sigma intervals must be sorted by lower endpoint")
    for (_, hi_prev), (lo_next, _) in zip(ordered, ordered[1:]):
        if lo_next <= hi_prev:
            raise ParseError("sigma intervals must be pairwise disjoint")
    return Instance(a=a, v=v, component_intervals=tuple(intervals), seed=0, label=label)


def load_problem(path: str) -> Instance:
    """Read and parse a problem file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    return parse_problem(data.decode("utf-8", errors="replace"), label=path)


def problem_payload(inst: Instance) -> dict:
    """Problem document for a constructed instance; its blocks hold views of the matrices."""
    a = np.asarray(inst.a)
    v = np.asarray(inst.v)
    n = a.shape[0]

    def block(m: np.ndarray) -> dict:
        entry: dict[str, Any] = {"n": n, "real": m.real}
        if m.dtype.kind == "c" and m.imag.any():
            entry["imag"] = m.imag
        return entry

    return {
        "format_version": PROBLEM_FORMAT_VERSION,
        "a": block(a),
        "v": block(v),
        "sigma": [[lo, hi] for lo, hi in inst.component_intervals],
    }


def problem_digest(inst: Instance) -> str:
    """sha256 of n and an imag flag per block, then every part and sigma as <f8, -0.0 as +0.0."""
    doc = problem_payload(inst)
    blocks = (doc["a"], doc["v"])
    sha = hashlib.sha256(np.array([doc["a"]["n"], *("imag" in b for b in blocks)], dtype="<i8"))
    for values in [b[k] for b in blocks for k in ("real", "imag") if k in b] + [doc["sigma"]]:
        sha.update(np.ascontiguousarray(np.add(values, 0.0), dtype="<f8"))
    return "sha256:" + sha.hexdigest()


# A report's "report" object lists BoundReport's fields in declaration order,
# then its violations, except the geometry, which sits at the top level.
_REPORT_FIELDS = tuple(f.name for f in fields(BoundReport) if f.name != "geometry")


def report_payload(analysis: Analysis) -> dict:
    """Assemble the report document for one analyzed instance."""
    rep = analysis.report
    report = {name: getattr(rep, name) for name in _REPORT_FIELDS}
    report["violations"] = [{"name": name, "slack": slack} for name, slack in rep.violations]
    angles = analysis.angles
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "tool_version": __version__,
        "input_digest": problem_digest(analysis.instance),
        "label": analysis.instance.label,
        "geometry": rep.geometry,
        "report": report,
        "component_indices": analysis.partition.component_indices,
        "rest_indices": analysis.partition.rest_indices,
        "singular_values": None if angles is None else angles.singular_values.tolist(),
    }


def parse_report(text: str) -> dict:
    """Parse a report document back into plain Python data."""
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise ParseError("not a report document")
    version = doc.get("format_version")
    if type(version) is not int or version != REPORT_FORMAT_VERSION:
        raise ParseError(f"not a report document: format_version {version!r}")
    return doc

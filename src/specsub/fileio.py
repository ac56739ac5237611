"""Problem and report files.

Problems are a single JSON document: matrix blocks with an optional
imaginary part, plus the selection intervals.  Reports serialize every
float with 17 significant digits so they re-parse to the identical
float64 values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

import numpy as np

from .errors import ParseError
from .harness import Analysis, BoundReport, Instance
from .spectral import PerturbedSeparation

PROBLEM_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

_FLOAT_ONLY = frozenset((float,))


def format_float(x: float) -> str:
    """Render a float with 17 significant digits, keeping it a JSON float."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def dumps(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces, "", " " * indent)
    return "".join(pieces)


def _emit(obj: Any, out: list[str], pad: str, step: str) -> None:
    # Exact types first: payloads are built from plain floats, dicts and lists.
    kind = type(obj)
    if kind is float:
        out.append(format_float(obj))
    elif kind is dict:
        _emit_dict(obj, out, pad, step)
    elif kind is list:
        _emit_list(obj, out, pad, step)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        _emit_dict(obj, out, pad, step)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _emit_list(list(obj), out, pad, step)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_dict(obj: dict, out: list[str], pad: str, step: str) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + step
    sep = "{\n" + inner
    for key, value in obj.items():
        out.append(sep + encode_basestring_ascii(str(key)) + ": ")
        _emit(value, out, inner, step)
        sep = ",\n" + inner
    out.append("\n" + pad + "}")


def _emit_list(seq: list, out: list[str], pad: str, step: str) -> None:
    if not seq:
        out.append("[]")
        return
    inner = pad + step
    if _FLOAT_ONLY.issuperset(map(type, seq)):
        # matrix rows and singular values: format and join in one step
        out.append("[\n" + inner + _float_row(seq, ",\n" + inner) + "\n" + pad + "]")
        return
    sep = "[\n" + inner
    for value in seq:
        out.append(sep)
        _emit(value, out, inner, step)
        sep = ",\n" + inner
    out.append("\n" + pad + "]")


def _float_row(seq: list, sep: str) -> str:
    """format_float of every float in `seq`, joined by `sep`, in one % operation.

    An integral value below 1e17 in magnitude prints as its integer digits
    under %.17g, to which format_float adds ".0": that is %.1f.  Any other
    finite value prints with a "." or an "e" under %.17g.  Non-finite values
    print as inf or nan, so a text holding an "n" goes back to format_float,
    which raises.
    """
    if any(map(float.is_integer, seq)):
        fmt = sep.join(["%.1f" if x.is_integer() and -1e17 < x < 1e17 else "%.17g" for x in seq])
    else:
        fmt = sep.join(["%.17g"] * len(seq))
    text = fmt % tuple(seq)
    if "n" in text:
        return sep.join(map(format_float, seq))
    return text


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _matrix_block(obj: Any, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{name} must be an object with n/real[/imag]")
    try:
        n = int(obj["n"])
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{name}.n must be an integer") from None
    if n < 1:
        raise ParseError(f"{name}.n must be positive, got {n}")
    real = obj.get("real")
    try:
        real_arr = np.asarray(real, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{name}.real must be an {n}x{n} numeric array") from None
    if real_arr.shape != (n, n):
        raise ParseError(f"{name}.real must have shape ({n}, {n}), got {real_arr.shape}")
    imag = obj.get("imag")
    if imag is None:
        return real_arr
    try:
        imag_arr = np.asarray(imag, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{name}.imag must be an {n}x{n} numeric array") from None
    if imag_arr.shape != (n, n):
        raise ParseError(f"{name}.imag must have shape ({n}, {n}), got {imag_arr.shape}")
    return real_arr + 1j * imag_arr


def parse_problem(text: str, label: str = "<problem>") -> Instance:
    """Parse a problem document into an Instance.

    Raises ParseError with line context for malformed JSON and with a field
    path for schema mistakes.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = doc.get("format_version", PROBLEM_FORMAT_VERSION)
    if version != PROBLEM_FORMAT_VERSION:
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
        try:
            lo, hi = (float(pair[0]), float(pair[1]))
        except (TypeError, ValueError, IndexError):
            raise ParseError(f"sigma[{i}] must be a [lo, hi] pair") from None
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


def load_problem(path: str) -> tuple[Instance, str]:
    """Read a problem file; returns the Instance and the input digest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    inst = parse_problem(data.decode("utf-8", errors="replace"), label=path)
    return inst, sha256_digest(data)


def problem_payload(inst: Instance) -> dict:
    """Problem document for a constructed instance (used for digests and --out files)."""
    a = np.asarray(inst.a)
    v = np.asarray(inst.v)
    n = a.shape[0]

    def block(m: np.ndarray) -> dict:
        entry: dict[str, Any] = {"n": n, "real": m.real.tolist()}
        if np.iscomplexobj(m) and np.any(m.imag != 0.0):
            entry["imag"] = m.imag.tolist()
        return entry

    return {
        "format_version": PROBLEM_FORMAT_VERSION,
        "a": block(a),
        "v": block(v),
        "sigma": [[lo, hi] for lo, hi in inst.component_intervals],
    }


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


# A report's "report" object lists BoundReport's fields in declaration order,
# except the geometry, which sits at the top level, and the applicable checks,
# which follow from the flags.
_REPORT_FIELDS = tuple(
    f.name for f in fields(BoundReport) if f.name not in ("geometry", "applicable")
)
_PERTURBED_FIELDS = tuple(f.name for f in fields(PerturbedSeparation))


def report_payload(analysis: Analysis, tool_version: str, input_digest: str) -> dict:
    """Assemble the report document for one analyzed instance."""
    rep = analysis.report
    report = {name: getattr(rep, name) for name in _REPORT_FIELDS}
    report["measured_gap"] = _finite_or_none(rep.measured_gap)
    report["violations"] = [{"name": name, "slack": slack} for name, slack in rep.violations]
    payload: dict[str, Any] = {
        "format_version": REPORT_FORMAT_VERSION,
        "tool_version": tool_version,
        "input_digest": input_digest,
        "label": analysis.instance.label,
        "geometry": rep.geometry,
        "report": report,
        "angles": None,
        "perturbed": None,
    }
    if analysis.angles is not None:
        payload["angles"] = {
            "max_angle": analysis.angles.max_angle,
            "sin2theta_norm": analysis.angles.sin2theta_norm,
            "singular_values": analysis.angles.singular_values.tolist(),
        }
    if analysis.perturbed is not None:
        sep = analysis.perturbed
        payload["perturbed"] = {name: getattr(sep, name) for name in _PERTURBED_FIELDS}
        payload["perturbed"]["measured_gap"] = _finite_or_none(sep.measured_gap)
    return payload


def parse_report(text: str) -> dict:
    """Parse a report document back into plain Python data."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != REPORT_FORMAT_VERSION:
        raise ParseError("not a report document")
    return doc

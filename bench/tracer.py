"""Span tracing at specsub's layer boundaries, installed from outside the package.

`Tracer.install` replaces each public function of the specsub modules, in
every loaded `specsub.*` namespace that holds it (harness, cli and the
package itself import functions by name), plus numpy's dense kernels and the
SLSQP `minimize` that `specsub.bounds` calls.  Each call inside an
operation becomes a span (name, start, end, parent, operation).  Self time,
the span's duration minus the time its child spans cover, is summed as
spans close; the spans themselves stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("linalg", "spectral", "harness", "bounds", "fileio", "cli")
KERNELS = ("eigh", "eigvalsh", "svd", "qr")
# Called once per float by fileio.dumps: tracing it would cost more than the
# work it measures, so its time stays in the self time of dumps.
UNTRACED = {"fileio.format_float"}
# Spans kept for writing out; later spans still count towards the totals.
SPAN_CAP = 300_000
FEASIBLE_TOL = 1e-8


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[Stat] = []
        self.index: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.active = False
        self.op_id = -1
        self.ops = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0

    # -- installation -----------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.stats.append(Stat())
        return self.index[name]

    def _replace_everywhere(self, original, wrapper, holders) -> None:
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function; `uninstall` puts the originals back."""
        import numpy as np

        layers = {layer: importlib.import_module(f"specsub.{layer}") for layer in LAYERS}
        holders = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "specsub" or name.startswith("specsub."))
        ]
        for layer, module in layers.items():
            for fname, fn in list(vars(module).items()):
                name = f"{layer}.{fname}"
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                after = self._count_projector_bytes if name == "linalg.spectral_projector" else None
                self._replace_everywhere(fn, self._wrap(name, fn, after=after), holders)
        for kname in KERNELS:
            fn = getattr(np.linalg, kname)
            before = self._count_svd_elements if kname == "svd" else None
            self._replace_everywhere(
                fn, self._wrap(f"kernel.{kname}", fn, before=before), [np.linalg]
            )
        minimize = getattr(layers["bounds"], "minimize", None)
        self._name_index("bounds.minimize")
        if minimize is not None:  # absent once the partition search needs no scipy
            self._replace_everywhere(
                minimize,
                self._wrap("bounds.minimize", minimize, after=self._count_minimize),
                holders,
            )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- counters taken at the boundaries -----------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count_svd_elements(self, args, kwargs) -> None:
        a = args[0] if args else kwargs["a"]
        self.count("kernel.svd.elements", int(getattr(a, "size", 0)))

    def _count_projector_bytes(self, args, kwargs, result) -> None:
        # n^2 * itemsize of the dense projector matrix, while there is one
        matrix = getattr(result, "matrix", None)
        self.count("linalg.spectral_projector.bytes", int(getattr(matrix, "nbytes", 0)))

    def _count_minimize(self, args, kwargs, res) -> None:
        import numpy as np

        self.count("bounds.minimize.iterations", int(getattr(res, "nit", 0)))
        # Same acceptance test partition_infimum_bound applies to each start.
        feasible = False
        if res.x is not None and "bounds" in kwargs and "constraints" in kwargs:
            ub = kwargs["bounds"][0][1]
            lam = np.clip(res.x, 0.0, ub)
            feasible = abs(kwargs["constraints"][0]["fun"](lam)) <= FEASIBLE_TOL
        self.count("bounds.minimize.feasible", int(feasible))

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        idx = self._name_index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = tracer._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _enter(self, idx: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        sid = -1
        if len(self.span_start) < SPAN_CAP:
            sid = len(self.span_start)
            self.span_op.append(self.op_id)
            self.span_parent.append(parent)
            self.span_name.append(idx)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            self.dropped += 1
        frame = [sid, idx, 0, 0]
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        if sid >= 0:
            self.span_start[sid] = frame[2]
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        sid, idx, start, child_ns = frame
        self._stack.pop()
        duration = end - start
        stat = self.stats[idx]
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        if sid >= 0:
            self.span_end[sid] = end

    def run_op(self, fn, item):
        """Run one operation under a root span `op`, with tracing on."""
        self.op_id += 1
        self.ops += 1
        self.active = True
        frame = self._enter(self._name_index("op"))
        try:
            return fn(item)
        finally:
            self._exit(frame)
            self.active = False

    # -- results ------------------------------------------------------------

    def per_op(self) -> dict[str, float]:
        """Counts and times per traced operation, keyed by metric name."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, stat in zip(self.names, self.stats):
            out[f"{name}.calls_per_op"] = stat.calls / ops
            out[f"{name}.ms_per_op"] = stat.total_ns / 1e6 / ops
            out[f"{name}.self_ms_per_op"] = stat.self_ns / 1e6 / ops
        for key, value in self.counters.items():
            out[f"{key}_per_op"] = value / ops
        starts = self.stats[self.index["bounds.minimize"]].calls
        feasible = self.counters.get("bounds.minimize.feasible", 0)
        out["bounds.minimize.feasible_ratio"] = feasible / starts if starts else 0.0
        out["trace.spans_per_op"] = (len(self.span_start) + self.dropped) / ops
        return out

    def write_spans(self, path: str) -> None:
        """Write every kept span as columns of one JSON document."""
        doc = {
            "names": self.names,
            "dropped": self.dropped,
            "time_unit": "ns",
            "columns": {
                "op": self.span_op.tolist(),
                "parent": self.span_parent.tolist(),
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

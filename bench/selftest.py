"""Self-test of the benchmark at tiny sizes, with no timing assertions.

    python3 bench/selftest.py

Checks that:
- every metric named in BENCHMARK.json prints with its unit on every
  workload, end to end (`--trace 0`) and per layer (`--trace 1`);
- the per-layer counts repeat exactly across traced runs with different
  seeds, and analyze reads 6 Hermiticity checks, 3 eigh and 1 SVD per op;
- a wrong output or a crashing operation counts as a failed operation, and
  the run goes on;
- a fuzz batch that leaves an earlier batch's reports in place fails its
  check, whether the files were emptied after that batch or not;
- in a directory without the specsub sources the benchmark exits non-zero
  without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "specsub-bench", "selftest")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
from workloads import WORKLOADS, AnalyzeN256, FuzzN8  # noqa: E402

# Per-layer counts that depend only on the program, not on the inputs' values.
EXACT_SUFFIXES = (
    "calls_per_op", "elements_per_op", "iterations_per_op", "feasible_ratio",
    "spectral_projector.bytes_per_op",
)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def bench(workload: str, seed: int, trace: int, root: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_metrics(spec: dict) -> None:
    counts: dict[str, dict] = {}
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(name, 1, trace)
            expect(proc.returncode == 0, f"{name} trace {trace} failed:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name}: result keys {sorted(result)}",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name}: {result}")
            expect(
                [m["name"] for m in wanted] == list(result["metrics"]),
                f"{name} trace {trace}: metric names differ from BENCHMARK.json",
            )
            for m in wanted:
                got = result["metrics"][m["name"]]
                expect(got["unit"] == m["unit"], f"{name} {m['name']}: unit {got['unit']}")
                expect(isinstance(got["value"], (int, float)), f"{name} {m['name']}")
                prefix = f"{name} {m['name']} "
                expect(
                    any(ln.startswith(prefix) and ln.endswith(" " + m["unit"]) for ln in lines),
                    f"{name}: no printed line for {m['name']}",
                )
            if trace:
                counts[name] = result["metrics"]
    for name in WORKLOADS:
        again = json.loads(bench(name, 2, 1).stdout.strip().splitlines()[-1])["metrics"]
        for key, value in counts[name].items():
            if key.endswith(EXACT_SUFFIXES):
                expect(
                    again[key]["value"] == value["value"],
                    f"{name} {key}: {value['value']} then {again[key]['value']}",
                )
    analyze = counts["analyze-n256"]
    for key, want in (
        ("linalg.require_hermitian.calls_per_op", 6),
        ("linalg.eigh.calls_per_op", 3),
        ("kernel.svd.calls_per_op", 1),
    ):
        expect(analyze[key]["value"] == want, f"analyze {key} = {analyze[key]['value']}")
    for m in spec["per_layer"]:
        expect(
            any(counts[n][m["name"]]["value"] != 0 for n in WORKLOADS),
            f"{m['name']} reads 0 on every workload",
        )


class ViolatingAnalyze(AnalyzeN256):
    """Reports a bound violation that the program did not find."""

    def run(self, path):
        code, text = super().run(path)
        doc = json.loads(text)
        doc["report"]["violations"] = [{"name": "generic_bound", "slack": 0.5}]
        return code, json.dumps(doc)


class CrashingFuzz(FuzzN8):
    def run(self, batch_seed):
        raise RuntimeError("injected failure")


class StaleFuzz(FuzzN8):
    """Writes reports on its first batch only; later batches write them elsewhere."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches_run = 0

    def run(self, batch_seed):
        self.batches_run += 1
        if self.batches_run == 1:
            return super().run(batch_seed)
        out, self.out = self.out, self.out + "-elsewhere"
        try:
            return super().run(batch_seed)
        finally:
            self.out = out


class StaleUnemptiedFuzz(StaleFuzz):
    """As StaleFuzz, and the old reports are not emptied between batches."""

    def after(self, batch_seed):
        pass


def check_stale_reports_fail() -> None:
    for cls in (StaleFuzz, StaleUnemptiedFuzz):
        wl = cls(1, os.path.join(SCRATCH, cls.__name__), tiny=True)
        wl.load()
        loop = worker.Loop(wl)
        with contextlib.redirect_stderr(io.StringIO()):
            results = [loop.one(item) for item in wl.items()[:3]]
        expect(results == [True, False, False], f"{cls.__name__}: {results}")


def check_failures_are_counted() -> None:
    for cls in (ViolatingAnalyze, CrashingFuzz):
        wl = cls(1, os.path.join(SCRATCH, cls.__name__), tiny=True)
        wl.prepare()
        wl.load()
        loop = worker.Loop(wl)
        items = wl.items()
        with contextlib.redirect_stderr(io.StringIO()):  # the expected tracebacks
            for item in items:
                expect(loop.one(item) is False, f"{cls.__name__}: wrong output passed")
        expect(
            loop.attempted == len(items) and loop.failed == len(items),
            f"{cls.__name__}: {loop.failed} failed of {loop.attempted}",
        )


def check_bare_directory() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("fuzz-n8", 1, 0, root=bare)
    expect(proc.returncode != 0, "benchmark ran without the specsub sources")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_failures_are_counted()
        check_stale_reports_fail()
        check_bare_directory()
        check_metrics(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: `prepare`, `setup` or `measure` for one workload.

run.py starts each of these in a fresh interpreter with BLAS pinned to one
thread and `src` first on the path.  The last line of standard output is a
JSON object with the results.

    python3 bench/worker.py prepare --workload W --seed N --workdir D
    python3 bench/worker.py setup   --workload W --seed N --workdir D
    python3 bench/worker.py measure --workload W --seed N --workdir D --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS

MAX_REPORTED_FAILURES = 5


class Loop:
    """A closed loop with one client: the next operation starts when one ends."""

    def __init__(self, workload):
        self.wl = workload
        # slot j holds the times of the j-th input of every pass
        self.durations_ms: dict[int, list[float]] = {}
        self.slot_instances: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.counters = {"bytes_read": 0, "bytes_written": 0}

    def one(self, item, runner=None, slot: int = 0) -> bool:
        """Run, time and check one operation; a failure is counted, not raised."""
        wl = self.wl
        self.attempted += 1
        try:
            start = time.perf_counter()
            output = runner(wl.run, item) if runner else wl.run(item)
            elapsed = time.perf_counter() - start
            counts = wl.check(item, output)
        except Exception:  # any failure of one operation is data; the run goes on
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"{wl.name}: operation failed on {item!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return False
        finally:
            wl.after(item)
        self.durations_ms.setdefault(slot, []).append(elapsed * 1e3)
        self.slot_instances[slot] = counts["instances"]
        for key in self.counters:
            self.counters[key] += counts[key]
        return True

    def one_pass(self, runner=None) -> None:
        for slot, item in enumerate(self.wl.items()):
            self.one(item, runner, slot)

    def passes(self, seconds: float, runner=None) -> None:
        """Whole passes until the next would end past `seconds` by over half a pass."""
        start = time.perf_counter()
        done = 0
        while True:
            self.one_pass(runner)
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / done >= seconds:
                break

    def timing(self) -> dict:
        """Latency of the successful operations.

        Every pass repeats the same inputs, so each input (slot) has several
        times.  `op_ms_best` is the mean over slots of each slot's fastest
        time.  On a shared machine the other tenants only ever slow an
        operation down, and they do so in phases of seconds to minutes: the
        fastest repetition tracks the program, while the median of one run
        moves by a quarter with the phase it lands in.  `instances_per_s` is
        the same figure as a rate of problem instances.  The median and p90
        are kept in the record and printed.
        """
        d = sorted(t for times in self.durations_ms.values() for t in times)
        out = {"ops": len(d), "attempted": self.attempted, "failed": self.failed}
        if d:
            best = {slot: min(times) for slot, times in self.durations_ms.items()}
            out["op_ms_best"] = statistics.fmean(best.values())
            per_op = statistics.fmean(self.slot_instances[s] for s in best)
            out["instances_per_s"] = 1e3 * per_op / out["op_ms_best"]
            out["op_ms_p50"] = statistics.median(d)
            # p90 is reported only with at least ten samples beyond it
            if len(d) >= 100:
                out["op_ms_p90"] = statistics.quantiles(d, n=10)[-1]
            out["durations_ms"] = {str(k): v for k, v in self.durations_ms.items()}
        return out


def peak_mb(loop, item) -> float:
    """Peak traced memory of one operation, in MB (10^6 bytes).

    Only the operation runs under tracemalloc; its output check runs after.
    """
    import tracemalloc

    peaks = []

    def traced(run, arg):
        tracemalloc.start()
        try:
            return run(arg)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    loop.one(item, runner=traced)
    return peaks[0] / 1e6


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def check_source(root_src: str) -> None:
    import specsub

    where = os.path.dirname(os.path.abspath(specsub.__file__))
    if os.path.dirname(where) != os.path.abspath(root_src):
        raise SystemExit(f"specsub imported from {where}, not from {root_src}")


def cmd_prepare(wl, args) -> dict:
    wl.prepare()
    return {}


def cmd_setup(wl, args) -> dict:
    """Seconds from before `import specsub` to the end of the first, cold operation.

    Building in-memory inputs is not timed; on-disk inputs come from prepare.
    """
    t0 = time.perf_counter()
    import specsub  # noqa: F401  (the import is what is being timed)

    wl.load()
    t1 = time.perf_counter()
    item = wl.items()[0]
    loop = Loop(wl)
    t2 = time.perf_counter()
    loop.one(item)
    # the operation's own time, without the benchmark's output check
    op_s = loop.durations_ms[0][0] / 1e3 if loop.durations_ms else time.perf_counter() - t2
    check_source(args.src)
    return {
        "setup_s": (t1 - t0) + op_s,
        "import_s": t1 - t0,
        "attempted": loop.attempted,
        "failed": loop.failed,
    }


def cmd_measure(wl, args) -> dict:
    import specsub  # noqa: F401

    check_source(args.src)
    wl.load()
    first = wl.items()[0]
    warm = Loop(wl)
    warm.one(first)  # lazy set-up and caches settle before timing
    result: dict = {"environment": environment()}
    if not args.trace:
        peak = Loop(wl)
        result["peak_mb"] = peak_mb(peak, first)
        loop = Loop(wl)
        loop.passes(args.seconds)
        result.update(loop.timing())
        result["counters"] = loop.counters
        loops = [warm, peak, loop]
    else:
        from tracer import Tracer

        # Untraced and traced passes alternate, so that both sample the same
        # phases of the machine's speed.
        plain, traced, tracer = Loop(wl), Loop(wl), Tracer()
        start = time.perf_counter()
        rounds = 0
        while True:
            plain.one_pass()
            tracer.install()
            try:
                traced.one_pass(runner=tracer.run_op)
            finally:
                tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
        untraced_t, traced_t = plain.timing(), traced.timing()
        layers = tracer.per_op()
        for key, value in traced.counters.items():
            layers[f"fileio.{key}_per_op"] = value / max(traced_t["ops"], 1)
        layers["trace.untraced_op_ms_best"] = untraced_t.get("op_ms_best", 0.0)
        layers["trace.traced_op_ms_best"] = traced_t.get("op_ms_best", 0.0)
        layers["trace.overhead_ms_per_op"] = (
            layers["trace.traced_op_ms_best"] - layers["trace.untraced_op_ms_best"]
        )
        result["layers"] = layers
        result["untraced"] = untraced_t
        result["traced"] = traced_t
        os.makedirs(args.workdir, exist_ok=True)
        result["spans_file"] = os.path.join(args.workdir, "spans.json")
        tracer.write_spans(result["spans_file"])
        loops = [warm, plain, traced]
    result["attempted"] = sum(x.attempted for x in loops)
    result["failed"] = sum(x.failed for x in loops)
    return result


COMMANDS = {"prepare": cmd_prepare, "setup": cmd_setup, "measure": cmd_measure}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(COMMANDS))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="directory holding the specsub package")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed, args.workdir, tiny=args.tiny)
    result = COMMANDS[args.mode](wl, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

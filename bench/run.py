"""specsub benchmark: the command that runs the workloads.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (or `all` of them, one after another) against the
package under `src/` of this checkout.  Every process it starts is a fresh
interpreter with BLAS pinned to one thread.  A run with `--trace 0` reports
the end-to-end metrics listed in BENCHMARK.json; `--trace 1` reports the
per-layer metrics.  Each metric is printed as `<workload> <metric> <value>
<unit>`, and the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  A full record of the
run, with the environment, goes to `.bench_build/specsub-bench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(ROOT, ".bench_build", "specsub-bench")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh interpreters, half before and half after
# the measurement so that they sample more of the machine's slow and fast
# phases; the fastest is reported, as other tenants only ever slow one down.
SETUP_PROBES = 8
IMPORTTIME_PROBES = 3
DEADLINE_S = 175.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv, deadline: float, env: dict) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[:3]))
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc
    return proc


def worker(mode, workload, seed, workdir, deadline, env, *extra) -> dict:
    argv = [
        sys.executable, WORKER, mode, "--workload", workload, "--seed", str(seed),
        "--workdir", workdir, "--src", SRC, *extra,
    ]
    proc = run_child(argv, deadline, env)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline, env) -> dict:
    """Import seconds per module from `python -X importtime -c 'import specsub'`."""
    probes = []
    for _ in range(IMPORTTIME_PROBES):
        proc = run_child(
            [sys.executable, "-X", "importtime", "-c", "import specsub"], deadline, env
        )
        if proc.returncode != 0:
            raise BenchError("importing specsub failed:\n" + proc.stderr[-2000:])
        cumulative, own = {}, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            name = name.strip()
            cumulative.setdefault(name, int(cum_us) / 1e6)
            if name == "specsub" or name.startswith("specsub."):
                own += int(self_us) / 1e6
        probes.append({
            "setup.numpy.import_s": cumulative.get("numpy", 0.0),
            "setup.scipy.optimize.import_s": cumulative.get("scipy.optimize", 0.0),
            "setup.specsub.import_s": cumulative.get("specsub", 0.0),
            "setup.specsub.own_import_s": own,
        })
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def source_digest() -> str:
    """Digest of the package sources, identifying the code in a checkout without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "specsub")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit_hash() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name, seed, seconds, trace, tiny, deadline) -> dict:
    """All processes of one run of one workload; returns the raw record."""
    env = child_env()
    workdir = os.path.join(BUILD, f"work-{name}-{seed}-{os.getpid()}")
    extra = ["--tiny"] if tiny else []
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
    }
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        worker("prepare", name, seed, workdir, deadline, env, *extra)
        probes = []

        def probe(count):
            for _ in range(count):
                probes.append(worker("setup", name, seed, workdir, deadline, env, *extra))

        if trace:
            record["import_times"] = import_times(deadline, env)
        else:
            probe(1 if tiny else SETUP_PROBES // 2)
        measured = worker(
            "measure", name, seed, workdir, deadline, env, *extra,
            "--seconds", str(seconds), "--trace", str(trace),
        )
        if not trace and not tiny:
            probe(SETUP_PROBES - SETUP_PROBES // 2)
        if trace:
            os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
            spans = os.path.join(BUILD, "results", f"spans-{name}{'-tiny' if tiny else ''}.json")
            os.replace(measured.pop("spans_file"), spans)
            record["spans_file"] = os.path.relpath(spans, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_probes"] = probes
    record["measure"] = measured
    record["attempted"] = measured["attempted"] + sum(p["attempted"] for p in probes)
    record["failed"] = measured["failed"] + sum(p["failed"] for p in probes)
    env_rec = measured["environment"]
    env_rec["commit"] = commit_hash()
    env_rec["source_digest"] = source_digest()
    record["environment"] = env_rec
    return record


def metric_values(record) -> dict:
    """Every metric a record supports, by BENCHMARK.json name."""
    m = record["measure"]
    if record["trace"]:
        return {**record["import_times"], **m["layers"]}
    values = {
        "op_ms_best": m.get("op_ms_best"),
        "instances_per_s": m.get("instances_per_s"),
        "peak_mb": m["peak_mb"],
    }
    if record["setup_probes"]:
        values["setup_s"] = min(p["setup_s"] for p in record["setup_probes"])
    return values


def load_spec() -> dict:
    try:
        with open(SPEC, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc


def report(record, spec) -> dict:
    """Print one workload's metrics by name with their units; return the metrics object."""
    name = record["workload"]
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = metric_values(record)
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], 0.0 if record["trace"] else None)
        if value is None:
            raise BenchError(f"{name}: no value for {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{name} {entry['name']} {value!r} {entry['unit']}")
    m = record["measure"]
    timing = m["traced"] if record["trace"] else m
    for key in ("op_ms_p50", "op_ms_p90"):
        if key in timing:
            print(f"{name} {key} {timing[key]!r} ms")
    print(f"{name} ops {timing['ops']} count")
    rate = record["failed"] / record["attempted"]
    print(
        f"{name} error_rate {rate!r} ratio "
        f"({record['failed']} failed of {record['attempted']} attempted)"
    )
    return metrics


def save(record) -> None:
    path = os.path.join(
        BUILD, "results",
        f"{record['workload']}{'-tiny' if record['tiny'] else ''}"
        f"-seed{record['seed']}-trace{record['trace']}.json",
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specsub benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "specsub", "__init__.py")):
        print(f"error: no specsub package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = load_spec()
        results = {}
        for name in names:
            deadline = (
                time.monotonic() + DEADLINE_S if args.workload == "all"
                else start + DEADLINE_S
            )
            record = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, deadline)
            save(record)
            results[name] = (record, report(record, spec))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_rec = next(iter(results.values()))[0]["environment"]
    print("environment " + json.dumps(env_rec, sort_keys=True))
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, ms) in results.items() for k, v in ms.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

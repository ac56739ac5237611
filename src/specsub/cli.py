"""Command-line front end.

Subcommands: analyze, bound-table, fuzz, kappa, sharp.  Results go to
standard output, diagnostics to standard error.  Exit codes: 0 clean,
1 usage or input error, 2 at least one bound violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from . import bounds, fileio
from .bounds import _MAX_POINTS, _integer, _real
from .errors import InvalidSpec, SpecsubError
from .harness import (
    BOUND_CHECKS,
    _MAX_N,
    CheckResult,
    analyze_instance,
    random_instance,
    sharp_example_2x2,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

# fuzz tasks per pool.map chunk, and chunks per worker in one window of tasks
_CHUNKSIZE = 32
_WINDOW_CHUNKS = 4
# fuzz report files held open, then closed together; well under the usual
# limits of 256 or 1024 open descriptors per process
_OPEN_REPORTS = 128


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # violation exit code; route usage problems through _UsageError instead.
    def error(self, message: str):
        raise _UsageError(message)


# one per process: each is a cycle of ~200 objects left to the cyclic collector
@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="specsub",
        description="Spectral subspace perturbation: measurements, bounds, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="verify one problem file")
    p.add_argument("path", help="problem file (JSON)")

    p = sub.add_parser("bound-table", help="CSV profile of the piecewise angle bound")
    p.add_argument("--min", dest="x_min", type=float, required=True)
    p.add_argument("--max", dest="x_max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)

    p = sub.add_parser("fuzz", help="randomized verification campaign")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--count", type=int, required=True, help="number of instances")
    p.add_argument("--scale", type=float, required=True, help="perturbation scale vs gap")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="directory for per-instance reports")

    sub.add_parser("kappa", help="print the interior branch-point constant")

    p = sub.add_parser("sharp", help="run the sharp 2x2 example")
    p.add_argument("--vplus", type=float, required=True)
    p.add_argument("--vminus", type=float, required=True)

    return parser


def _cmd_analyze(args) -> int:
    inst = fileio.load_problem(args.path)
    analysis = analyze_instance(inst)
    print(fileio.dumps(fileio.report_payload(analysis)))
    return EXIT_VIOLATION if analysis.report.violations else EXIT_OK


def _cmd_bound_table(args) -> int:
    points = _integer(args.points, "points", 1, most=_MAX_POINTS)
    # the bound's own domain check, on both ends, before the header is printed
    bounds.piecewise_angle_bound(args.x_min)
    bounds.piecewise_angle_bound(args.x_max)
    if args.x_min > args.x_max:
        raise SpecsubError(f"need min <= max, got [{args.x_min!r}, {args.x_max!r}]")
    grid = np.linspace(args.x_min, args.x_max, points)
    print("x,N,branch")
    for x in grid:
        value, branch = bounds.piecewise_angle_bound_with_branch(float(x))
        print(f"{float(x)!r},{value!r},{branch}")
    return EXIT_OK


def _instance_params(seed: int, index: int, n: int):
    """Deterministic per-instance parameters, independent of execution order."""
    state = np.random.SeedSequence([seed, index]).generate_state(2, np.uint64)
    pick_rng = np.random.default_rng(int(state[0]))
    interlaced = bool(index % 2 == 1 and n >= 4)
    if interlaced:
        split = int(pick_rng.integers(2, n - 1))
    else:
        split = int(pick_rng.integers(1, n))
    return int(state[1]), split, interlaced


def _fuzz_one(task: tuple) -> tuple[int, tuple[CheckResult, ...], Optional[str]]:
    """Analyze one fuzz instance: its check records and report text.

    The analysis, with both eigendecompositions, is dropped before the report
    text is made, so only the instance in hand is held at a time.
    """
    index, seed, n, scale, want_report = task
    inst_seed, split, interlaced = _instance_params(seed, index, n)
    inst = random_instance(
        n=n,
        d_target=1.0,
        component_split=split,
        scale=scale,
        seed=inst_seed,
        interlaced=interlaced,
    )
    analysis = analyze_instance(inst)
    report = analysis.report
    payload = fileio.report_payload(analysis) if want_report else None
    del inst, analysis
    text = fileio.dumps(payload) if want_report else None
    return index, report.checks, text


def _fuzz_results(tasks: Iterator[tuple], workers: int) -> Iterator[tuple]:
    """_fuzz_one of each task, in task order, on `workers` processes.

    A pool gets the tasks in windows of _WINDOW_CHUNKS * workers * _CHUNKSIZE,
    each submitted before the one ahead of it is drained, so the workers do
    not idle at a window's edge and at most two windows are in flight.
    """
    if workers == 1:
        yield from map(_fuzz_one, tasks)
        return
    # imported here: --jobs 1 needs neither it nor multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    size = _WINDOW_CHUNKS * workers * _CHUNKSIZE
    windows = iter(lambda: list(itertools.islice(tasks, size)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        current = pool.map(_fuzz_one, next(windows), chunksize=_CHUNKSIZE)
        for window in windows:
            following = pool.map(_fuzz_one, window, chunksize=_CHUNKSIZE)
            yield from current
            current = following
        yield from current


def _write_all(fd: int, data: bytes) -> None:
    """Write all of `data` to `fd`; one os.write may write only part of it."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _close_all(fds: list[int]) -> None:
    """Close every descriptor in `fds` and empty the list."""
    while fds:
        os.close(fds.pop())


def _cmd_fuzz(args) -> int:
    # checked up front: _instance_params reads n and seed, and --out is made, before random_instance
    n = _integer(args.n, "n", 2, InvalidSpec, most=_MAX_N)
    count = _integer(args.count, "count", 1, InvalidSpec, most=None)
    scale = _real(args.scale, "scale", InvalidSpec)
    if not 0.0 <= scale < math.inf:
        raise InvalidSpec(f"need a finite scale >= 0, got {scale!r}")
    seed = _integer(args.seed, "seed", 0, InvalidSpec, most=None)
    jobs = _integer(args.jobs, "jobs", 1, InvalidSpec, most=None)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    tasks = ((i, seed, n, scale, args.out is not None) for i in range(count))
    # a pool forks all its workers up front, so start no more than can be used
    workers = min(jobs, count, os.cpu_count() or 1)

    # each result is tallied and its report written as it arrives, so a
    # campaign holds one instance (or two pool windows) whatever its count;
    # a serial run holds one analysis and then one report text, never both
    per_bound = {
        check.name: {"applicable": 0, "violations": 0, "max_slack": 0.0}
        for check in BOUND_CHECKS
    }
    checked = 0
    # a report is written in full as it arrives, but its file is closed with
    # up to _OPEN_REPORTS others: closing a file can start its writeback (ext4
    # does so for a file truncated to empty, as when a campaign rewrites the
    # reports of an earlier one), and I/O started between instances slows the
    # analysis that follows it
    reports: list[int] = []
    try:
        for index, checks, text in _fuzz_results(tasks, workers):
            checked += 1
            for check in checks:
                tally = per_bound[check.name]
                tally["applicable"] += 1
                if check.violated:
                    tally["violations"] += 1
                    tally["max_slack"] = max(tally["max_slack"], check.measured - check.bound)
            if text is not None:
                if len(reports) == _OPEN_REPORTS:
                    _close_all(reports)
                path = os.path.join(args.out, f"instance-{index:06d}.json")
                reports.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
                _write_all(reports[-1], (text + "\n").encode())
            del checks, text  # not held while the next instance is analyzed
    finally:
        _close_all(reports)
    total_violations = sum(tally["violations"] for tally in per_bound.values())
    summary = {
        "format_version": 1,
        "n": n,
        "count": count,
        "scale": scale,
        "seed": seed,
        "checked": checked,
        "violations": total_violations,
        "max_slack": max(tally["max_slack"] for tally in per_bound.values()),
        "per_bound": per_bound,
    }
    print(fileio.dumps(summary))
    return EXIT_VIOLATION if total_violations else EXIT_OK


def _cmd_kappa(_args) -> int:
    lo, hi = bounds.kappa_bracket()
    k = bounds.kappa()
    residual = abs(bounds.branch_formula(3, k) - bounds.branch_formula(4, k))
    print(f"kappa = {k:.15g}")
    print(f"bracket = ({lo!r}, {hi!r})")
    print(f"residual = {residual:.3e}")
    return EXIT_OK


def _cmd_sharp(args) -> int:
    inst, expected = sharp_example_2x2(args.vplus, args.vminus)
    analysis = analyze_instance(inst)
    measured = analysis.report.measured_angle
    fav = analysis.report.favourable_bound
    print(f"measured_angle = {measured!r}", file=sys.stderr)
    print(f"favourable_bound = {fav!r}", file=sys.stderr)
    print(f"expected_angle = {expected!r}", file=sys.stderr)
    print(fileio.dumps(fileio.report_payload(analysis)))
    if analysis.report.violations:
        return EXIT_VIOLATION
    if measured is None or fav is None or abs(measured - fav) > 1e-11:
        print("sharpness mismatch: measured angle differs from bound", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "bound-table": _cmd_bound_table,
    "fuzz": _cmd_fuzz,
    "kappa": _cmd_kappa,
    "sharp": _cmd_sharp,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _COMMANDS[args.command](args)
    except (SpecsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

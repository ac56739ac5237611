"""The benchmark's workloads.

A workload turns the benchmark seed into inputs, runs one operation on one
input through the public specsub API, and checks that operation's output.
Operations come in passes: every pass of a workload has the same shape, so
per-operation counts taken over whole passes repeat exactly.

specsub is imported only by `Workload.load`, so a caller can time the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os

# Every workload perturbs at 0.9 of the gap: close enough to the bounds to
# matter, and inside the window where the gap condition holds, so no
# operation is expected to fail.
SCALE = 0.9
XCHECK_TOL = 1e-3


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def derive_seed(*parts) -> int:
    """A 32-bit seed that depends only on `parts`."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def _capture(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _layout(index: int, n: int) -> tuple[int, bool]:
    """Component size alternates n/8, n/2; layout alternates every two inputs."""
    split = n // 8 if index % 2 == 0 else n // 2
    return split, (index // 2) % 2 == 1


class Workload:
    """One workload; subclasses fill in the hooks below."""

    name = ""
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        """`tiny` selects the self-test's small sizes; subclasses read it."""
        self.seed = int(seed)
        self.workdir = workdir

    def load(self) -> None:
        """Import the specsub modules the operations call."""
        for mod in self.modules:
            setattr(self, mod.rsplit(".", 1)[-1], importlib.import_module(mod))

    def prepare(self) -> None:
        """Write on-disk inputs; runs once per run, before any set-up probe."""

    def items(self) -> list:
        """The inputs of one pass, in order."""
        raise NotImplementedError

    def run(self, item):
        """The timed operation."""
        raise NotImplementedError

    def check(self, item, output) -> dict:
        """Raise CheckFailed on a wrong output; return the operation's counters.

        Counters: `instances` (problem instances handled), `bytes_read` and
        `bytes_written` (bytes of files and standard output, as measured from
        outside the program).
        """
        raise NotImplementedError

    def after(self, item) -> None:
        """Untimed clean-up after an operation."""


class FuzzN8(Workload):
    """`specsub fuzz --n 8` batches, in-process through `cli.main`."""

    name = "fuzz-n8"
    modules = ("specsub.cli", "specsub.fileio")

    batches = 8

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.n = 4 if tiny else 8
        self.count = 3 if tiny else 50
        self.out = os.path.join(workdir, "fuzz-out")
        self._seeds = [derive_seed("fuzz", self.seed, k) for k in range(self.batches)]
        # batch seed -> problem digests of its reports, from its first check
        self._digests: dict[int, frozenset] = {}

    def items(self):
        return self._seeds

    def run(self, batch_seed):
        return _capture(
            self.cli.main,
            [
                "fuzz", "--n", str(self.n), "--count", str(self.count),
                "--scale", repr(SCALE), "--seed", str(batch_seed),
                "--jobs", "1", "--out", self.out,
            ],
        )

    def check(self, batch_seed, output):
        code, text = output
        if code != 0:
            raise CheckFailed(f"fuzz --seed {batch_seed} exited with {code}")
        summary = json.loads(text)
        if summary["checked"] != self.count or summary["violations"] != 0:
            raise CheckFailed(
                f"fuzz --seed {batch_seed}: checked {summary['checked']} of "
                f"{self.count}, {summary['violations']} violations"
            )
        if len(os.listdir(self.out)) != self.count:
            raise CheckFailed(f"fuzz --seed {batch_seed}: {self.count} files expected")
        written = 0
        digests = set()
        for i in range(self.count):
            path = os.path.join(self.out, f"instance-{i:06d}.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    data = fh.read()
            except OSError as exc:
                raise CheckFailed(f"fuzz --seed {batch_seed}: {exc}") from exc
            doc = self.fileio.parse_report(data)
            if doc["report"]["violations"]:
                raise CheckFailed(f"fuzz --seed {batch_seed}: {path} reports a violation")
            digests.add(doc["input_digest"])
            written += len(data.encode())
        self._check_batch(batch_seed, frozenset(digests))
        return {
            "instances": self.count,
            "bytes_read": 0,
            "bytes_written": written + len(text.encode()),
        }

    def _check_batch(self, batch_seed, digests) -> None:
        """The reports describe this batch: its own problems, the same on every pass."""
        if len(digests) != self.count:
            raise CheckFailed(f"fuzz --seed {batch_seed}: reports repeat a problem")
        first = self._digests.setdefault(batch_seed, digests)
        if first != digests:
            raise CheckFailed(f"fuzz --seed {batch_seed}: problems differ from its first run")
        if any(seen & digests for s, seen in self._digests.items() if s != batch_seed):
            raise CheckFailed(f"fuzz --seed {batch_seed}: reports from another batch")

    def after(self, batch_seed):
        """Empty every report, so that a batch which does not rewrite one fails its check.

        The files are emptied, not unlinked: creating and unlinking them made
        the timing follow the file system.
        """
        if os.path.isdir(self.out):
            for name in os.listdir(self.out):
                os.truncate(os.path.join(self.out, name), 0)


class AnalyzeN256(Workload):
    """`specsub analyze <file>` through `cli.main` on problem files from set-up."""

    name = "analyze-n256"
    modules = ("specsub.cli", "specsub.fileio", "specsub.harness")
    files = 4

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.n = 16 if tiny else 256
        self.paths = [
            os.path.join(workdir, f"problem-{i}.json") for i in range(self.files)
        ]

    def prepare(self):
        self.load()
        os.makedirs(self.workdir, exist_ok=True)
        for i, path in enumerate(self.paths):
            split, interlaced = _layout(i, self.n)
            inst = self.harness.random_instance(
                n=self.n, d_target=1.0, component_split=split, scale=SCALE,
                seed=derive_seed("analyze", self.seed, i), interlaced=interlaced,
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.fileio.dumps(self.fileio.problem_payload(inst)) + "\n")

    def items(self):
        return self.paths

    def run(self, path):
        return _capture(self.cli.main, ["analyze", path])

    def check(self, path, output):
        code, text = output
        if code != 0:
            raise CheckFailed(f"analyze {os.path.basename(path)} exited with {code}")
        doc = self.fileio.parse_report(text)
        report = doc["report"]
        if report["violations"] or report["measured_angle"] is None:
            raise CheckFailed(
                f"analyze {os.path.basename(path)}: violations {report['violations']}, "
                f"measured angle {report['measured_angle']}"
            )
        return {
            "instances": 1,
            "bytes_read": os.path.getsize(path),
            "bytes_written": len(text.encode()),
        }


class Xcheck(Workload):
    """`bounds.partition_infimum_bound(x, n_max=64)` over a fixed grid.

    The grid is the criterion-4 cross-check and does not depend on the seed.
    """

    name = "xcheck"
    modules = ("specsub.bounds",)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.points = 3 if tiny else 6
        self.n_max = 4 if tiny else 64
        self._grid = None

    def items(self):
        if self._grid is None:
            top = 2.0 * self.bounds.critical_strength()
            self._grid = [top * j / self.points for j in range(1, self.points + 1)]
        return self._grid

    def run(self, x):
        return self.bounds.partition_infimum_bound(x, n_max=self.n_max)

    def check(self, x, value):
        closed = self.bounds.piecewise_angle_bound(x / 2.0)
        if not abs(value - closed) <= XCHECK_TOL:
            raise CheckFailed(f"x={x!r}: partition infimum {value!r} vs closed form {closed!r}")
        return {"instances": 1, "bytes_read": 0, "bytes_written": 0}


WORKLOADS = {cls.name: cls for cls in (FuzzN8, AnalyzeN256, Xcheck)}

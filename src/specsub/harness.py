"""Instance generation, subspace-angle measurement, and bound verification.

verify_instance evaluates every applicable bound against the measured angles
and records violations as data, among them an eigenvalue of A + V outside its
Weyl interval (`enclosure`); it never raises on a violation.  path_scan records
the same verdict at each point, in its `separation.enclosure_ok`.  A failed
LAPACK call (eigh, eigvalsh, svd, qr) raises ConvergenceFailure, and one in any
instance ends a fuzz campaign with exit 1.  Each bound alone decides its
hypothesis, bounds.gap_lower_bound the gap condition, outside which path_scan
raises GapConditionViolated.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds
from .bounds import _MAX_POINTS, _applied, _integer, _real
from .errors import DimensionMismatch, DomainError, InvalidSpec, NonHermitianInput
from .linalg import (
    PerturbationSplit, SpectralDecomposition, _finite, _lapack, decompose, require_hermitian,
    sign_split,
)
from .spectral import (
    PerturbedSpectrum,
    SpectralPartition,
    partition_spectrum,
    perturbed_component_at_t,
)

ANGLE_SLACK = 1e-9
GAP_SLACK = 1e-10
# the largest n whose n x n complex128 matrix numpy can size: n^2 <= _MAX_POINTS
_MAX_N = math.isqrt(_MAX_POINTS)


class GeometryKind(enum.Enum):
    """Whether one component's convex hull misses the other component."""

    FAVOURABLE = "favourable"
    GENERIC = "generic"


@dataclass(frozen=True)
class AngleMeasurement:
    """Principal-angle data between two subspaces of equal dimension k in C^n.

    `singular_values` are the min(k, n - k) sines of the principal angles,
    descending, clipped to [0, 1]; the nonzero singular values of P - Q for
    the two orthogonal projectors are these sines, each taken twice.
    max_angle = arcsin of the largest one, and sin2theta_norm is the largest
    value of 2 s sqrt(1 - s^2) over them.
    """

    max_angle: float
    sin2theta_norm: float
    singular_values: np.ndarray


def measure_angles(rest: np.ndarray, comp: np.ndarray) -> AngleMeasurement:
    """Measure the maximal angle and the sin-2-Theta norm from orthonormal bases.

    `rest` (n x (n - k)) spans the orthogonal complement of the first
    subspace and `comp` (n x k) spans the second, so the sines are the
    singular values of the (n - k) x k cross block rest* comp.  Raises
    DimensionMismatch unless both are 2-D, of one height n, with widths
    adding up to n, and ConvergenceFailure if the SVD fails.
    """
    if not (
        rest.ndim == comp.ndim == 2
        and comp.shape[0] == rest.shape[0] == rest.shape[1] + comp.shape[1]
    ):
        raise DimensionMismatch(
            f"bases of shapes {rest.shape} and {comp.shape} are not a complement "
            f"and a subspace of one space"
        )
    s = _lapack(np.linalg.svd, rest.conj().T @ comp, False, False).clip(0.0, 1.0)
    return AngleMeasurement(
        max_angle=float(np.arcsin(s.max(initial=0.0))),
        sin2theta_norm=float((2.0 * s * np.sqrt(1.0 - s * s)).max(initial=0.0)),
        singular_values=s,
    )


def geometry_kind(partition: SpectralPartition) -> GeometryKind:
    """Favourable when the convex hull of one side contains none of the other side.

    Eigenvalues ascend and equal ones share a side, so that holds exactly
    when one side's indices are consecutive.
    """
    for idx in (partition.component_indices, partition.rest_indices):
        if idx[-1] - idx[0] == len(idx) - 1:
            return GeometryKind.FAVOURABLE
    return GeometryKind.GENERIC


@dataclass(frozen=True)
class Instance:
    """A problem: matrix pair (a, v) plus the intervals selecting the component."""

    a: np.ndarray
    v: np.ndarray
    component_intervals: tuple[tuple[float, float], ...]
    label: str


def sharp_example_2x2(v_plus: float, v_minus: float) -> tuple[Instance, float]:
    """Two-by-two pair attaining the favourable-geometry bound exactly.

    A = diag(1/2, -1/2), the perturbation has spectrum {-v_minus, v_plus},
    and the measured maximal angle equals (1/2) arcsin(v_plus + v_minus),
    which is returned as the expected angle.  Values outside [0, 1) or
    summing to 1 or more, and anything but real numbers, raise DomainError.
    """
    v_plus, v_minus = _real(v_plus, "v_plus"), _real(v_minus, "v_minus")
    if not (0.0 <= v_plus < 1.0 and 0.0 <= v_minus < 1.0):
        raise DomainError(f"need 0 <= v_plus, v_minus < 1, got ({v_plus!r}, {v_minus!r})")
    v = v_plus + v_minus
    if v >= 1.0:
        raise DomainError(f"need v_plus + v_minus < 1, got {v!r}")
    a = np.diag([0.5, -0.5])
    off = 0.5 * v * math.sqrt(1.0 - v * v)
    vmat = np.array(
        [
            [0.5 * (v_plus - v_minus - v * v), off],
            [off, 0.5 * (v * v + v_plus - v_minus)],
        ]
    )
    inst = Instance(
        a=a,
        v=vmat,
        component_intervals=((0.25, 0.75),),
        label=f"sharp-2x2(v_plus={v_plus!r}, v_minus={v_minus!r})",
    )
    return inst, 0.5 * math.asin(v)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = _lapack(np.linalg.qr, z)
    diag = np.diagonal(r).copy()
    diag[diag == 0.0] = 1.0
    return q * (diag / np.abs(diag))


def random_instance(
    n: int,
    d_target: float,
    component_split: int,
    scale: float,
    seed: int,
    interlaced: bool = False,
) -> Instance:
    """Random Hermitian pair with a prescribed spectral gap.

    A = Q diag(vals) Q* with Haar-random Q; the first `component_split`
    eigenvalues form the selected component, whose distance to the rest is
    exactly `d_target` (one eigenvalue pair is pinned to realize it).  V is
    a Gaussian Hermitian matrix rescaled so ||V+|| + ||V-|| equals
    scale * d_target.  With `interlaced`, each side is split into two
    clusters arranged alternately, so neither convex hull misses the other.
    Deterministic per seed.  n in [2, 759250124] (memory permitting),
    component_split in [1, n - 1] and seed >= 0 must be printable integers,
    d_target and scale real numbers with 16 * d_target and (1 + 1e-6) * scale
    * d_target in the float range, so no entry of A or V overflows, else InvalidSpec.
    A failed qr or eigvalsh, or a non-finite eigenvalue, raises ConvergenceFailure.
    """
    n = _integer(n, "n", 2, InvalidSpec, most=_MAX_N)
    component_split = _integer(component_split, "component_split", 1, InvalidSpec, most=n - 1)
    seed = _integer(seed, "seed", 0, InvalidSpec, most=None)  # printed in the label
    d, scale = _real(d_target, "d_target", InvalidSpec), _real(scale, "scale", InvalidSpec)
    if not (0.0 < d < math.inf and 0.0 <= scale < math.inf):
        raise InvalidSpec(f"need finite d_target > 0 and scale >= 0, got ({d!r}, {scale!r})")
    if not 16.0 * d < math.inf:  # each eigenvalue of A is within 8 d of 0, and a + a* doubles it
        raise InvalidSpec(f"need 16 * d_target in the float range, got d_target {d!r}")
    k, m = component_split, n - component_split
    if interlaced and (k < 2 or m < 2):
        raise InvalidSpec("interlaced layout needs at least two eigenvalues per side")
    rng = np.random.default_rng(seed)
    if interlaced:
        width = 0.25 * d
        k1 = int(rng.integers(1, k))
        m1 = int(rng.integers(1, m))
        comp_lo = np.concatenate([rng.uniform(-width, 0.0, size=k1 - 1), [0.0]])
        rest_lo = np.concatenate([[d], d + rng.uniform(0.0, width, size=m1 - 1)])
        comp_hi_start = d + width + d * (1.05 + rng.uniform(0.0, 1.0))
        comp_hi = comp_hi_start + rng.uniform(0.0, width, size=k - k1)
        rest_hi_start = comp_hi_start + width + d * (1.05 + rng.uniform(0.0, 1.0))
        rest_hi = rest_hi_start + rng.uniform(0.0, width, size=m - m1)
        comp_vals = np.concatenate([comp_lo, comp_hi])
        rest_vals = np.concatenate([rest_lo, rest_hi])
        margin = 0.45 * d
        intervals = (
            (float(-width - margin), float(margin)),
            (float(comp_hi_start - margin), float(comp_hi_start + width + margin)),
        )
    else:
        w_comp = d * rng.uniform(0.3, 1.5)
        w_rest = d * rng.uniform(0.3, 1.5)
        comp_vals = np.concatenate([rng.uniform(-w_comp, 0.0, size=k - 1), [0.0]])
        rest_vals = np.concatenate([[d], d + rng.uniform(0.0, w_rest, size=m - 1)])
        margin = 0.45 * d
        intervals = ((float(-w_comp - margin), float(margin)),)
    shift = d * rng.uniform(-2.0, 2.0)
    comp_vals = comp_vals + shift
    rest_vals = rest_vals + shift
    # built from a list: CPython resizes a tuple built from a generator, and a
    # resized tuple skips the tuple free list when made but joins it when freed,
    # so every instance would leave one more traced tuple parked there
    intervals = tuple([(lo + shift, hi + shift) for lo, hi in intervals])
    q = _haar_unitary(n, rng)
    vals = np.concatenate([comp_vals, rest_vals])
    a = (q * vals) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    if scale == 0.0:
        v = np.zeros((n, n), dtype=complex)
    else:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v0 = 0.5 * (g + g.conj().T)
        w0 = _finite(_lapack(np.linalg.eigvalsh, v0))
        # positive: only an all-zero Gaussian draw has no nonzero eigenvalue
        strength = max(float(w0[-1]), 0.0) + max(-float(w0[0]), 0.0)
        gain = scale * d / strength
        # |entry of v0| <= ||v0|| <= strength, up to rounding, so |entry of v| <= scale * d
        if not (1.0 + 1e-6) * gain * strength < math.inf:
            raise InvalidSpec(f"need scale * d_target in the float range, got scale {scale!r}")
        # entry and mirror entry scale alike, so v stays exactly Hermitian
        v = v0 * gain
    return Instance(
        a=a,
        v=v,
        component_intervals=intervals,
        label=f"random(n={n}, split={component_split}, scale={scale!r}, "
        f"seed={seed}, interlaced={interlaced})",
    )


@dataclass(frozen=True)
class BoundReport:
    """Per-instance record: measured angles and every applicable bound.

    A bound outside its hypotheses is None, and so is every measurement that
    needs the gap condition ||V+|| + ||V-|| < gap: the gap condition holds
    exactly when `measured_angle` is not None.  `sin2theta_bound` is always a
    float.  `checks` and `violations` are read from these fields and
    BOUND_CHECKS alone; `checks` is evaluated once per report, and
    dataclasses.replace makes a new report that evaluates its own.
    """

    # 16 fields: keep the count off 20.  CPython 3.11's tuple free list hands
    # out only tuples of fewer than 20 items but takes back 20-item ones, so a
    # 20-keyword call per instance would leave a traced tuple parked there for
    # each of up to 2000 instances, and campaign memory would grow with count.
    measured_angle: Optional[float]
    favourable_bound: Optional[float]
    generic_bound: Optional[float]
    half_arcsin_bound: Optional[float]
    sin2theta_measured: Optional[float]
    sin2theta_bound: float
    integral_bound: Optional[float]
    gap: float
    norm_plus: float
    norm_minus: float
    norm_v: float
    geometry: str
    measured_gap: Optional[float]
    gap_lower_bound: Optional[float]
    enclosure_ok: bool
    enclosure_excess: float

    @functools.cached_property
    def checks(self) -> tuple[CheckResult, ...]:
        """One record per check of BOUND_CHECKS whose two sides are present, in table order."""
        records = []
        for check in BOUND_CHECKS:
            measured, bound = check.measured(self), check.bound(self)
            if measured is not None and bound is not None:
                violated = measured > bound + check.slack
                records.append(CheckResult(check.name, measured, bound, violated))
        # built from a list, for the free-list reason given in random_instance
        return tuple(records)

    @property
    def violations(self) -> tuple[tuple[str, float], ...]:
        """(name, measured - bound) of each failed check, in table order."""
        return tuple([(c.name, c.measured - c.bound) for c in self.checks if c.violated])


class BoundCheck(NamedTuple):
    """One row of BOUND_CHECKS: a measured side that must not exceed a bound side.

    `measured` and `bound` read a report's fields.  The check applies when
    both read a value, not None, and fails when measured > bound + slack.
    """

    name: str
    measured: Callable[[BoundReport], Optional[float]]
    bound: Callable[[BoundReport], Optional[float]]
    slack: float


class CheckResult(NamedTuple):
    """One applicable check of a report: its two sides and whether it failed."""

    name: str
    measured: float
    bound: float
    violated: bool


# Every check made on an instance, in the order of fuzz summaries and of report
# violations.  The enclosure keeps perturbed_component_at_t's rule, whose
# tolerance scales with ||A|| and ||V||: its excess counts only when that rule fails.
_read = operator.attrgetter
BOUND_CHECKS: tuple[BoundCheck, ...] = (
    BoundCheck("favourable_bound", _read("measured_angle"), _read("favourable_bound"), ANGLE_SLACK),
    BoundCheck("generic_bound", _read("measured_angle"), _read("generic_bound"), ANGLE_SLACK),
    BoundCheck(
        "half_arcsin_bound", _read("measured_angle"), _read("half_arcsin_bound"), ANGLE_SLACK
    ),
    BoundCheck(
        "sin2theta_bound", _read("sin2theta_measured"), _read("sin2theta_bound"), ANGLE_SLACK
    ),
    BoundCheck("integral_bound", _read("measured_angle"), _read("integral_bound"), ANGLE_SLACK),
    BoundCheck("gap_lower_bound", _read("gap_lower_bound"), _read("measured_gap"), GAP_SLACK),
    BoundCheck(
        "enclosure", lambda r: 0.0 if r.enclosure_ok else r.enclosure_excess, lambda r: 0.0, 0.0
    ),
)


@dataclass(frozen=True)
class Analysis:
    """Everything verify_instance computes, kept for reporting and inspection."""

    instance: Instance
    decomp_a: SpectralDecomposition
    decomp_perturbed: SpectralDecomposition
    partition: SpectralPartition
    split: PerturbationSplit
    angles: Optional[AngleMeasurement]
    report: BoundReport


def _setup(
    inst: Instance,
) -> tuple[np.ndarray, SpectralDecomposition, PerturbationSplit, SpectralPartition]:
    """Validate A and V once: A, its decomposition, the split of V, the partition.

    A + tV formed from the validated pair is exactly Hermitian and needs no check.
    """
    a = require_hermitian(inst.a, name="a")
    split = sign_split(inst.v, name="v")
    if a.shape != split.v.shape:
        raise DimensionMismatch(f"a has shape {a.shape} but v has shape {split.v.shape}")
    decomp_a = decompose(a)
    w = decomp_a.eigenvalues
    if max(-float(w[0]), float(w[-1])) + split.norm_v == math.inf:
        # an entry of A + tV, 0 <= t <= 1, is at most ||A|| + ||V|| in modulus
        raise NonHermitianInput("||a|| + ||v|| overflows, and so may the entries of a + v")
    return a, decomp_a, split, partition_spectrum(decomp_a, inst.component_intervals)


def analyze_instance(inst: Instance) -> Analysis:
    """Run the full measurement pipeline on one instance.

    Each bound decides its hypothesis, and is None in the report outside it;
    only favourable geometry, which no bound takes, is decided here.  A
    failed check in the report's `checks` is data, not an exception.
    """
    a, decomp_a, split, partition = _setup(inst)
    geometry = geometry_kind(partition)
    decomp_av = decompose(a + split.v)
    perturbed = perturbed_component_at_t(decomp_av, partition, split, 1.0)

    gap, plus, minus = partition.gap, split.norm_plus, split.norm_minus
    favourable = geometry is GeometryKind.FAVOURABLE

    angles = None
    if perturbed.measured_gap is not None:  # the gap condition
        angles = measure_angles(
            decomp_a.eigenvectors[:, partition.rest_indices],
            decomp_av.eigenvectors[:, partition.component_indices],
        )
    fav_bound = _applied(bounds.favourable_angle_bound, plus, minus, gap) if favourable else None

    return Analysis(
        instance=inst,
        decomp_a=decomp_a,
        decomp_perturbed=decomp_av,
        partition=partition,
        split=split,
        angles=angles,
        report=BoundReport(
            measured_angle=angles.max_angle if angles is not None else None,
            favourable_bound=fav_bound,
            generic_bound=_applied(bounds.generic_angle_bound, plus, minus, gap),
            half_arcsin_bound=_applied(bounds.half_arcsin_angle_bound, plus, minus, gap),
            sin2theta_measured=angles.sin2theta_norm if angles is not None else None,
            sin2theta_bound=bounds.sin2theta_bound(plus, minus, gap, favourable),
            integral_bound=_applied(bounds.integral_angle_bound, plus, minus, gap),
            gap=gap,
            norm_plus=plus,
            norm_minus=minus,
            norm_v=split.norm_v,
            geometry=geometry.value,
            measured_gap=perturbed.measured_gap,
            gap_lower_bound=perturbed.gap_lower_bound,
            enclosure_ok=perturbed.enclosure_ok,
            enclosure_excess=perturbed.enclosure_excess,
        ),
    )


def verify_instance(inst: Instance) -> BoundReport:
    """Measure one instance and compare it against every applicable bound."""
    return analyze_instance(inst).report


@dataclass(frozen=True)
class PathPoint:
    """One stop of a homotopy scan: separation and step data.

    `separation` is the spectrum of A + tV against the partition of A; the
    path's gap condition keeps both of its gaps present, and its enclosure_ok
    is the point's enclosure verdict, data as in a report.  step_delta is the
    operator-norm change of the component's spectral projector since the
    previous grid point, the largest principal-angle sine between the two
    subspaces (0 at t=0), and step_bound the corresponding guaranteed ceiling.
    A point keeps no basis, so a scan holds O(steps) numbers.
    """

    t: float
    separation: PerturbedSpectrum
    step_delta: float
    step_bound: float


def path_scan(inst: Instance, steps: int) -> list[PathPoint]:
    """Track the perturbed component's subspace along t -> A + tV.

    Uses a uniform grid with `steps` sub-intervals, so steps + 1 points; the
    one at t = 0 reuses A's decomposition.  `steps` must be an integer in
    [2, sys.maxsize // 16 - 1], memory permitting, else InvalidSpec.
    bounds.gap_lower_bound at t = 1 raises GapConditionViolated before any A + tV is decomposed.
    An eigenvalue outside its Weyl interval raises nothing: it is the point's
    `separation.enclosure_ok`, False.  A failed eigensolve or SVD raises ConvergenceFailure.
    """
    steps = _integer(steps, "steps", 2, InvalidSpec, most=_MAX_POINTS - 1)
    a, decomp_a, split, partition = _setup(inst)
    bounds.gap_lower_bound(split.norm_plus, split.norm_minus, partition.gap)
    points: list[PathPoint] = []
    prev_rest: Optional[np.ndarray] = None
    for t in np.linspace(0.0, 1.0, steps + 1):
        t = float(t)
        dec_t = decompose(a + t * split.v) if t else decomp_a
        sep = perturbed_component_at_t(dec_t, partition, split, t)
        if prev_rest is None:
            delta, ceiling = 0.0, 0.0
        else:
            # with V = 0 every matrix on the path is A itself, but the cross
            # block of one decomposition's own columns is rounding noise, not 0
            delta = 0.0
            if split.norm_v != 0.0:
                basis = dec_t.eigenvectors[:, partition.component_indices]
                delta = float(measure_angles(prev_rest, basis).singular_values[0])
            ceiling = bounds.path_step_bound(
                points[-1].t, t, split.norm_v, split.norm_plus, split.norm_minus, partition.gap
            )
        points.append(PathPoint(t=t, separation=sep, step_delta=delta, step_bound=ceiling))
        prev_rest = dec_t.eigenvectors[:, partition.rest_indices]
    return points

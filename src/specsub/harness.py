"""Instance generation, subspace-angle measurement, and bound verification.

verify_instance evaluates every applicable bound against the measured
angles and records violations as data; it never raises on a violation,
so large randomized campaigns always run to completion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    GapConditionViolated,
    InvalidSpec,
)
from .linalg import (
    PerturbationSplit,
    Projector,
    SpectralDecomposition,
    eigh,
    sign_split,
    spectral_projector,
)
from .spectral import (
    PerturbedSeparation,
    SpectralPartition,
    gap_condition,
    partition_spectrum,
    perturbed_component,
    perturbed_component_at_t,
    spectral_enclosure_check,
)

GAP_SLACK = 1e-10
SIN_CHAIN_SLACK = 1e-10


class GeometryKind(enum.Enum):
    """Whether one component's convex hull misses the other component."""

    FAVOURABLE = "favourable"
    GENERIC = "generic"


@dataclass(frozen=True)
class AngleMeasurement:
    """Principal-angle data between the ranges of two projectors.

    `singular_values` are those of P - Q, descending, clipped to [0, 1];
    max_angle = arcsin of the largest one, and sin2theta_norm is the largest
    value of 2 s sqrt(1 - s^2) over them.
    """

    max_angle: float
    sin2theta_norm: float
    singular_values: np.ndarray


def measure_angles(p: Projector, q: Projector) -> AngleMeasurement:
    """Measure the maximal angle and the sin-2-Theta norm from P - Q."""
    if p.matrix.shape != q.matrix.shape:
        raise DimensionMismatch(
            f"projector shapes differ: {p.matrix.shape} vs {q.matrix.shape}"
        )
    s = np.linalg.svd(p.matrix - q.matrix, compute_uv=False).clip(0.0, 1.0)
    return AngleMeasurement(
        max_angle=float(np.arcsin(s[0])),
        sin2theta_norm=float((2.0 * s * np.sqrt(1.0 - s * s)).max()),
        singular_values=s,
    )


def geometry_kind(
    decomp: SpectralDecomposition, partition: SpectralPartition
) -> GeometryKind:
    """Favourable when the convex hull of one component contains none of the other."""
    w = decomp.eigenvalues.tolist()
    comp = [w[k] for k in partition.component_indices]
    rest = [w[k] for k in partition.rest_indices]
    comp_lo, comp_hi, rest_lo, rest_hi = min(comp), max(comp), min(rest), max(rest)
    rest_in_comp_hull = any(comp_lo <= x <= comp_hi for x in rest)
    comp_in_rest_hull = any(rest_lo <= x <= rest_hi for x in comp)
    if not rest_in_comp_hull or not comp_in_rest_hull:
        return GeometryKind.FAVOURABLE
    return GeometryKind.GENERIC


@dataclass(frozen=True)
class Instance:
    """A problem: matrix pair (a, v) plus the intervals selecting the component."""

    a: np.ndarray
    v: np.ndarray
    component_intervals: tuple[tuple[float, float], ...]
    seed: int
    label: str


def sharp_example_2x2(v_plus: float, v_minus: float) -> tuple[Instance, float]:
    """Two-by-two pair attaining the favourable-geometry bound exactly.

    A = diag(1/2, -1/2), the perturbation has spectrum {-v_minus, v_plus},
    and the measured maximal angle equals (1/2) arcsin(v_plus + v_minus),
    which is returned as the expected angle.
    """
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
        seed=0,
        label=f"sharp-2x2(v_plus={v_plus!r}, v_minus={v_minus!r})",
    )
    return inst, 0.5 * math.asin(v)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
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
    Deterministic per seed.
    """
    if n < 2 or not 1 <= component_split < n:
        raise InvalidSpec(f"need n >= 2 and 1 <= component_split < n, got ({n}, {component_split})")
    if not (0.0 < d_target < math.inf and 0.0 <= scale < math.inf):
        raise InvalidSpec(
            f"need finite d_target > 0 and scale >= 0, got ({d_target!r}, {scale!r})"
        )
    k, m = component_split, n - component_split
    if interlaced and (k < 2 or m < 2):
        raise InvalidSpec("interlaced layout needs at least two eigenvalues per side")
    rng = np.random.default_rng(seed)
    d = float(d_target)
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
        while True:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v0 = 0.5 * (g + g.conj().T)
            w0 = np.linalg.eigvalsh(v0)
            strength = max(float(w0[-1]), 0.0) + max(-float(w0[0]), 0.0)
            if strength > 0.0:
                break
        v = v0 * (scale * d / strength)
        v = 0.5 * (v + v.conj().T)
    return Instance(
        a=a,
        v=v,
        component_intervals=intervals,
        seed=int(seed),
        label=f"random(n={n}, split={component_split}, scale={scale!r}, "
        f"seed={seed}, interlaced={interlaced})",
    )


Violation = tuple[str, float]


@dataclass(frozen=True)
class BoundReport:
    """Per-instance record: measured angles, every applicable bound, violations.

    Angle bounds that do not apply are None with their flag False, but
    `sin2theta_bound` is always a float.  In BOUND_CHECKS order, `applicable`
    names the checks made and `violations` holds (name, slack) for each failure.
    """

    measured_angle: Optional[float]
    favourable_applicable: bool
    favourable_bound: Optional[float]
    generic_applicable: bool
    generic_bound: Optional[float]
    half_arcsin_applicable: bool
    half_arcsin_bound: Optional[float]
    sin2theta_measured: Optional[float]
    sin2theta_bound: float
    integral_applicable: bool
    integral_bound: Optional[float]
    integral_below_threshold: Optional[bool]
    gap: float
    norm_plus: float
    norm_minus: float
    norm_v: float
    gap_condition: bool
    geometry: str
    measured_gap: Optional[float]
    gap_lower_bound: Optional[float]
    enclosure_ok: bool
    enclosure_excess: float
    violations: tuple[Violation, ...]
    applicable: tuple[str, ...]


class BoundCheck(NamedTuple):
    """One row of BOUND_CHECKS: whether the check is made, and by how much it fails.

    `excess(report, angle_tol)` is the slack of a failure, or None when the check holds.
    Both read only the report's measurement fields, so any object carrying them
    will do.
    """

    name: str
    applies: Callable[[BoundReport], bool]
    excess: Callable[[BoundReport, float], Optional[float]]


def _excess(left: float, right: float, slack: float) -> Optional[float]:
    """The slack left - right when left > right + slack, else None."""
    return left - right if left > right + slack else None


# Every check made on an instance, in the order of fuzz summaries and of report
# violations.  The enclosure keeps the EnclosureCheck.ok rule, whose tolerance
# scales with ||A|| and ||V||.
BOUND_CHECKS: tuple[BoundCheck, ...] = (
    BoundCheck("favourable_bound", lambda r: r.favourable_applicable,
               lambda r, tol: _excess(r.measured_angle, r.favourable_bound, tol)),
    BoundCheck("generic_bound", lambda r: r.generic_applicable,
               lambda r, tol: _excess(r.measured_angle, r.generic_bound, tol)),
    BoundCheck("half_arcsin_bound", lambda r: r.half_arcsin_applicable,
               lambda r, tol: _excess(r.measured_angle, r.half_arcsin_bound, tol)),
    BoundCheck("sin2theta_bound", lambda r: r.measured_angle is not None,
               lambda r, tol: _excess(r.sin2theta_measured, r.sin2theta_bound, tol)),
    BoundCheck("integral_bound", lambda r: r.integral_applicable,
               lambda r, tol: _excess(r.measured_angle, r.integral_bound, tol)),
    BoundCheck("gap_lower_bound", lambda r: r.gap_condition,
               lambda r, tol: _excess(r.gap_lower_bound, r.measured_gap, GAP_SLACK)),
    BoundCheck("sin2theta_chain", lambda r: r.measured_angle is not None,
               lambda r, tol: _excess(math.sin(2.0 * r.measured_angle),
                                      r.sin2theta_measured, SIN_CHAIN_SLACK)),
    BoundCheck("enclosure", lambda r: True,
               lambda r, tol: None if r.enclosure_ok else r.enclosure_excess),
)


@dataclass(frozen=True)
class Analysis:
    """Everything verify_instance computes, kept for reporting and inspection."""

    instance: Instance
    decomp_a: SpectralDecomposition
    decomp_perturbed: SpectralDecomposition
    partition: SpectralPartition
    split: PerturbationSplit
    geometry: GeometryKind
    perturbed: Optional[PerturbedSeparation]
    angles: Optional[AngleMeasurement]
    report: BoundReport


def _setup(
    inst: Instance,
) -> tuple[np.ndarray, SpectralDecomposition, PerturbationSplit, SpectralPartition]:
    """Validate and decompose an instance: A, eigh(A), the split of V, the partition."""
    decomp_a = eigh(inst.a, name="a")
    split = sign_split(inst.v, name="v")
    a = np.asarray(inst.a)
    if a.shape != split.v.shape:
        raise DimensionMismatch(f"a has shape {a.shape} but v has shape {split.v.shape}")
    return a, decomp_a, split, partition_spectrum(decomp_a, inst.component_intervals)


def analyze_instance(inst: Instance, angle_tol: float = 1e-9) -> Analysis:
    """Run the full measurement pipeline on one instance.

    Hypotheses are evaluated and recorded, every check of BOUND_CHECKS that
    applies is compared against the measurement, and failures land in the
    report's violation list instead of raising.  A non-finite `angle_tol`
    raises DomainError: it would make every angle check pass or fail alike.
    """
    if not math.isfinite(angle_tol):
        raise DomainError(f"angle_tol must be finite, got {angle_tol!r}")
    a, decomp_a, split, partition = _setup(inst)
    geometry = geometry_kind(decomp_a, partition)
    decomp_av = eigh(a + split.v)
    enclosure = spectral_enclosure_check(decomp_a, decomp_av, split)

    gap = partition.gap
    s = split.norm_sum
    gap_ok = gap_condition(split, gap)
    favourable = geometry is GeometryKind.FAVOURABLE

    perturbed = None
    angles = None
    if gap_ok:
        perturbed = perturbed_component(decomp_av, partition, split)
        _require_equal_rank(partition, perturbed)
        p = spectral_projector(decomp_a, partition.component_indices)
        q = spectral_projector(decomp_av, perturbed.component_indices)
        angles = measure_angles(p, q)

    fav_applicable = gap_ok and favourable
    fav_bound = (
        bounds.favourable_angle_bound(split.norm_plus, split.norm_minus, gap)
        if fav_applicable
        else None
    )
    gen_applicable = s < 2.0 * bounds.critical_strength() * gap
    gen_bound = (
        bounds.generic_angle_bound(split.norm_plus, split.norm_minus, gap)
        if gen_applicable
        else None
    )
    half_applicable = s <= 2.0 * gap / math.pi
    half_bound = (
        bounds.half_arcsin_angle_bound(split.norm_plus, split.norm_minus, gap)
        if half_applicable
        else None
    )
    s2t_bound = bounds.sin2theta_bound(split.norm_plus, split.norm_minus, gap, favourable)
    integral = (
        bounds.integral_angle_bound(split.norm_plus, split.norm_minus, gap)
        if gap_ok
        else None
    )

    # the fields of the report but its check results, which are read from them
    fields = SimpleNamespace(
        measured_angle=angles.max_angle if angles is not None else None,
        favourable_applicable=fav_applicable,
        favourable_bound=fav_bound,
        generic_applicable=gen_applicable,
        generic_bound=gen_bound,
        half_arcsin_applicable=half_applicable,
        half_arcsin_bound=half_bound,
        sin2theta_measured=angles.sin2theta_norm if angles is not None else None,
        sin2theta_bound=s2t_bound,
        integral_applicable=gap_ok,
        integral_bound=integral.value if integral else None,
        integral_below_threshold=integral.below_threshold if integral else None,
        gap=gap,
        norm_plus=split.norm_plus,
        norm_minus=split.norm_minus,
        norm_v=split.norm_v,
        gap_condition=gap_ok,
        geometry=geometry.value,
        measured_gap=perturbed.measured_gap if perturbed else None,
        gap_lower_bound=perturbed.gap_lower_bound if perturbed else None,
        enclosure_ok=enclosure.ok,
        enclosure_excess=enclosure.max_excess,
    )
    applicable: list[str] = []
    violations: list[Violation] = []
    for check in BOUND_CHECKS:
        if check.applies(fields):
            applicable.append(check.name)
            slack = check.excess(fields, angle_tol)
            if slack is not None:
                violations.append((check.name, slack))
    return Analysis(
        instance=inst,
        decomp_a=decomp_a,
        decomp_perturbed=decomp_av,
        partition=partition,
        split=split,
        geometry=geometry,
        perturbed=perturbed,
        angles=angles,
        report=BoundReport(
            **vars(fields), violations=tuple(violations), applicable=tuple(applicable)
        ),
    )


def _require_equal_rank(partition: SpectralPartition, sep: PerturbedSeparation) -> None:
    """Under the gap condition the perturbed component keeps the unperturbed rank."""
    k, k_perturbed = len(partition.component_indices), len(sep.component_indices)
    if k_perturbed != k:
        raise ConvergenceFailure(
            f"perturbed component holds {k_perturbed} eigenvalues, "
            f"the unperturbed one {k}"
        )


def verify_instance(inst: Instance, angle_tol: float = 1e-9) -> BoundReport:
    """Measure one instance and compare it against every applicable bound."""
    return analyze_instance(inst, angle_tol=angle_tol).report


@dataclass(frozen=True)
class PathPoint:
    """One stop of a homotopy scan: assignment, projector, and step data.

    step_delta is the operator-norm change of the projector since the
    previous grid point (0 at t=0), step_bound the corresponding guaranteed
    ceiling.
    """

    t: float
    separation: PerturbedSeparation
    projector: Projector
    step_delta: float
    step_bound: float


def path_scan(inst: Instance, steps: int) -> list[PathPoint]:
    """Track the perturbed component's projector along t -> A + tV.

    Uses a uniform grid with `steps` sub-intervals (so steps + 1 points).
    """
    if steps < 2:
        raise InvalidSpec(f"steps must be at least 2, got {steps!r}")
    a, decomp_a, split, partition = _setup(inst)
    v = split.v
    if not gap_condition(split, partition.gap):
        raise GapConditionViolated(
            f"||V+|| + ||V-|| = {split.norm_sum!r} must stay below gap {partition.gap!r}"
        )
    points: list[PathPoint] = []
    prev: Optional[PathPoint] = None
    for t in np.linspace(0.0, 1.0, steps + 1):
        t = float(t)
        dec_t = eigh(a + t * v)
        sep = perturbed_component_at_t(dec_t, partition, split, t)
        _require_equal_rank(partition, sep)
        proj = spectral_projector(dec_t, sep.component_indices)
        if prev is None:
            delta, ceiling = 0.0, 0.0
        else:
            delta = float(
                np.linalg.svd(proj.matrix - prev.projector.matrix, compute_uv=False)[0]
            )
            ceiling = bounds.path_step_bound(
                prev.t, t, split.norm_v, split.norm_plus, split.norm_minus, partition.gap
            )
        point = PathPoint(
            t=t, separation=sep, projector=proj, step_delta=delta, step_bound=ceiling
        )
        points.append(point)
        prev = point
    return points

"""Spectral partitions, perturbed components, and eigenvalue enclosures."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AmbiguousMembership,
    ConvergenceFailure,
    DomainError,
    EmptyComponent,
    EnclosureViolation,
    GapConditionViolated,
    InvalidInterval,
)
from .linalg import PerturbationSplit, SpectralDecomposition

BOUNDARY_RTOL = 1e-12
ENCLOSURE_RTOL = 1e-9

Interval = tuple[float, float]


def _ends(values, down: float, up: float) -> tuple[list[float], list[float]]:
    """Ascending lower and upper ends of the intervals [v - down, v + up]."""
    vals = sorted(values)
    return [v - down for v in vals], [v + up for v in vals]


def _distance(x: float, lo: list[float], hi: list[float]) -> float:
    """Distance from x to the union of the intervals [lo[j], hi[j]] from _ends.

    The intervals may overlap: the distance to their union is the least
    distance to any one of them, so they need not be merged first.
    Both ends ascend, so of the intervals that start at or below x the one
    reaching furthest right is the last, and the nearest on the right is the
    first of the others.
    """
    j = bisect.bisect_right(lo, x)
    below = x - hi[j - 1] if j else math.inf
    if below <= 0.0:
        return 0.0
    return min(below, lo[j] - x) if j < len(lo) else below


@dataclass(frozen=True)
class SpectralPartition:
    """Split of a spectrum into a selected component and the rest, with their gap.

    `eigenvalues` is the full spectrum the index sets refer to.
    """

    eigenvalues: np.ndarray
    component_indices: tuple[int, ...]
    rest_indices: tuple[int, ...]
    gap: float

    @property
    def component_values(self) -> np.ndarray:
        return self.eigenvalues[list(self.component_indices)]

    @property
    def rest_values(self) -> np.ndarray:
        return self.eigenvalues[list(self.rest_indices)]


def partition_spectrum(
    decomp: SpectralDecomposition, intervals: Sequence[Interval]
) -> SpectralPartition:
    """Partition a spectrum by a list of closed selection intervals.

    Eigenvalues inside any interval form the component; the rest form the
    complement.  An eigenvalue within 1e-12 relative tolerance of an interval
    boundary raises AmbiguousMembership, and either side being empty raises
    EmptyComponent.  The gap is the minimum distance between the two sides.
    """
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if not ivs:
        raise EmptyComponent("no selection intervals given")
    for lo, hi in ivs:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise InvalidInterval(f"bad selection interval [{lo}, {hi}]")
    w = decomp.eigenvalues
    values = w.tolist()
    inside: list[int] = []
    outside: list[int] = []
    for k, lam in enumerate(values):
        member = False
        for lo, hi in ivs:
            tol = BOUNDARY_RTOL * (1.0 + max(abs(lam), abs(lo), abs(hi)))
            if min(abs(lam - lo), abs(lam - hi)) <= tol:
                raise AmbiguousMembership(
                    f"eigenvalue {lam!r} sits on the boundary of [{lo}, {hi}]"
                )
            if lo <= lam <= hi:
                member = True
        (inside if member else outside).append(k)
    if not inside or not outside:
        raise EmptyComponent(
            f"selection leaves {len(inside)} inside and {len(outside)} outside"
        )
    return SpectralPartition(
        eigenvalues=w,
        component_indices=tuple(inside),
        rest_indices=tuple(outside),
        gap=_class_gap(values, inside),
    )


def _class_gap(values: list[float], members: list[int]) -> float:
    """Least distance between values[members] and the other values; inf if either is empty.

    With `values` ascending, the closest pair across the two classes is
    adjacent: between any cross pair sits an adjacent one whose exact
    difference is no larger, and rounded subtraction is monotone.  So one
    pass gives the same float as the minimum over all cross pairs.
    """
    member = [False] * len(values)
    for k in members:
        member[k] = True
    return min(
        (
            hi - lo
            for lo, hi, m_lo, m_hi in zip(values, values[1:], member, member[1:])
            if m_lo != m_hi
        ),
        default=math.inf,
    )


def gap_condition(split: PerturbationSplit, gap: float) -> bool:
    """True when ||V+|| + ||V-|| < gap, so the perturbed spectrum stays separated."""
    return split.norm_sum < gap


def perturbed_gap_lower_bound(split: PerturbationSplit, gap: float, t: float = 1.0) -> float:
    """Guaranteed separation of the perturbed components: gap - t(||V+|| + ||V-||).

    Raises DomainError unless 0 <= t <= 1 and the gap is finite and positive.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must be in [0, 1], got {t!r}")
    if not 0.0 < gap < math.inf:
        raise DomainError(f"gap must be finite and positive, got {gap!r}")
    return gap - t * split.norm_sum


@dataclass(frozen=True)
class PerturbedSeparation:
    """Assignment of a perturbed spectrum to the enlarged component and rest."""

    component_indices: tuple[int, ...]
    rest_indices: tuple[int, ...]
    gap_lower_bound: float
    measured_gap: float


def perturbed_component_at_t(
    decomp_perturbed: SpectralDecomposition,
    partition: SpectralPartition,
    split: PerturbationSplit,
    t: float,
) -> PerturbedSeparation:
    """Assign the eigenvalues of A + tV to the component enlarged by t-scaled margins.

    Each perturbed eigenvalue must fall in exactly one of the two enlargements
    (component values +[-t ||V-||, t ||V+||], likewise for the rest); under
    t(||V+|| + ||V-||) < gap these are disjoint.  An eigenvalue outside both,
    beyond 1e-9 * (1 + ||A|| + ||V||), raises EnclosureViolation: the enclosure
    is guaranteed, so an escape signals a numerical failure.  The gap
    condition also keeps the component's rank, so a component whose
    eigenvalue count differs from the unperturbed one raises
    ConvergenceFailure.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must be in [0, 1], got {t!r}")
    if t * split.norm_sum >= partition.gap:
        raise GapConditionViolated(
            f"t*(||V+|| + ||V-||) = {t * split.norm_sum!r} does not stay below "
            f"the gap {partition.gap!r}"
        )
    down, up = t * split.norm_minus, t * split.norm_plus
    w = partition.eigenvalues.tolist()
    comp_lo, comp_hi = _ends([w[k] for k in partition.component_indices], down, up)
    rest_lo, rest_hi = _ends([w[k] for k in partition.rest_indices], down, up)
    tol = ENCLOSURE_RTOL * (1.0 + max(map(abs, w)) + split.norm_v)
    mus = decomp_perturbed.eigenvalues.tolist()
    comp: list[int] = []
    rest: list[int] = []
    for k, mu in enumerate(mus):
        d_comp = _distance(mu, comp_lo, comp_hi)
        d_rest = _distance(mu, rest_lo, rest_hi)
        if min(d_comp, d_rest) > tol:
            raise EnclosureViolation(
                f"perturbed eigenvalue {mu!r} lies {min(d_comp, d_rest):.3e} "
                f"outside both enlargements (tolerance {tol:.3e})"
            )
        (comp if d_comp <= d_rest else rest).append(k)
    if len(comp) != len(partition.component_indices):
        raise ConvergenceFailure(
            f"perturbed component holds {len(comp)} eigenvalues, "
            f"the unperturbed one {len(partition.component_indices)}"
        )
    return PerturbedSeparation(
        component_indices=tuple(comp),
        rest_indices=tuple(rest),
        gap_lower_bound=perturbed_gap_lower_bound(split, partition.gap, t),
        measured_gap=_class_gap(mus, comp),
    )


class EnclosureCheck(NamedTuple):
    ok: bool
    max_excess: float


def spectral_enclosure_check(
    decomp_a: SpectralDecomposition,
    decomp_perturbed: SpectralDecomposition,
    split: PerturbationSplit,
) -> EnclosureCheck:
    """Check spec(A+V) against spec(A) + [-||V-||, ||V+||].

    Returns whether every perturbed eigenvalue lies inside the enlargement
    within 1e-9 * (1 + ||A|| + ||V||), together with the largest excess.
    A False result is data, not an error.
    """
    w = decomp_a.eigenvalues.tolist()
    lo, hi = _ends(w, split.norm_minus, split.norm_plus)
    excess = max(
        (_distance(mu, lo, hi) for mu in decomp_perturbed.eigenvalues.tolist()),
        default=0.0,
    )
    tol = ENCLOSURE_RTOL * (1.0 + max(map(abs, w)) + split.norm_v)
    return EnclosureCheck(ok=excess <= tol, max_excess=excess)


def resolvent_interval(
    a: float,
    b: float,
    split: PerturbationSplit,
    spectrum=None,
) -> Optional[Interval]:
    """Interval guaranteed free of perturbed eigenvalues, or None.

    Given (a, b) free of unperturbed eigenvalues, returns
    (a + ||V+||, b - ||V-||) when ||V+|| + ||V-|| < b - a.  When `spectrum`
    is supplied, the precondition (a, b) disjoint from it is verified.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise InvalidInterval(f"need a < b, got a={a!r}, b={b!r}")
    if spectrum is not None:
        vals = np.asarray(spectrum, dtype=float).ravel()
        offenders = vals[(vals > a) & (vals < b)]
        if offenders.size:
            raise InvalidInterval(
                f"({a!r}, {b!r}) meets the spectrum at {float(offenders[0])!r}"
            )
    if split.norm_sum < b - a:
        return (a + split.norm_plus, b - split.norm_minus)
    return None

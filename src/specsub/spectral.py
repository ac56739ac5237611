"""Spectral partitions, perturbed components, and eigenvalue enclosures."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AmbiguousMembership,
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


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed intervals on the real line."""

    intervals: tuple[Interval, ...]

    def distance(self, x: float) -> float:
        """Distance from x to the union; 0 when x lies inside an interval."""
        best = np.inf
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return 0.0
            best = min(best, abs(x - lo), abs(x - hi))
        return float(best)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.distance(x) <= tol


def _ends(values, down: float, up: float) -> tuple[list[float], list[float]]:
    """Ascending lower and upper ends of the intervals [v - down, v + up]."""
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    return (vals - down).tolist(), (vals + up).tolist()


def _distance(x: float, lo: list[float], hi: list[float]) -> float:
    """Distance from x to the union of the intervals [lo[j], hi[j]] from _ends.

    The intervals may overlap: the distance to their union is the least
    distance to any one of them, so they need not be merged by enlarge first.
    Both ends ascend, so of the intervals that start at or below x the one
    reaching furthest right is the last, and the nearest on the right is the
    first of the others.
    """
    j = bisect.bisect_right(lo, x)
    below = x - hi[j - 1] if j else math.inf
    if below <= 0.0:
        return 0.0
    return min(below, lo[j] - x) if j < len(lo) else below


def enlarge(values, down: float, up: float) -> IntervalUnion:
    """Expand each value to the closed interval [value - down, value + up].

    Overlapping or touching intervals are merged, so the result is a sorted
    union of disjoint closed intervals.
    """
    if down < 0.0 or up < 0.0:
        raise DomainError("enlargement margins must be nonnegative")
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    merged: list[list[float]] = []
    for v in vals:
        lo, hi = float(v - down), float(v + up)
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return IntervalUnion(tuple((lo, hi) for lo, hi in merged))


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
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])

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
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise InvalidInterval(f"bad selection interval [{lo}, {hi}]")
    w = decomp.eigenvalues
    inside: list[int] = []
    outside: list[int] = []
    for k, lam in enumerate(w):
        lam = float(lam)
        for lo, hi in ivs:
            tol = BOUNDARY_RTOL * (1.0 + max(abs(lam), abs(lo), abs(hi)))
            if min(abs(lam - lo), abs(lam - hi)) <= tol:
                raise AmbiguousMembership(
                    f"eigenvalue {lam!r} sits on the boundary of [{lo}, {hi}]"
                )
        if any(lo <= lam <= hi for lo, hi in ivs):
            inside.append(k)
        else:
            outside.append(k)
    if not inside or not outside:
        raise EmptyComponent(
            f"selection leaves {len(inside)} inside and {len(outside)} outside"
        )
    gap = float(np.min(np.abs(np.subtract.outer(w[inside], w[outside]))))
    return SpectralPartition(
        eigenvalues=w,
        component_indices=tuple(inside),
        rest_indices=tuple(outside),
        gap=gap,
    )


def gap_condition(split: PerturbationSplit, gap: float) -> bool:
    """True when ||V+|| + ||V-|| < gap, so the perturbed spectrum stays separated."""
    return split.norm_sum < gap


def perturbed_gap_lower_bound(split: PerturbationSplit, gap: float, t: float = 1.0) -> float:
    """Guaranteed separation of the perturbed components: gap - t(||V+|| + ||V-||)."""
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
    is guaranteed, so an escape signals a numerical failure.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must be in [0, 1], got {t!r}")
    if t * split.norm_sum >= partition.gap:
        raise GapConditionViolated(
            f"t*(||V+|| + ||V-||) = {t * split.norm_sum!r} does not stay below "
            f"the gap {partition.gap!r}"
        )
    down, up = t * split.norm_minus, t * split.norm_plus
    comp_lo, comp_hi = _ends(partition.component_values, down, up)
    rest_lo, rest_hi = _ends(partition.rest_values, down, up)
    norm_a = float(np.max(np.abs(partition.eigenvalues)))
    tol = ENCLOSURE_RTOL * (1.0 + norm_a + split.norm_v)
    comp: list[int] = []
    rest: list[int] = []
    for k, mu in enumerate(decomp_perturbed.eigenvalues.tolist()):
        d_comp = _distance(mu, comp_lo, comp_hi)
        d_rest = _distance(mu, rest_lo, rest_hi)
        if min(d_comp, d_rest) > tol:
            raise EnclosureViolation(
                f"perturbed eigenvalue {mu!r} lies {min(d_comp, d_rest):.3e} "
                f"outside both enlargements (tolerance {tol:.3e})"
            )
        (comp if d_comp <= d_rest else rest).append(k)
    mu = decomp_perturbed.eigenvalues
    if comp and rest:
        measured = float(np.min(np.abs(np.subtract.outer(mu[comp], mu[rest]))))
    else:
        measured = np.inf
    return PerturbedSeparation(
        component_indices=tuple(comp),
        rest_indices=tuple(rest),
        gap_lower_bound=perturbed_gap_lower_bound(split, partition.gap, t),
        measured_gap=measured,
    )


def perturbed_component(
    decomp_perturbed: SpectralDecomposition,
    partition: SpectralPartition,
    split: PerturbationSplit,
) -> PerturbedSeparation:
    """Assign the eigenvalues of A + V to the enlarged component and rest."""
    return perturbed_component_at_t(decomp_perturbed, partition, split, 1.0)


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
    lo, hi = _ends(decomp_a.eigenvalues, split.norm_minus, split.norm_plus)
    excess = max(
        (_distance(mu, lo, hi) for mu in decomp_perturbed.eigenvalues.tolist()),
        default=0.0,
    )
    norm_a = float(np.max(np.abs(decomp_a.eigenvalues)))
    tol = ENCLOSURE_RTOL * (1.0 + norm_a + split.norm_v)
    return EnclosureCheck(ok=excess <= tol, max_excess=float(excess))


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

"""Spectral partitions and the perturbed spectrum against them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import bounds
from .bounds import _applied, _real
from .errors import (
    AmbiguousMembership,
    DimensionMismatch,
    EmptyComponent,
    InvalidInterval,
)
from .linalg import PerturbationSplit, SpectralDecomposition

BOUNDARY_RTOL = 1e-12
ENCLOSURE_RTOL = 1e-9

Interval = tuple[float, float]


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
    EmptyComponent; an interval that is not a pair of finite real numbers
    lo <= hi raises InvalidInterval.  The gap is the minimum distance
    between the two sides.
    """
    try:
        ivs = [
            (_real(lo, "lo", InvalidInterval), _real(hi, "hi", InvalidInterval))
            for lo, hi in intervals
        ]
    except (TypeError, ValueError) as exc:
        raise InvalidInterval(f"selection intervals must be pairs of real numbers: {exc}") from None
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


def _class_gap(values: list[float], members: Sequence[int]) -> float:
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


class PerturbedSpectrum(NamedTuple):
    """The spectrum of A + tV against the partition of A, field for field as reported.

    The two gaps are None outside the gap condition, where bounds.gap_lower_bound rejects t.
    """

    enclosure_ok: bool
    enclosure_excess: float
    measured_gap: Optional[float]
    gap_lower_bound: Optional[float]


def perturbed_component_at_t(
    decomp_perturbed: SpectralDecomposition,
    partition: SpectralPartition,
    split: PerturbationSplit,
    t: float,
) -> PerturbedSpectrum:
    """Check the eigenvalues of A + tV against the partition of A, index by index.

    By Weyl's monotonicity, A - tV- <= A + tV <= A + tV+, the j-th ascending
    eigenvalue mu_j of A + tV lies in [lam_j - t||V-||, lam_j + t||V+||].  The
    enclosure holds when every excess stays within 1e-9 * (1 + ||A|| + ||V||),
    and the largest excess is reported (0.0 when all lie inside); a failure
    is data, not an error.  Where bounds.gap_lower_bound accepts t, these
    intervals keep the component apart from the rest, so the perturbed
    component holds the partition's own indices, and its measured gap to the
    rest is reported next to the bound.  A t outside [0, 1], or an infinite
    gap, raises DomainError, and spectra of different lengths DimensionMismatch.
    """
    t = _real(t, "t")
    lower = _applied(bounds.gap_lower_bound, split.norm_plus, split.norm_minus, partition.gap, t)
    w, mus = partition.eigenvalues, decomp_perturbed.eigenvalues
    if w.shape != mus.shape:
        raise DimensionMismatch(f"{mus.size} perturbed eigenvalues for {w.size} unperturbed")
    lo, hi = w - t * split.norm_minus, w + t * split.norm_plus
    excess = float(np.maximum(lo - mus, mus - hi).max())
    tol = ENCLOSURE_RTOL * (1.0 + float(np.abs(w).max()) + split.norm_v)
    measured_gap = None if lower is None else _class_gap(mus.tolist(), partition.component_indices)
    return PerturbedSpectrum(excess <= tol, max(0.0, excess), measured_gap, lower)


def resolvent_interval(
    a: float,
    b: float,
    split: PerturbationSplit,
    spectrum=None,
) -> Optional[Interval]:
    """Interval guaranteed free of perturbed eigenvalues, or None.

    Given (a, b) free of unperturbed eigenvalues, returns
    (a + ||V+||, b - ||V-||) when ||V+|| + ||V-|| < b - a, a test of its own
    (b - a may be infinite, a bound's gap may not).  When `spectrum`
    is supplied, the precondition (a, b) disjoint from it is verified.
    Non-real endpoints, or a spectrum numpy cannot read as real numbers, raise InvalidInterval.
    """
    a, b = _real(a, "a", InvalidInterval), _real(b, "b", InvalidInterval)
    if not a < b:
        raise InvalidInterval(f"need a < b, got a={a!r}, b={b!r}")
    if spectrum is not None:
        try:
            vals = np.asarray(spectrum)
            # a float conversion would keep only the real part of a complex entry
            vals = None if vals.dtype.kind == "c" else vals.astype(float, copy=False).ravel()
        except (TypeError, ValueError, OverflowError):
            vals = None
        if vals is None or np.isnan(vals).any():
            raise InvalidInterval("spectrum must be an array of real numbers")
        offenders = vals[(vals > a) & (vals < b)]
        if offenders.size:
            raise InvalidInterval(
                f"({a!r}, {b!r}) meets the spectrum at {float(offenders[0])!r}"
            )
    if split.norm_sum < b - a:
        return (a + split.norm_plus, b - split.norm_minus)
    return None

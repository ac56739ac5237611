"""Scalar angle bounds for spectral subspace perturbation.

All angles are radians.  Arguments follow one convention: `norm_plus` and
`norm_minus` are the spectral norms of the positive and negative parts of
the perturbation, `gap` is the unperturbed spectral separation.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from functools import lru_cache

import numpy as np

from .errors import (
    BracketFailure,
    DomainError,
    GapConditionViolated,
    InfeasibleConstraint,
)

# Largest admissible per-step normalized strength in the partition search;
# arcsin(pi * lam / 2) leaves its domain beyond it.
STEP_CAP = 2.0 / math.pi


def critical_strength() -> float:
    """Right endpoint of the piecewise bound's domain; the bound reaches pi/2 there."""
    return 0.5 - 0.5 * (1.0 - math.sqrt(3.0) / math.pi) ** 3


def first_branch_point() -> float:
    """Where the half-arcsin branch hands over to the square-root branch."""
    return 4.0 / (math.pi**2 + 4.0)


def second_branch_point() -> float:
    """Where the square-root branch hands over to the two-step branch."""
    return 4.0 * (math.pi**2 - 2.0) / math.pi**4


def kappa_bracket() -> tuple[float, float]:
    """Open-left bracket known to contain the two-step/three-step crossover."""
    return (second_branch_point(), 2.0 * (math.pi - 1.0) / math.pi**2)


def _clip1(x: float) -> float:
    return min(1.0, max(-1.0, x))


def _branch1(x: float) -> float:
    return 0.5 * math.asin(_clip1(math.pi * x))


def _branch2(x: float) -> float:
    ratio = (2.0 * math.pi**2 * x - 4.0) / (math.pi**2 - 4.0)
    return math.asin(_clip1(math.sqrt(max(0.0, ratio))))


def _branch3(x: float) -> float:
    return math.asin(_clip1(0.5 * math.pi * (1.0 - math.sqrt(max(0.0, 1.0 - 2.0 * x)))))


def _branch4(x: float) -> float:
    return 1.5 * math.asin(_clip1(0.5 * math.pi * (1.0 - float(np.cbrt(1.0 - 2.0 * x)))))


_BRANCHES = {1: _branch1, 2: _branch2, 3: _branch3, 4: _branch4}


def branch_formula(branch: int, x: float) -> float:
    """Evaluate one branch formula regardless of where x falls; used for continuity checks.

    A branch other than the integers 1, 2, 3 or 4, or an x that is not a
    finite real number, raises DomainError.
    """
    formula = _BRANCHES[_integer(branch, "branch", 1, most=4)]
    x = _real(x, "x")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return formula(x)


@lru_cache(maxsize=1)
def kappa() -> float:
    """Interior crossover of the piecewise bound, solved once per process.

    Bisection for where the two-step and three-step formulas meet: the root
    is bracketed between the second branch point and 2(pi-1)/pi^2, and the
    result lies strictly inside and satisfies |branch3(kappa) - branch4(kappa)|
    <= 1e-13.
    """
    lo, hi = kappa_bracket()

    def f(k: float) -> float:
        return _branch3(k) - _branch4(k)

    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise BracketFailure(
            f"no sign change over ({lo!r}, {hi!r}): f = ({flo!r}, {fhi!r})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    root = 0.5 * (lo + hi)
    if abs(f(root)) > 1e-13:
        raise BracketFailure(f"residual {abs(f(root)):.3e} exceeds tol 1.000e-13")
    return root


def integral_threshold() -> float:
    """Strength ratio up to which the logarithmic bound stays below pi/2: 2 sinh(1)/e."""
    return 2.0 * math.sinh(1.0) / math.e


def piecewise_angle_bound_with_branch(x: float) -> tuple[float, int]:
    """Piecewise optimal angle bound together with the branch that produced it.

    Domain [0, critical_strength()], real numbers only.  At an exact branch
    point the lower branch is evaluated; the adjacent formulas agree there.
    """
    x = _real(x, "x")
    if not 0.0 <= x <= critical_strength():
        raise DomainError(f"x={x!r} outside [0, {critical_strength()!r}]")
    if x <= first_branch_point():
        return _branch1(x), 1
    if x <= second_branch_point():
        return _branch2(x), 2
    if x <= kappa():
        return _branch3(x), 3
    return _branch4(x), 4


def piecewise_angle_bound(x: float) -> float:
    """Piecewise optimal angle bound on [0, critical_strength()]."""
    return piecewise_angle_bound_with_branch(x)[0]


def _shown(x) -> str:
    """repr(x), or the type of an x Python will not print (an int of over 4300 digits)."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _real(x, name: str, error=DomainError) -> float:
    """x as a float; `error` unless x is a real number (`numbers.Real`) a float can hold."""
    # the exact-type test first: an ABC check costs about a microsecond
    if type(x) is float:
        return x
    if isinstance(x, numbers.Real):
        try:
            return float(x)  # overflows for an int or Fraction beyond the float range
        except OverflowError:
            pass
    raise error(f"arguments must be real numbers in the float range, got {name}={_shown(x)}")


def _integer(x, name: str, least: int, error=DomainError, most: int | None = sys.maxsize) -> int:
    """x as an int (numpy integers included); `error` unless least <= x <= most.

    With most=None, x need only be an int Python will print.
    """
    try:
        value = operator.index(x)
        if least <= value and (repr(value) if most is None else value <= most):
            return value
    except (TypeError, ValueError):
        pass
    above = " that Python will print" if most is None else f" and {name} <= {most}"
    raise error(f"{name} must be an integer with {name} >= {least}{above}, got {_shown(x)}")


# Counts of float64 grids stop at half of numpy's byte limit: np.linspace and
# np.arange size a grid by its count rounded to a float, which may round up.
_MAX_POINTS = sys.maxsize // 16


def _require_norms(norm_plus: float, norm_minus: float, gap: float) -> tuple[float, float]:
    """||V+|| + ||V-|| and the gap as floats, once all three are checked."""
    norm_plus, norm_minus = _real(norm_plus, "norm_plus"), _real(norm_minus, "norm_minus")
    gap = _real(gap, "gap")
    if not (0.0 <= norm_plus < math.inf and 0.0 <= norm_minus < math.inf):
        raise DomainError(f"part norms must be finite and >= 0, got {norm_plus!r}, {norm_minus!r}")
    if not 0.0 < gap < math.inf:
        raise DomainError(f"gap must be finite and positive, got {gap!r}")
    return norm_plus + norm_minus, gap


def gap_lower_bound(norm_plus: float, norm_minus: float, gap: float, t: float = 1.0) -> float:
    """Weyl's guaranteed separation gap - t(||V+|| + ||V-||) of the component of A + tV.

    Hypothesis, the gap condition: t(||V+|| + ||V-||) < gap, else GapConditionViolated.
    A t that is not a real number in [0, 1] raises DomainError.
    """
    t = _real(t, "t")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must be in [0, 1], got {t!r}")
    s, gap = _require_norms(norm_plus, norm_minus, gap)
    # a NaN product (t = 0 times an overflowed sum) fails the condition too
    if not t * s < gap:
        raise GapConditionViolated(f"t(||V+|| + ||V-||) = {t * s!r} must stay below gap {gap!r}")
    return gap - t * s


def _applied(bound, *args: float) -> float | None:
    """bound(*args), or None where its arguments are outside the bound's hypothesis."""
    try:
        return bound(*args)
    except GapConditionViolated:
        return None


def favourable_angle_bound(norm_plus: float, norm_minus: float, gap: float) -> float:
    """Sharp bound (1/2) arcsin((||V+|| + ||V-||)/gap), below pi/4.

    Hypothesis: the gap condition of gap_lower_bound, ||V+|| + ||V-|| < gap, and
    one component's convex hull missing the other, which no argument carries.
    """
    # gap_lower_bound checks all three; float() reads each as its check did
    gap_lower_bound(norm_plus, norm_minus, gap)
    return 0.5 * math.asin((float(norm_plus) + float(norm_minus)) / float(gap))


def generic_angle_bound(norm_plus: float, norm_minus: float, gap: float) -> float:
    """Piecewise bound at (||V+|| + ||V-||)/(2 gap), below pi/2.

    Hypothesis: ||V+|| + ||V-|| < 2 * critical_strength() * gap, else
    GapConditionViolated; no geometry assumption beyond the separation itself.
    """
    s, gap = _require_norms(norm_plus, norm_minus, gap)
    cap = 2.0 * critical_strength() * gap
    if s >= cap:
        raise GapConditionViolated(f"||V+|| + ||V-|| = {s!r} must stay below {cap!r}")
    # the division may round a hair past the endpoint; the precondition was
    # already checked on the un-divided sum
    return piecewise_angle_bound(min(s / (2.0 * gap), critical_strength()))


def half_arcsin_angle_bound(norm_plus: float, norm_minus: float, gap: float) -> float:
    """Bound (1/2) arcsin((pi/2)(||V+|| + ||V-||)/gap), at most pi/4.

    Hypothesis: ||V+|| + ||V-|| <= 2 gap / pi, else GapConditionViolated;
    coincides with the piecewise bound's first branch.
    """
    s, gap = _require_norms(norm_plus, norm_minus, gap)
    if s > 2.0 * gap / math.pi:
        raise GapConditionViolated(f"||V+|| + ||V-|| = {s!r} exceeds 2*gap/pi")
    return 0.5 * math.asin(_clip1(0.5 * math.pi * s / gap))


def sin2theta_bound(
    norm_plus: float, norm_minus: float, gap: float, favourable: bool = False
) -> float:
    """Bound on ||sin 2*Theta||: (pi/2)(||V+|| + ||V-||)/gap, constant 1 when favourable."""
    s, gap = _require_norms(norm_plus, norm_minus, gap)
    return (1.0 if favourable else 0.5 * math.pi) * s / gap


def path_step_bound(
    s: float, t: float, norm_v: float, norm_plus: float, norm_minus: float, gap: float
) -> float:
    """Bound (pi/2) |t - s| ||V|| / (gap - t(||V+|| + ||V-||)) on the projector change from s to t.

    The denominator is gap_lower_bound(norm_plus, norm_minus, gap, t), whose
    hypothesis t(||V+|| + ||V-||) < gap this takes, else GapConditionViolated.
    """
    s, t, norm_v = _real(s, "s"), _real(t, "t"), _real(norm_v, "norm_v")
    if not 0.0 <= s <= t <= 1.0:
        raise DomainError(f"need 0 <= s <= t <= 1, got s={s!r}, t={t!r}")
    if not 0.0 <= norm_v < math.inf:
        raise DomainError(f"norm_v must be finite and nonnegative, got {norm_v!r}")
    return 0.5 * math.pi * (t - s) * norm_v / gap_lower_bound(norm_plus, norm_minus, gap, t)


def integral_angle_bound(norm_plus: float, norm_minus: float, gap: float) -> float:
    """Logarithmic bound (pi/4) log(gap / (gap - ||V+|| - ||V-||)).

    Hypothesis: the gap condition of gap_lower_bound, ||V+|| + ||V-|| < gap;
    strictly below pi/2 while (||V+|| + ||V-||)/gap <= integral_threshold().
    """
    # gap_lower_bound checks all three, before float(gap) reads gap as its check did
    lower = gap_lower_bound(norm_plus, norm_minus, gap)
    return 0.25 * math.pi * math.log(float(gap) / lower)


# The step cap in the log variable u = -log(1 - lam) of the partition search.
_U_CAP = -math.log1p(-STEP_CAP)
# Where g'' changes sign and g' is least: (pi^2/4)(1 - e^-u) = 1, u ~ 0.5198.
_U_STAR = -math.log1p(-4.0 / math.pi**2)

# Points per bracket in the partition search; each round narrows the bracket
# around the best point to two grid cells, a factor (_GRID - 1) / 2 = 32,
# until no bracket is wider than _BRACKET_TOL.  A bracket starts at most
# _U_CAP ~ 1.013 wide, so 7 narrowings (32**7 ~ 3.4e10 > 1.013e10) reach the
# tolerance, at the 8th cost pass.  Rounding cannot stall a zoom before that:
# an ulp below 1.013 is at most 2.2e-16, far below the
# 1e-10 / (_GRID - 1) ~ 1.6e-12 of a cell while a bracket is wider than the
# tolerance, so every round moves an end of that bracket.  _MAX_ROUNDS only
# bounds the loop, with room to spare.  A pass costs about the same at 17
# points as at 65, so the time goes with the number of passes.
_GRID = 65
_BRACKET_TOL = 1e-10
_MAX_ROUNDS = 64
_T = np.linspace(0.0, 1.0, _GRID)
_T.flags.writeable = False


def _step_cost(u: np.ndarray | float, out: np.ndarray | None = None) -> np.ndarray:
    """Per-step bound (1/2) arcsin(pi lam / 2) of the step lam = 1 - exp(-u).

    With `out`, every stage is written into it; `out` may be `u` itself.
    """
    lam = np.multiply(np.expm1(np.negative(u, out=out), out=out), -0.5 * math.pi, out=out)
    return np.multiply(np.arcsin(np.minimum(lam, 1.0, out=out), out=out), 0.5, out=out)


def partition_infimum_bound(x: float, n_max: int = 64) -> float:
    """Minimize the accumulated step bound over partitions of the homotopy path.

    Searches min over n <= n_max of (1/2) sum_j arcsin(pi lam_j / 2) subject to
    prod_j (1 - lam_j) = 1 - x and 0 <= lam_j <= 2/pi.  In the step variables
    u_j = -log(1 - lam_j) the constraint is linear, sum_j u_j = L = -log(1 - x),
    and each step costs g(u) = (1/2) arcsin((pi/2)(1 - e^-u)) on
    0 <= u <= u_cap = -log(1 - 2/pi).

    g' is unimodal: g'' has the sign of (pi^2/4)(1 - e^-u) - 1, so g' falls
    from g'(0) = pi/4 to a single minimum at u* = -log(1 - 4/pi^2) ~ 0.520
    and grows without bound towards u_cap.  A step at u_cap is therefore
    never optimal (moving mass off it gains at an infinite rate), and a step
    at 0 is a partition with fewer steps.  The remaining steps of an optimum
    satisfy the KKT condition g'(u_j) = mu, which a unimodal g' meets at no
    more than two values of u, one on each side of u*.  The second-order
    condition, sum_j g''(u_j) d_j^2 >= 0 whenever sum_j d_j = 0, tested with
    d = e_i - e_j, fails as soon as two steps sit where g'' < 0, so at most
    one step takes the smaller value.  The other n - 1 steps each take at
    least u*, so an optimum has (n - 1) u* <= L, that is n <= 1 + L/u* <= 5
    steps.  The search takes only the rows an optimum can have: the n <= n_max
    with L <= n u_cap and (n - 1) u* <= L, at most 5 of them.  For each row it
    takes the all-equal vector; for each row of two or more steps it also
    takes the family "one step of a, n - 1 steps of (L - a)/(n - 1)", with a
    on a grid over its feasible bracket that zooms in on the best point until
    every bracket is narrower than 1e-10.  Every x < 4/pi^2 has the one
    row n = 1 and returns its single step g(L).  Each zoom shrinks a
    bracket (_GRID - 1)/2 = 32-fold, so that takes at most 8 rounds, each one
    in-place cost pass over a (2, rows, _GRID) = (2, rows, 65) float64
    buffer, one row per n >= 2; with the all-equal vectors, a search makes at
    most 9 cost passes.  rows <= 3: n = 2 is feasible only for
    L <= 2 u_cap ~ 2.025, below the 4 u* ~ 2.079 that n = 5 needs.  The loop
    stops at 64 rounds with BracketFailure, which rounding cannot bring about
    (see _GRID).

    Equals piecewise_angle_bound(x/2) in exact arithmetic; kept free of the
    closed-form branches so it can serve as an independent cross-check.
    Deterministic: repeated calls return the same float.  An x that is not a
    real number in the float range, or an n_max that is not an integer in
    [1, sys.maxsize], raises DomainError.
    """
    x = _real(x, "x")
    if not 0.0 <= x <= 2.0 * critical_strength():
        raise DomainError(f"x={x!r} outside [0, {2.0 * critical_strength()!r}]")
    n_max = _integer(n_max, "n_max", 1)
    if x == 0.0:
        return 0.0
    total = -math.log1p(-x)
    if n_max * _U_CAP < total:
        raise InfeasibleConstraint(
            f"even {n_max} steps at the cap cannot reach the product 1-x = {1.0 - x!r}"
        )
    # the rows an optimum can have: n <= 1 + L/u*, with one row to spare for rounding
    n = np.arange(1.0, min(n_max, 1.0 + total / _U_STAR) + 1.0)
    n = n[(total <= n * _U_CAP) & ((n - 1.0) * _U_STAR <= total)]
    best = float(np.min(n * _step_cost(total / n)))
    # steps sharing the value (total - a) / rest
    rest = n[n >= 2.0] - 1.0
    if rest.size == 0:
        return best
    lo = np.maximum(0.0, total - rest * _U_CAP)[:, None]
    hi = np.full_like(lo, min(_U_CAP, total))
    # numpy buffers every broadcast operand of a ufunc, so the grid's operands
    # are spread to its full shape by copying: rest once, t and the bracket
    # columns each round through b
    rest = np.repeat(rest[:, None], _GRID, axis=1)
    buf = np.empty((2,) + rest.shape)
    a, b = buf
    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        np.copyto(a, _T)
        np.copyto(b, width)
        a *= b
        np.copyto(b, lo)
        a += b  # a = lo + width * t
        np.subtract(total, a, out=b)
        b /= rest
        _step_cost(buf, out=buf)
        b *= rest
        b += a  # cost of one step of a and rest steps of (total - a) / rest
        best = min(best, float(b.min()))
        if width.max() <= _BRACKET_TOL:
            return best
        # the best point, rounded as its grid entry was
        centre = lo + width * _T[b.argmin(axis=1)][:, None]
        cell = width / (_GRID - 1)
        lo = np.maximum(lo, centre - cell)
        hi = np.minimum(hi, centre + cell)
    raise BracketFailure(f"bracket still wider than {_BRACKET_TOL!r} after {_MAX_ROUNDS} rounds")

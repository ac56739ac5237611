import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from specsub import (
    BracketFailure,
    DomainError,
    GapConditionViolated,
    InfeasibleConstraint,
    InvalidInterval,
    InvalidSpec,
    critical_strength,
    favourable_angle_bound,
    first_branch_point,
    gap_lower_bound,
    generic_angle_bound,
    half_arcsin_angle_bound,
    integral_angle_bound,
    integral_threshold,
    kappa,
    kappa_bracket,
    partition_infimum_bound,
    path_step_bound,
    piecewise_angle_bound,
    piecewise_angle_bound_with_branch,
    random_instance,
    resolvent_interval,
    second_branch_point,
    sharp_example_2x2,
    sign_split,
    sin2theta_bound,
)
from specsub import bounds
from specsub.bounds import _GRID, _U_CAP, _U_STAR, _step_cost, branch_formula

# The search's row rule restated: an optimum of n steps has (n - 1) * u* <= L,
# where g'' vanishes at u* = -log(1 - 4/pi^2).
_G2_ROOT = -math.log1p(-4.0 / math.pi**2)


def _optimal_rows(n, total):
    return (n - 1.0) * _G2_ROOT <= total


class TestConstants:
    def test_critical_strength_digits(self):
        # closed form 1/2 - (1/2)(1 - sqrt(3)/pi)^3 = 0.4548399...
        assert math.floor(critical_strength() * 1e7) == 4548399

    def test_critical_strength_between_zero_and_half(self):
        assert 0.0 < critical_strength() < 0.5

    def test_branch_points_ordered(self):
        x1, x2, k = first_branch_point(), second_branch_point(), kappa()
        assert 0.0 < x1 < x2 < k < critical_strength() < 0.5

    def test_integral_threshold_identity(self):
        # 2 sinh(1)/e equals 1 - exp(-2)
        assert integral_threshold() == pytest.approx(1.0 - math.exp(-2.0), abs=1e-16)

    def test_integral_threshold_below_upper_validity(self):
        assert integral_threshold() < 2.0 * critical_strength()


class TestKappa:
    def test_root_inside_bracket(self):
        lo, hi = kappa_bracket()
        k = kappa()
        assert lo < k < hi
        assert round(lo, 4) == 0.3232
        assert round(hi, 4) == 0.434

    def test_residual(self):
        k = kappa()
        assert abs(branch_formula(3, k) - branch_formula(4, k)) <= 1e-13

    def test_branches_agree_at_kappa(self):
        k = kappa()
        assert branch_formula(3, k) == pytest.approx(branch_formula(4, k), abs=1e-10)

    def test_deterministic(self):
        assert kappa.__wrapped__() == kappa.__wrapped__()


class TestPiecewiseAngleBound:
    def test_zero(self):
        assert piecewise_angle_bound(0.0) == 0.0

    def test_endpoint_reaches_half_pi(self):
        # 1 - 2 c_crit = (1 - sqrt(3)/pi)^3, so the last branch gives
        # (3/2) arcsin(sqrt(3)/2) = pi/2
        assert piecewise_angle_bound(critical_strength()) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            piecewise_angle_bound(-1e-12)
        with pytest.raises(DomainError):
            piecewise_angle_bound(critical_strength() + 1e-9)
        for branch in (0, 5):
            with pytest.raises(DomainError, match=f"got {branch}"):
                branch_formula(branch, 0.1)

    def test_adjacent_branches_agree_at_boundaries(self):
        for x, lower, upper in (
            (first_branch_point(), 1, 2),
            (second_branch_point(), 2, 3),
            (kappa(), 3, 4),
        ):
            assert branch_formula(lower, x) == pytest.approx(
                branch_formula(upper, x), abs=1e-9
            )

    def test_lower_branch_used_at_exact_boundary(self):
        assert piecewise_angle_bound_with_branch(first_branch_point())[1] == 1
        assert piecewise_angle_bound_with_branch(second_branch_point())[1] == 2
        assert piecewise_angle_bound_with_branch(kappa())[1] == 3
        assert piecewise_angle_bound_with_branch(critical_strength())[1] == 4

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, critical_strength(), 1000)
        values = [piecewise_angle_bound(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_strictly_below_half_pi_inside_domain(self):
        for x in np.linspace(0.0, critical_strength() - 1e-6, 200):
            assert piecewise_angle_bound(float(x)) < math.pi / 2.0 - 1e-7


class TestFavourableBound:
    def test_zero_perturbation(self):
        assert favourable_angle_bound(0.0, 0.0, 2.0) == 0.0

    def test_exact_quarter_arcsin(self):
        # arcsin(1/2) = pi/6 exactly
        assert favourable_angle_bound(0.25, 0.25, 1.0) == pytest.approx(
            math.pi / 12.0, abs=1e-15
        )

    def test_gap_condition_enforced(self):
        with pytest.raises(GapConditionViolated):
            favourable_angle_bound(0.6, 0.5, 1.0)

    def test_strictly_below_quarter_pi(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            gap = float(rng.uniform(0.1, 10.0))
            s = float(rng.uniform(0.0, 1.0)) * gap * (1.0 - 1e-12)
            p = float(rng.uniform(0.0, 1.0)) * s
            assert favourable_angle_bound(p, s - p, gap) < math.pi / 4.0

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            favourable_angle_bound(-0.1, 0.0, 1.0)
        with pytest.raises(DomainError):
            favourable_angle_bound(0.1, 0.1, 0.0)


class TestGenericBound:
    def test_zero_perturbation(self):
        assert generic_angle_bound(0.0, 0.0, 1.0) == 0.0

    def test_approaches_half_pi_at_validity_edge(self):
        cap = 2.0 * critical_strength()
        value = generic_angle_bound(cap * (1.0 - 1e-12), 0.0, 1.0)
        assert math.pi / 2.0 - 1e-9 < value < math.pi / 2.0

    def test_rejected_at_validity_edge(self):
        with pytest.raises(GapConditionViolated):
            generic_angle_bound(2.0 * critical_strength(), 0.0, 1.0)

    def test_first_branch_matches_half_arcsin_bound(self):
        # for sums with s/(2 gap) in the first branch both bounds evaluate
        # (1/2) arcsin(pi s / (2 gap))
        rng = np.random.default_rng(32)
        for _ in range(100):
            gap = float(rng.uniform(0.5, 3.0))
            s = float(rng.uniform(0.0, 2.0 * first_branch_point())) * gap
            split = float(rng.uniform(0.0, 1.0))
            a, b = split * s, (1.0 - split) * s
            assert generic_angle_bound(a, b, gap) == pytest.approx(
                half_arcsin_angle_bound(a, b, gap), abs=1e-14
            )


class TestHalfArcsinBound:
    def test_zero(self):
        assert half_arcsin_angle_bound(0.0, 0.0, 3.0) == 0.0

    def test_hypothesis_is_the_analysis_rule(self):
        # the bound is the only statement of its hypothesis s <= 2 gap / pi,
        # and an analysis records it exactly where the bound accepts s: one
        # float past the threshold is outside the hypothesis
        s = math.nextafter(2.0 / math.pi, 1.0)
        with pytest.raises(GapConditionViolated):
            half_arcsin_angle_bound(s, 0.0, 1.0)
        with pytest.raises(GapConditionViolated):
            half_arcsin_angle_bound(2.0 / math.pi * (1.0 + 5e-13), 0.0, 1.0)
        assert half_arcsin_angle_bound(2.0 / math.pi, 0.0, 1.0) == math.pi / 4.0

    def test_quarter_pi_at_threshold(self):
        gap = 1.7
        s = 2.0 * gap / math.pi
        assert half_arcsin_angle_bound(s, 0.0, gap) == pytest.approx(
            math.pi / 4.0, abs=1e-12
        )

    def test_exact_twelfth_pi(self):
        gap = 2.0
        s = gap / math.pi
        assert half_arcsin_angle_bound(0.5 * s, 0.5 * s, gap) == pytest.approx(
            math.pi / 12.0, abs=1e-12
        )

    def test_rejected_beyond_threshold(self):
        with pytest.raises(GapConditionViolated):
            half_arcsin_angle_bound(0.7, 0.0, 1.0)

    def test_never_exceeds_quarter_pi(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            gap = float(rng.uniform(0.1, 5.0))
            s = float(rng.uniform(0.0, 2.0 / math.pi)) * gap
            assert half_arcsin_angle_bound(s, 0.0, gap) <= math.pi / 4.0 + 1e-15


class TestSin2ThetaBound:
    def test_zero(self):
        assert sin2theta_bound(0.0, 0.0, 1.0, favourable=True) == 0.0

    def test_favourable_constant_one(self):
        assert sin2theta_bound(0.25, 0.25, 1.0, favourable=True) == pytest.approx(0.5)

    def test_generic_constant_half_pi(self):
        assert sin2theta_bound(0.25, 0.25, 1.0, favourable=False) == pytest.approx(
            math.pi / 4.0
        )


class TestPathStepBound:
    def test_zero_step(self):
        assert path_step_bound(0.3, 0.3, 1.0, 0.2, 0.2, 1.0) == 0.0

    def test_full_path_value(self):
        value = path_step_bound(0.0, 1.0, 0.3, 0.25, 0.25, 1.0)
        assert value == pytest.approx(0.3 * math.pi, abs=1e-15)

    def test_monotone_in_step_length(self):
        short = path_step_bound(0.4, 0.5, 1.0, 0.2, 0.2, 1.0)
        long = path_step_bound(0.2, 0.5, 1.0, 0.2, 0.2, 1.0)
        assert long > short

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            path_step_bound(0.6, 0.4, 1.0, 0.1, 0.1, 1.0)
        with pytest.raises(GapConditionViolated):
            path_step_bound(0.0, 1.0, 1.0, 0.6, 0.5, 1.0)


class TestGapLowerBound:
    def test_weyl_separation(self):
        assert gap_lower_bound(0.2, 0.1, 1.0) == 1.0 - (0.2 + 0.1)
        assert gap_lower_bound(0.2, 0.1, 1.0, 0.5) == 0.85
        assert gap_lower_bound(0.6, 0.6, 1.0, 0.0) == 1.0

    def test_each_bound_reads_it(self):
        # the integral bound is (pi/4) log(gap / gap_lower_bound), and the path
        # step bound's denominator is gap_lower_bound at the step's end
        assert integral_angle_bound(0.2, 0.1, 1.0) == 0.25 * math.pi * math.log(
            1.0 / gap_lower_bound(0.2, 0.1, 1.0)
        )
        assert path_step_bound(0.25, 0.5, 0.3, 0.2, 0.1, 1.0) == (
            0.5 * math.pi * 0.25 * 0.3 / gap_lower_bound(0.2, 0.1, 1.0, 0.5)
        )

    @pytest.mark.parametrize("bound", [favourable_angle_bound, integral_angle_bound])
    def test_arguments_are_checked_once(self, bound, monkeypatch):
        # gap_lower_bound's check is the only one these two bounds make
        calls = []
        check = bounds._require_norms
        monkeypatch.setattr(bounds, "_require_norms", lambda *a: calls.append(a) or check(*a))
        assert bound(0.3, 0.2, 1.0) > 0.0
        assert calls == [(0.3, 0.2, 1.0)]

    @pytest.mark.parametrize(
        "t, message",
        [(t, rf"^t must be in \[0, 1\], got {t!r}$") for t in (1.5, -0.5, math.nextafter(1.0, 2.0))]
        + [(math.nan, r"^t must be in \[0, 1\], got nan$"), (Decimal("0.5"), "real numbers")],
    )
    def test_malformed_t_is_not_outside_the_hypothesis(self, t, message):
        # a t outside [0, 1] is a bad argument, even where t s < gap would hold
        with pytest.raises(DomainError, match=message) as caught:
            gap_lower_bound(0.1, 0.1, 1.0, t)
        assert not isinstance(caught.value, GapConditionViolated)


def test_gap_condition_is_a_domain_error():
    assert issubclass(GapConditionViolated, DomainError)


# each bound of (norm_plus, norm_minus, gap) with the largest sum its hypothesis
# admits at gap 1, and the smallest it does not
_HYPOTHESIS_EDGES = [
    (gap_lower_bound, math.nextafter(1.0, 0.0), 1.0),
    (
        lambda plus, minus, gap: gap_lower_bound(plus, minus, gap, 0.5),
        math.nextafter(2.0, 0.0),
        2.0,
    ),
    (favourable_angle_bound, math.nextafter(1.0, 0.0), 1.0),
    (integral_angle_bound, math.nextafter(1.0, 0.0), 1.0),
    (
        generic_angle_bound,
        math.nextafter(2.0 * critical_strength(), 0.0),
        2.0 * critical_strength(),
    ),
    (half_arcsin_angle_bound, 2.0 / math.pi, math.nextafter(2.0 / math.pi, 1.0)),
    (
        lambda plus, minus, gap: path_step_bound(0.0, 1.0, 1.0, plus, minus, gap),
        math.nextafter(1.0, 0.0),
        1.0,
    ),
]


@pytest.mark.parametrize(
    "fn, inside, outside",
    _HYPOTHESIS_EDGES,
    ids=[
        "gap_lower_bound", "gap_lower_bound-t0.5",
        "favourable", "integral", "generic", "half_arcsin", "path_step",
    ],
)
def test_gap_condition_violated_exactly_outside_the_hypothesis(fn, inside, outside):
    assert math.isfinite(fn(inside, 0.0, 1.0))
    assert math.isfinite(fn(0.5 * inside, 0.5 * inside, 1.0))
    for plus in (outside, 0.5 * outside, 0.0):
        with pytest.raises(GapConditionViolated):
            fn(plus, outside - plus, 1.0)


def test_generic_row_fails_wherever_half_arcsin_or_integral_does():
    # where both apply, the generic bound is the tightest of the three, the
    # favourable bound tighter still, and past the generic range the integral
    # bound exceeds pi/2, which no angle does.  The sin2theta row fails only
    # where the favourable or half-arcsin row does: every angle theta <= that
    # row's bound, which is at most pi/4, has sin 2theta <= sin(2 * bound), and
    # past half-arcsin's range the sin2theta bound is at least 1
    counts = {"half_arcsin": 0, "integral": 0, "favourable": 0, "beyond": 0, "sin2theta": 0}
    for gap in (1e-3, 1.0, 3.7, 1e5):
        for x in np.arange(5000) / 5000:
            s = float(x) * gap
            for plus, minus in ((s, 0.0), (0.0, s), (0.5 * s, 0.5 * s), (0.3 * s, 0.7 * s)):
                generic, half_arcsin, integral, favourable = (
                    bounds._applied(bound, plus, minus, gap)
                    for bound in (
                        generic_angle_bound,
                        half_arcsin_angle_bound,
                        integral_angle_bound,
                        favourable_angle_bound,
                    )
                )
                sin2theta_favourable = sin2theta_bound(plus, minus, gap, True)
                sin2theta_generic = sin2theta_bound(plus, minus, gap, False)
                if favourable is not None:
                    assert math.sin(2.0 * favourable) <= sin2theta_favourable + 1e-15
                if half_arcsin is not None:
                    assert math.sin(2.0 * half_arcsin) <= sin2theta_generic + 1e-15
                else:
                    counts["sin2theta"] += 1
                    assert sin2theta_generic >= 1.0
                if generic is None:
                    if integral is not None:
                        counts["beyond"] += 1
                        assert integral >= 0.5 * math.pi
                    continue
                if half_arcsin is not None:
                    counts["half_arcsin"] += 1
                    assert generic <= half_arcsin + 1e-15
                if integral is not None:
                    counts["integral"] += 1
                    assert generic <= integral + 1e-15
                if favourable is not None:
                    counts["favourable"] += 1
                    assert favourable <= generic + 1e-15
    assert min(counts.values()) > 0, counts


# each bound with valid arguments; every numeric argument position in turn
# gets a non-finite value
_BOUND_CALLS = [
    (gap_lower_bound, (0.1, 0.1, 1.0, 0.5)),
    (favourable_angle_bound, (0.1, 0.1, 1.0)),
    (generic_angle_bound, (0.1, 0.1, 1.0)),
    (half_arcsin_angle_bound, (0.1, 0.1, 1.0)),
    (sin2theta_bound, (0.1, 0.1, 1.0)),
    (integral_angle_bound, (0.1, 0.1, 1.0)),
    (path_step_bound, (0.0, 0.5, 0.1, 0.1, 0.1, 1.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "fn, args, position",
    [
        pytest.param(fn, args, i, id=f"{fn.__name__}-arg{i}")
        for fn, args in _BOUND_CALLS
        for i in range(len(args))
    ],
)
def test_non_finite_arguments_rejected(fn, args, position, bad):
    fn(*args)
    bad_args = list(args)
    bad_args[position] = bad
    with pytest.raises(DomainError) as caught:
        fn(*bad_args)
    # a malformed argument is not a sum outside the bound's hypothesis
    assert not isinstance(caught.value, GapConditionViolated)


@pytest.mark.parametrize(
    "fn, args, position",
    [
        pytest.param(fn, args, i, id=f"{fn.__name__}-arg{i}")
        for fn, args in _BOUND_CALLS
        for i in range(len(args))
    ],
)
def test_only_real_numbers_accepted(fn, args, position):
    # a Decimal used to reach the arithmetic and raise a bare TypeError;
    # Fraction and numpy scalars are real numbers and give the float's value
    def with_value(value):
        changed = list(args)
        changed[position] = value
        return changed

    for value in (Decimal(repr(args[position])), complex(args[position])):
        with pytest.raises(DomainError, match="real numbers") as caught:
            fn(*with_value(value))
        assert not isinstance(caught.value, GapConditionViolated)
    expected = fn(*args)
    assert fn(*with_value(Fraction(args[position]))) == expected
    assert fn(*with_value(np.float64(args[position]))) == expected
    assert fn(*with_value(np.float32(args[position]))) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(
    "fn",
    [
        piecewise_angle_bound,
        piecewise_angle_bound_with_branch,
        partition_infimum_bound,
        lambda x: branch_formula(4, x),
    ],
    ids=["piecewise", "piecewise_with_branch", "partition_infimum", "branch_formula"],
)
def test_only_real_x_accepted(fn):
    # these took x through float(), so "0.3" and Decimal("0.3") gave values
    # and 0.3+0j a bare TypeError
    for bad in (Decimal("0.3"), complex(0.3), "0.3", b"0.3"):
        with pytest.raises(DomainError, match="real numbers"):
            fn(bad)
    expected = fn(0.3)
    assert fn(Fraction(0.3)) == expected
    assert fn(np.float64(0.3)) == expected
    assert fn(np.float32(0.3)) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("branch", [1, 2, 3, 4])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_branch_formula_rejects_non_finite_x(branch, x):
    # the clip to [-1, 1] turned NaN into -1: branch 1 at NaN gave -pi/4
    with pytest.raises(DomainError, match="finite"):
        branch_formula(branch, x)


_HUGE = 10**400  # a real number beyond the float range, whose float() overflows
# reals beyond the float range that Python will not print either
_UNPRINTABLE = {"10**5000": 10**5000, "10**5000/3": Fraction(10**5000, 3)}


def _beyond_the_float_range(huge):
    """(id, call, error) for each call that passes `huge`, a real beyond the float range."""
    return [
        ("branch_formula", lambda: branch_formula(1, huge), DomainError),
        ("piecewise", lambda: piecewise_angle_bound(huge), DomainError),
        ("partition_infimum", lambda: partition_infimum_bound(-huge), DomainError),
        ("favourable", lambda: favourable_angle_bound(huge, 0.1, 1.0), DomainError),
        ("generic", lambda: generic_angle_bound(0.1, 0.1, huge), DomainError),
        ("sin2theta", lambda: sin2theta_bound(0.1, huge, 1.0), DomainError),
        (
            "integral-fraction",
            lambda: integral_angle_bound(0.1, 0.1, Fraction(huge)),
            DomainError,
        ),
        (
            "integral-fraction-sum",
            lambda: integral_angle_bound(0.1, Fraction(huge, 3), 1.0),
            DomainError,
        ),
        ("path_step", lambda: path_step_bound(0.0, 0.5, huge, 0.1, 0.1, 1.0), DomainError),
        ("gap_lower_bound", lambda: gap_lower_bound(0.1, 0.1, 1.0, huge), DomainError),
        (
            "resolvent_interval",
            lambda: resolvent_interval(huge, 10 * huge, sign_split(np.diag([0.1, -0.1]))),
            InvalidInterval,
        ),
        ("scale", lambda: random_instance(4, 1.0, 2, scale=huge, seed=0), InvalidSpec),
        ("d_target", lambda: random_instance(4, huge, 2, scale=0.5, seed=0), InvalidSpec),
    ]


@pytest.mark.parametrize(
    "call, error",
    [pytest.param(call, error, id=name) for name, call, error in _beyond_the_float_range(_HUGE)]
    # the message that names a rejected value used to raise a bare ValueError
    # for these; sharp_example_2x2 and the branch take them too
    + [
        pytest.param(call, error, id=f"{name}-{label}")
        for label, huge in _UNPRINTABLE.items()
        for name, call, error in _beyond_the_float_range(huge)
        + [
            ("sharp_example_2x2", lambda huge=huge: sharp_example_2x2(0.1, huge), DomainError),
            ("branch", lambda huge=huge: branch_formula(huge, 0.3), DomainError),
            ("negative-branch", lambda huge=huge: branch_formula(-huge, 0.3), DomainError),
        ]
    ],
)
def test_reals_beyond_the_float_range_rejected(call, error):
    # each of these raised a bare OverflowError from float() or from an
    # int + float sum
    with pytest.raises(error):
        call()


class TestIntegralBound:
    def test_zero(self):
        assert integral_angle_bound(0.0, 0.0, 1.0) == 0.0

    def test_boundary_reaches_half_pi(self):
        # at s/gap = 1 - exp(-2) the logarithm equals 2
        s = integral_threshold()
        assert integral_angle_bound(s, 0.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_beyond_threshold_exceeds_half_pi(self):
        assert integral_angle_bound(0.9, 0.0, 1.0) > math.pi / 2.0

    def test_gap_condition(self):
        with pytest.raises(GapConditionViolated):
            integral_angle_bound(0.6, 0.5, 1.0)


class TestPartitionInfimum:
    def test_zero(self):
        assert partition_infimum_bound(0.0) == 0.0

    def test_single_step_regime_matches_first_branch(self):
        # x/2 inside the first branch: the one-step vector is optimal
        x = 0.3
        assert partition_infimum_bound(x, n_max=8) == pytest.approx(
            piecewise_angle_bound(x / 2.0), abs=1e-10
        )

    def test_unequal_steps_beat_equal_steps_in_second_branch(self):
        # at x/2 = 0.30 the refinement must find a vector strictly better
        # than every all-equal candidate
        x = 0.60
        best_equal = np.inf
        for n in range(1, 65):
            lam = -math.expm1(math.log1p(-x) / n)
            if lam <= 2.0 / math.pi:
                best_equal = min(
                    best_equal, 0.5 * n * math.asin(0.5 * math.pi * lam)
                )
        value = partition_infimum_bound(x, n_max=16)
        assert value < best_equal - 1e-4
        assert value == pytest.approx(piecewise_angle_bound(x / 2.0), abs=1e-6)

    def test_near_validity_edge(self):
        x = 2.0 * critical_strength() * (1.0 - 1e-9)
        assert partition_infimum_bound(x, n_max=16) == pytest.approx(
            piecewise_angle_bound(x / 2.0), abs=1e-3
        )

    def test_infeasible_partition_size(self):
        with pytest.raises(InfeasibleConstraint):
            partition_infimum_bound(0.8, n_max=1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            partition_infimum_bound(-0.1)
        with pytest.raises(DomainError):
            partition_infimum_bound(2.0 * critical_strength() + 1e-6)
        with pytest.raises(DomainError):
            partition_infimum_bound(0.5, n_max=0)

    # a fractional n_max used to search ceil(n_max) steps
    @pytest.mark.parametrize(
        "n_max",
        [
            2.5, 2.0, "2", None,
            pytest.param(10**5000, id="10**5000"), pytest.param(-(10**5000), id="-10**5000"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("x", [0.6, 0.85, 0.9])
    def test_n_max_must_be_an_integer(self, x, n_max):
        with pytest.raises(DomainError):
            partition_infimum_bound(x, n_max=n_max)

    # n_max = sys.maxsize // 544 + 1 was once the first value rejected
    @pytest.mark.parametrize("n_max", [sys.maxsize // 544 + 1, 2**62, sys.maxsize])
    def test_huge_n_max_matches_n_max_64(self, n_max):
        # the search holds nothing sized by n_max, so any int n_max costs
        # what n_max = 64 does
        assert partition_infimum_bound(0.5, n_max=n_max) == partition_infimum_bound(0.5, n_max=64)
        assert _traced_peak(0.5, n_max) <= _working_set_bound(0.5, 64)

    def test_integer_like_n_max(self):
        assert partition_infimum_bound(0.85, n_max=np.int64(2)) == partition_infimum_bound(
            0.85, n_max=2
        )

    def test_step_cost_slope_is_unimodal(self):
        # the two-value reduction rests on g' falling once, then rising
        # without bound towards the cap; g' is differenced from the search's
        # own step cost
        def slope(u, h=1e-6):
            return (_step_cost(u + h) - _step_cost(u - h)) / (2.0 * h)

        u = np.linspace(0.0, _U_CAP, 4001)[1:-1]
        d = slope(u)
        assert np.count_nonzero(np.diff(np.sign(np.diff(d)))) == 1
        assert u[np.argmin(d)] == pytest.approx(0.520, abs=2e-3)
        # the row rule's u*: where g'' = 0, from (pi^2/4)(1 - e^-u) = 1
        assert _U_STAR == -math.log1p(-4.0 / math.pi**2)
        assert u[np.argmin(d)] == pytest.approx(_U_STAR, abs=2e-3)
        curvature = np.diff(d)  # differenced g'' between neighbouring grid points
        middle = 0.5 * (u[1:] + u[:-1])
        assert np.all(curvature[middle < _U_STAR] < 0.0)
        assert np.all(curvature[middle > _U_STAR] > 0.0)
        assert float(slope(np.array(0.0))) == pytest.approx(math.pi / 4.0, abs=1e-9)
        near_cap = np.array([_U_CAP - 10.0**-k for k in range(2, 9)])
        steep = slope(near_cap, h=1e-3 * (_U_CAP - near_cap))
        assert np.all(np.diff(steep) > 0.0)
        assert steep[-1] > 1e3

    def test_two_value_reduction_against_brute_force(self):
        # with at most three steps, a dense grid over the constraint plane
        # u3 = L - u1 - u2 must never beat the search
        u = np.linspace(0.0, _U_CAP, 801)
        u1, u2 = np.meshgrid(u, u, sparse=True)
        for x in (0.05, 0.3, 0.5, 0.6, 0.7, 0.8, 0.88, 2.0 * critical_strength()):
            total = -math.log1p(-x)
            u3 = total - u1 - u2
            feasible = (u3 >= 0.0) & (u3 <= _U_CAP)
            lam = -np.expm1(-np.stack(np.broadcast_arrays(u1, u2, u3)))
            steps = 0.5 * np.arcsin(np.clip(0.5 * math.pi * lam, -1.0, 1.0))
            grid_min = float(np.min(np.where(feasible, steps.sum(axis=0), np.inf)))
            searched = partition_infimum_bound(x, n_max=3)
            assert grid_min >= searched - 1e-12, x
            assert grid_min - searched <= 1e-5, x

    def test_pruned_rows_never_win(self):
        # a row the search skips, (n - 1) u* > L, holds n - 1 steps where
        # g'' < 0 or one step at zero; a dense grid over its family "one step
        # of a, n - 1 steps of (L - a)/(n - 1)" never beats the search
        t = np.linspace(0.0, 1.0, 4001)
        for x in map(float, np.linspace(0.0, 2.0 * critical_strength(), 201)[1:]):
            total = -math.log1p(-x)
            searched = partition_infimum_bound(x, n_max=16)
            for n in range(2, 17):
                if total > n * _U_CAP or _optimal_rows(n, total):
                    continue
                rest = n - 1.0
                lo, hi = max(0.0, total - rest * _U_CAP), min(_U_CAP, total)
                a = lo + (hi - lo) * t
                cost = _reference_step_cost(a) + rest * _reference_step_cost((total - a) / rest)
                assert float(cost.min()) >= searched, (x, n)


def _reference_step_cost(u):
    return 0.5 * np.arcsin(np.minimum(1.0, -0.5 * math.pi * np.expm1(-u)))


def _reference_search(x, n_max, row_rule=None):
    """The partition search as it was before its zoom loop worked in place.

    A copy kept as the oracle for the current loop: x is a float in the
    domain and n_max an int of at least 1.  The all-equal vectors and the
    zoom over rows of two or more steps take every feasible row, or those of
    them where row_rule(n, total) holds.
    """
    if x == 0.0:
        return 0.0
    total = -math.log1p(-x)
    if n_max * _U_CAP < total:
        raise InfeasibleConstraint("infeasible")
    n = np.arange(1, n_max + 1, dtype=float)
    n = n[total <= n * _U_CAP]
    if row_rule is not None:
        n = n[row_rule(n, total)]
    best = float(np.min(n * _reference_step_cost(total / n)))
    rest = n[n >= 2.0][:, None] - 1.0
    if rest.size == 0:
        return best
    lo = np.maximum(0.0, total - rest * _U_CAP)
    hi = np.full_like(lo, min(_U_CAP, total))
    t = np.linspace(0.0, 1.0, _GRID)
    while True:
        a = lo + (hi - lo) * t
        cost = _reference_step_cost(a) + rest * _reference_step_cost((total - a) / rest)
        best = min(best, float(cost.min()))
        width = hi - lo
        if width.max() <= 1e-10:
            return best
        centre = np.take_along_axis(a, cost.argmin(axis=1)[:, None], axis=1)
        cell = width / (_GRID - 1)
        lo_next = np.maximum(lo, centre - cell)
        hi_next = np.minimum(hi, centre + cell)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            return best
        lo, hi = lo_next, hi_next


def _outcome(search, x, n_max, *rule):
    try:
        return search(x, n_max, *rule)
    except Exception as exc:
        return type(exc)


class TestZoomLoop:
    _C2 = 2.0 * critical_strength()

    _XS = list(np.linspace(0.0, _C2, 241))
    _XS += [5e-324, 1e-12, first_branch_point(), np.nextafter(_C2, 0.0)]

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 8, 16, 64, 128])
    def test_matches_the_reference_loop(self, n_max):
        # bit for bit, and the same error where the constraint is infeasible,
        # with the oracle zooming on the rows the search keeps
        for x in map(float, self._XS):
            expected = _outcome(_reference_search, x, n_max, _optimal_rows)
            assert _outcome(partition_infimum_bound, x, n_max) == expected, (x, n_max)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 8, 16, 64, 128])
    def test_pruning_against_every_row(self, n_max):
        # the skipped rows hold no optimum, but the loop stops once the kept
        # rows' brackets are narrow, which may leave unfound an ulp or two
        # that the all-rows loop's later rounds find; never a lower value
        xs = self._XS + list(np.linspace(0.0, self._C2, 2001)[1::8])
        for x in map(float, xs):
            expected = _outcome(_reference_search, x, n_max)
            value = _outcome(partition_infimum_bound, x, n_max)
            if not isinstance(expected, float):
                assert value == expected, (x, n_max)
                continue
            ulps = int(np.float64(value).view(np.int64) - np.float64(expected).view(np.int64))
            assert 0 <= ulps <= 2, (x, n_max, ulps)

    def test_step_cost_in_place(self):
        u = np.linspace(0.0, _U_CAP, 2 * 5 * _GRID).reshape(2, 5, _GRID)
        expected = _reference_step_cost(u)
        assert np.array_equal(_step_cost(u).view(np.int64), expected.view(np.int64))
        buf = u.copy()
        assert _step_cost(buf, out=buf) is buf
        assert np.array_equal(buf.view(np.int64), expected.view(np.int64))
        # scalar and 0-d steps, as the slope test differences them
        for value in (0.0, 0.52, np.float64(0.52), np.array(0.52)):
            cost = _step_cost(value)
            assert np.ndim(cost) == 0
            assert float(cost) == float(_step_cost(np.array([value], dtype=float))[0])

    @pytest.mark.parametrize("n_max", [1, 2, 3, 5, 64, 128, 10**6])
    def test_cost_passes(self, n_max, monkeypatch):
        # one pass for the all-equal vectors and at most 8 zoom passes, as 7
        # narrowings by (_GRID - 1)/2 = 32 take a bracket of at most u_cap
        # below the tolerance; below 4/pi^2 only n = 1 is searched
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return _step_cost(*args, **kwargs)

        monkeypatch.setattr(bounds, "_step_cost", counted)
        xs = self._XS + list(np.linspace(0.0, self._C2, 4001))
        for x in map(float, xs):
            calls = 0
            _outcome(partition_infimum_bound, x, n_max)
            assert calls <= (1 if x < 4.0 / math.pi**2 else 9), (x, n_max, calls)

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.6, 0.9])
    def test_working_set(self, x):
        for n_max in (8, 64, 10**6):
            assert _traced_peak(x, n_max) <= _working_set_bound(x, n_max), n_max

    @pytest.mark.parametrize("n_max", [2, 8, 64, 128])
    def test_tiny_x_meets_the_closed_form(self, n_max):
        # rounding puts a many-step all-equal vector n g(L/n) below g(L) at
        # tiny x; only rows that can hold an optimum are searched
        for x in map(float, np.geomspace(5e-324, 1e-3, 4000)):
            value = partition_infimum_bound(x, n_max)
            expected = piecewise_angle_bound(x / 2.0)
            ulps = int(np.float64(value).view(np.int64) - np.float64(expected).view(np.int64))
            assert -2 <= ulps <= 2, (x, n_max, ulps)

    def test_rows_beyond_five_change_nothing(self):
        # an optimum has at most 5 steps, so n_max >= 5 searches the same rows
        for x in map(float, self._XS):
            expected = partition_infimum_bound(x, 5)
            for n_max in (6, 8, 64, 128, 10**6, sys.maxsize):
                assert partition_infimum_bound(x, n_max) == expected, (x, n_max)


def _traced_peak(x, n_max):
    """Traced peak bytes of partition_infimum_bound(x, n_max), after one warm call."""
    partition_infimum_bound(x, n_max)
    tracemalloc.start()
    try:
        partition_infimum_bound(x, n_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _working_set_bound(x, n_max):
    """Bytes partition_infimum_bound(x, n_max) may hold; no term grows with n_max.

    _reference_search holds about 6.7 grids of rows x _GRID float64 at its
    peak; the in-place loop holds its two-grid buffer, rest spread to a grid,
    and the bracket columns, for the rows it searches only.  The equal-step
    candidates take a few vectors over the at most 5 rows an optimum can
    have, and array headers and scalars a fixed 2 KiB.
    """
    total = -math.log1p(-x)
    rows = sum(
        1 for n in range(2, min(n_max, 5) + 1) if total <= n * _U_CAP and _optimal_rows(n, total)
    )
    return 5 * (rows * _GRID + 5) * 8 + 2048


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports this checkout's specsub."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_does_not_load_scipy():
    _run_fresh("import specsub, sys; assert 'scipy' not in sys.modules")


def test_submodules_load_on_first_use():
    # the bound catalog needs none of the measuring side, and the package itself nothing
    _run_fresh(
        "import specsub.bounds, sys; "
        "others = {'specsub.harness', 'specsub.linalg', 'specsub.spectral', 'specsub.fileio', "
        "'specsub.cli'} & set(sys.modules); "
        "assert not others, others"
    )
    _run_fresh(
        "import specsub, sys; "
        "loaded = {m for m in sys.modules if m.startswith(('specsub.', 'numpy'))}; "
        "assert not loaded, loaded"
    )


def test_cli_import_does_not_load_the_process_pool():
    # only a pooled fuzz run (--jobs above 1) imports them
    _run_fresh(
        "import specsub.cli, sys; "
        "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules); "
        "assert not loaded, loaded"
    )

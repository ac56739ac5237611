import dataclasses
import gc
import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import specsub.bounds
import specsub.harness
import specsub.linalg
from specsub import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    EnclosureViolation,
    GapConditionViolated,
    GeometryKind,
    InvalidSpec,
    NonHermitianInput,
    analyze_instance,
    critical_strength,
    eigh,
    generic_angle_bound,
    geometry_kind,
    half_arcsin_angle_bound,
    measure_angles,
    partition_spectrum,
    path_scan,
    perturbed_component_at_t,
    random_instance,
    sharp_example_2x2,
    sign_split,
    verify_instance,
)
from specsub.fileio import REPORT_FORMAT_VERSION, report_payload
from specsub.harness import ANGLE_SLACK, BOUND_CHECKS, Instance
from specsub.linalg import SpectralDecomposition


def partition_for(values, intervals):
    return partition_spectrum(eigh(np.diag(values)), intervals)


class TestMeasureAngles:
    def test_identical_projectors(self):
        u = eigh(np.diag([0.0, 1.0, 2.0])).eigenvectors
        m = measure_angles(u[:, [2]], u[:, [0, 1]])
        assert m.max_angle == 0.0
        assert m.sin2theta_norm == 0.0
        assert np.all(m.singular_values == 0.0)

    def test_orthogonal_ranges(self):
        # span(e0) against span(e1): the complement of the first is span(e1)
        u = eigh(np.diag([0.0, 1.0])).eigenvectors
        m = measure_angles(u[:, [1]], u[:, [1]])
        assert m.max_angle == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert m.sin2theta_norm == pytest.approx(0.0, abs=1e-12)
        assert m.singular_values.tolist() == [1.0]

    def test_sharp_example_angle(self):
        inst, expected = sharp_example_2x2(0.25, 0.25)
        analysis = analyze_instance(inst)
        assert analysis.angles.max_angle == pytest.approx(math.pi / 12.0, abs=1e-12)
        assert expected == pytest.approx(math.pi / 12.0, abs=1e-15)

    def test_dimension_mismatch(self):
        u2 = eigh(np.diag([0.0, 1.0])).eigenvectors
        u3 = eigh(np.diag([0.0, 1.0, 2.0])).eigenvectors
        with pytest.raises(DimensionMismatch):  # heights differ
            measure_angles(u2[:, [1]], u3[:, [0]])
        with pytest.raises(DimensionMismatch):  # ranks 1 and 2 in C^3
            measure_angles(u3[:, [1, 2]], u3[:, [0, 1]])
        with pytest.raises(DimensionMismatch):  # ranks 2 and 1 in C^3
            measure_angles(u3[:, [2]], u3[:, [0]])
        with pytest.raises(DimensionMismatch):  # a vector, not a basis
            measure_angles(np.ones(3), np.ones((3, 1)))

    def test_one_sine_per_principal_angle(self):
        rng = np.random.default_rng(40)
        for n in range(2, 9):
            d1 = eigh(_random_hermitian(rng, n))
            d2 = eigh(_random_hermitian(rng, n))
            for k in range(1, n):
                m = measure_angles(d1.eigenvectors[:, k:], d2.eigenvectors[:, :k])
                assert len(m.singular_values) == min(k, n - k)
                assert np.all(np.diff(m.singular_values) <= 0.0)

    def test_sin_chain_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            d1 = eigh(_random_hermitian(rng, n))
            d2 = eigh(_random_hermitian(rng, n))
            k = int(rng.integers(1, n))
            m = measure_angles(d1.eigenvectors[:, k:], d2.eigenvectors[:, :k])
            # wider than the sibling test's 1e-15: random pairs reach sines near 1, where
            # 1 - s*s cancels (1.39e-15 at s = 0.99913 over seeds 1000-1019)
            assert math.sin(2.0 * m.max_angle) <= m.sin2theta_norm + 1e-10
            assert np.all((0.0 <= m.singular_values) & (m.singular_values <= 1.0))

    def test_degenerate_eigenspace_is_basis_independent(self):
        # rotating the basis of a degenerate eigenspace leaves the subspace,
        # and so every principal angle, where it was
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        vals = np.array([-2.0, 1.0, 1.0, 1.0, 3.0])
        h = (q * vals) @ q.conj().T
        dec = eigh(0.5 * (h + h.conj().T))
        idx = [k for k, lam in enumerate(dec.eigenvalues) if abs(lam - 1.0) < 1e-8]
        assert idx == [1, 2, 3]
        rest = dec.eigenvectors[:, [0, 4]]
        for _ in range(5):
            rot = np.linalg.qr(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )[0]
            m = measure_angles(rest, dec.eigenvectors[:, idx] @ rot)
            assert m.max_angle <= 1e-12

    def test_report_carries_the_sines(self):
        inst = random_instance(n=7, d_target=1.0, component_split=2, scale=0.8, seed=12)
        analysis = analyze_instance(inst)
        doc = report_payload(analysis)
        assert doc["format_version"] == REPORT_FORMAT_VERSION == 5
        sines = doc["singular_values"]
        assert sines == analysis.angles.singular_values.tolist()
        assert len(sines) == 2
        assert math.asin(sines[0]) == pytest.approx(doc["report"]["measured_angle"], abs=1e-15)
        assert doc["component_indices"] == analysis.partition.component_indices
        assert doc["rest_indices"] == analysis.partition.rest_indices


def shift_perturbed_spectrum(monkeypatch, shift):
    """Make harness's decompositions of A + tV report eigenvalues moved by `shift`.

    A's decomposition is the one of the matrix that harness validated last.
    """
    validate, real = specsub.harness.require_hermitian, specsub.harness.decompose
    validated = [None]

    def recorded(a, name="matrix"):
        validated[0] = validate(a, name=name)
        return validated[0]

    def shifted(h):
        dec = real(h)
        if h is validated[0]:
            return dec
        return SpectralDecomposition(dec.eigenvalues + shift, dec.eigenvectors)

    monkeypatch.setattr(specsub.harness, "require_hermitian", recorded)
    monkeypatch.setattr(specsub.harness, "decompose", shifted)


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


class TestGeometryKind:
    def test_singletons_are_favourable(self):
        part = partition_for([0.5, -0.5], [(0.4, 0.6)])
        assert geometry_kind(part) is GeometryKind.FAVOURABLE

    def test_point_hull_inside_spread_component(self):
        # component {0, 3} straddles {1.5}, but conv({1.5}) contains no
        # component point, so the geometry is still favourable
        part = partition_for([0.0, 1.5, 3.0], [(-0.1, 0.1), (2.9, 3.1)])
        assert geometry_kind(part) is GeometryKind.FAVOURABLE

    def test_mutually_interlaced_is_generic(self):
        part = partition_for(
            [0.0, 1.5, 3.0, 4.5], [(-0.1, 0.1), (2.9, 3.1)]
        )
        assert geometry_kind(part) is GeometryKind.GENERIC


class TestSharpExample:
    def test_zero_perturbation(self):
        inst, expected = sharp_example_2x2(0.0, 0.0)
        assert expected == 0.0
        assert np.all(inst.v == 0.0)

    def test_perturbation_spectrum(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        w = np.linalg.eigvalsh(inst.v)
        np.testing.assert_allclose(w, [-0.2, 0.3], atol=1e-10)

    def test_perturbed_spectrum(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        w = np.linalg.eigvalsh(inst.a + inst.v)
        root = math.sqrt(1.0 - 0.25)
        np.testing.assert_allclose(
            w, [(0.1 - root) / 2.0, (0.1 + root) / 2.0], atol=1e-14
        )

    def test_measured_angle_matches_expected(self):
        inst, expected = sharp_example_2x2(0.3, 0.2)
        rep = verify_instance(inst)
        assert rep.measured_angle == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5 * math.asin(0.5), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sharp_example_2x2(0.5, 0.5)
        with pytest.raises(DomainError):
            sharp_example_2x2(-0.1, 0.2)
        with pytest.raises(DomainError):
            sharp_example_2x2(1.0, 0.0)
        for bad in ("0.1", None, Decimal("0.3")):
            with pytest.raises(DomainError):
                sharp_example_2x2(bad, 0.2)
            with pytest.raises(DomainError):
                sharp_example_2x2(0.2, bad)

    def test_fractions_and_numpy_floats_accepted(self):
        reference = sharp_example_2x2(0.3, 0.2)[0].v
        assert np.array_equal(sharp_example_2x2(Fraction(3, 10), np.float64(0.2))[0].v, reference)

    def test_semidefinite_edge(self):
        inst, expected = sharp_example_2x2(0.0, 0.5)
        rep = verify_instance(inst)
        assert rep.norm_plus == pytest.approx(0.0, abs=1e-12)
        assert rep.norm_minus == pytest.approx(0.5, abs=1e-12)
        assert rep.measured_angle == pytest.approx(expected, abs=1e-12)


def failing_routine(*args, **kwargs):
    """A stand-in for a numpy.linalg routine whose LAPACK call fails."""
    raise np.linalg.LinAlgError("did not converge")


class TestRandomInstance:
    @pytest.mark.parametrize("routine", ["qr", "eigvalsh"])
    def test_lapack_error_is_a_convergence_failure(self, monkeypatch, routine):
        monkeypatch.setattr(np.linalg, routine, failing_routine)
        with pytest.raises(ConvergenceFailure, match="eigensolver failed: did not converge"):
            random_instance(n=8, d_target=1.0, component_split=3, scale=0.7, seed=123)

    def test_deterministic_per_seed(self):
        a = random_instance(n=8, d_target=1.0, component_split=3, scale=0.7, seed=123)
        b = random_instance(n=8, d_target=1.0, component_split=3, scale=0.7, seed=123)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.v, b.v)
        assert a.component_intervals == b.component_intervals
        assert a.label == b.label

    def test_different_seed_differs(self):
        a = random_instance(n=8, d_target=1.0, component_split=3, scale=0.7, seed=123)
        b = random_instance(n=8, d_target=1.0, component_split=3, scale=0.7, seed=124)
        assert not np.array_equal(a.a, b.a)

    def test_gap_recovered(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            split = int(rng.integers(1, n))
            d_target = float(rng.uniform(0.2, 3.0))
            inst = random_instance(
                n=n,
                d_target=d_target,
                component_split=split,
                scale=0.5,
                seed=int(rng.integers(0, 2**32)),
            )
            part = partition_spectrum(eigh(inst.a), inst.component_intervals)
            assert part.gap == pytest.approx(d_target, abs=1e-10)
            assert len(part.component_indices) == split

    def test_zero_scale_means_zero_perturbation(self):
        inst = random_instance(n=5, d_target=1.0, component_split=2, scale=0.0, seed=1)
        assert np.all(inst.v == 0.0)

    def test_near_overflow_scale_keeps_v_finite(self):
        # V is drawn exactly Hermitian and scaled as it is; symmetrizing it
        # again doubled entries near 9e307 to inf
        inst = random_instance(n=2, d_target=1.0, component_split=1, scale=1.79e308, seed=3)
        assert np.isfinite(inst.v).all() and abs(inst.v).max() > 9e307
        assert sign_split(inst.v).norm_sum == pytest.approx(1.79e308, rel=1e-15)

    def test_scale_controls_gap_condition(self):
        for scale, expected in ((0.9, True), (1.1, False)):
            inst = random_instance(
                n=6, d_target=1.0, component_split=2, scale=scale, seed=5
            )
            part = partition_spectrum(eigh(inst.a), inst.component_intervals)
            split = sign_split(inst.v)
            assert split.norm_sum == pytest.approx(scale, rel=1e-12)
            assert (split.norm_sum < part.gap) is expected

    def test_separated_layout_is_favourable(self):
        inst = random_instance(n=7, d_target=1.0, component_split=3, scale=0.5, seed=9)
        dec = eigh(inst.a)
        part = partition_spectrum(dec, inst.component_intervals)
        assert geometry_kind(part) is GeometryKind.FAVOURABLE

    def test_interlaced_layout_is_generic(self):
        inst = random_instance(
            n=8, d_target=1.0, component_split=4, scale=0.5, seed=9, interlaced=True
        )
        dec = eigh(inst.a)
        part = partition_spectrum(dec, inst.component_intervals)
        assert geometry_kind(part) is GeometryKind.GENERIC
        assert part.gap == pytest.approx(1.0, abs=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidSpec):
            random_instance(n=1, d_target=1.0, component_split=1, scale=0.5, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=1.0, component_split=4, scale=0.5, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=0.0, component_split=2, scale=0.5, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=1.0, component_split=2, scale=-0.5, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(
                n=4, d_target=1.0, component_split=1, scale=0.5, seed=0, interlaced=True
            )
        for bad in ("1", None, Decimal("0.5")):
            with pytest.raises(InvalidSpec):
                random_instance(n=4, d_target=bad, component_split=2, scale=0.5, seed=0)
            with pytest.raises(InvalidSpec):
                random_instance(n=4, d_target=1.0, component_split=2, scale=bad, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_and_gap_rejected(self, bad):
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=1.0, component_split=2, scale=bad, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=bad, component_split=2, scale=0.5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec, match="seed >= 0"):
            random_instance(n=4, d_target=1.0, component_split=2, scale=0.5, seed=-1)

    def test_fractions_and_numpy_floats_accepted(self):
        args = dict(n=4, component_split=2, seed=0)
        reference = random_instance(d_target=1.0, scale=0.5, **args)
        inst = random_instance(d_target=np.float32(1.0), scale=Fraction(1, 2), **args)
        assert np.array_equal(inst.v, reference.v)


class TestIntegerArguments:
    ARGS = dict(n=6, d_target=1.0, component_split=2, scale=0.5, seed=0)

    @pytest.mark.parametrize(
        "name, value",
        [("n", 6.0), ("component_split", 2.5), ("seed", 1.5), ("steps", 2.5)]
        # integers Python will not print, whose message used to raise a bare ValueError
        + [
            pytest.param(name, sign * 10**5000, id=f"{name}-{sign * 10}**5000")
            for name in ("n", "component_split", "seed", "steps")
            for sign in (1, -1)
        ],
    )
    def test_non_integer_rejected(self, name, value):
        with pytest.raises(InvalidSpec, match=f"{name} must be an integer"):
            if name == "steps":
                path_scan(random_instance(**self.ARGS), value)
            else:
                random_instance(**{**self.ARGS, name: value})

    @pytest.mark.parametrize(
        "name, value",
        # beyond the largest n x n complex128 matrix, or steps + 1 float64 grid,
        # numpy can size
        [("n", 2**40), ("n", 2**62)]
        + [("steps", value) for value in (sys.maxsize // 16, 2**62, sys.maxsize)],
        ids=repr,
    )
    def test_sizes_beyond_numpy_rejected(self, name, value):
        inst = random_instance(**self.ARGS)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match=f"{name} <= "):
                if name == "steps":
                    path_scan(inst, value)
                else:
                    random_instance(**{**self.ARGS, name: value})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_numpy_integers_accepted(self):
        args = {**self.ARGS, "n": np.int64(6), "component_split": np.int32(2), "seed": np.uint8(0)}
        inst = random_instance(**args)
        assert np.array_equal(inst.v, random_instance(**self.ARGS).v)
        assert len(path_scan(inst, np.int64(3))) == 4

    def test_any_printable_seed_accepted(self):
        # numpy seeds from any non-negative int; only the label needs to print it
        inst = random_instance(**{**self.ARGS, "seed": 2**64})
        assert inst.seed == 2**64 and "seed=18446744073709551616" in inst.label


class TestVerifyInstance:
    def test_zero_perturbation(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.0, seed=3)
        rep = verify_instance(inst)
        assert rep.measured_angle == pytest.approx(0.0, abs=1e-12)
        assert rep.violations == ()
        assert rep.favourable_bound is not None
        assert rep.generic_bound is not None
        assert rep.half_arcsin_bound is not None

    def test_sharpness_equality(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        rep = verify_instance(inst)
        assert rep.favourable_bound is not None
        assert abs(rep.favourable_bound - rep.measured_angle) <= 1e-12
        assert rep.violations == ()

    def test_gap_condition_false_still_reports(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=1.5, seed=4)
        rep = verify_instance(inst)
        assert rep.norm_plus + rep.norm_minus >= rep.gap
        assert rep.measured_angle is None
        assert rep.favourable_bound is None
        assert rep.generic_bound is None
        assert rep.enclosure_ok
        assert rep.violations == ()

    def test_applicable_checks_in_table_order(self):
        table = tuple(check.name for check in BOUND_CHECKS)
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.0, seed=3)
        assert tuple(c.name for c in verify_instance(inst).checks) == table
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=1.5, seed=4)
        assert tuple(c.name for c in verify_instance(inst).checks) == ("enclosure",)

    def test_checks_follow_the_report_fields(self, monkeypatch):
        # a report carries no stored verdict that could disagree with its numbers
        rep = verify_instance(sharp_example_2x2(0.3, 0.2)[0])
        assert rep.violations == ()
        moved = dataclasses.replace(rep, measured_angle=rep.favourable_bound + 1e-6)
        failed = [c for c in moved.checks if c.violated]
        assert [c.name for c in failed] == ["favourable_bound"]
        assert failed[0] == ("favourable_bound", moved.measured_angle, rep.favourable_bound, True)
        assert moved.violations == tuple((c.name, c.measured - c.bound) for c in failed)
        assert moved.violations[0][1] == pytest.approx(1e-6, rel=1e-6)
        # the table alone sets each slack, read when a report's checks are first made
        angle_rows = [check.name for check in BOUND_CHECKS if check.slack == ANGLE_SLACK]
        monkeypatch.setattr(specsub.harness, "BOUND_CHECKS", tuple(
            check._replace(slack=-1.0) if check.slack == ANGLE_SLACK else check
            for check in BOUND_CHECKS
        ))
        assert rep.violations == ()
        loose = dataclasses.replace(rep)
        assert [name for name, _ in loose.violations] == angle_rows

    @pytest.mark.parametrize("ok, excess, expected", [
        (False, 0.5, (("enclosure", 0.5),)),
        (True, 1e-12, ()),  # an excess within the enclosure's own tolerance
    ])
    def test_enclosure_fails_by_its_own_rule(self, monkeypatch, ok, excess, expected):
        real = specsub.harness.perturbed_component_at_t
        monkeypatch.setattr(
            specsub.harness,
            "perturbed_component_at_t",
            lambda *args: real(*args)._replace(enclosure_ok=ok, enclosure_excess=excess),
        )
        inst, _ = sharp_example_2x2(0.3, 0.2)
        assert verify_instance(inst).violations == expected

    def test_enclosure_failure_is_data_under_the_gap_condition(self, monkeypatch):
        # spec(A + V) = {(0.1 -+ sqrt(0.75))/2} moved up by 0.4: the lower
        # eigenvalue leaves [-0.5 - 0.2, -0.5 + 0.3]; a uniform shift moves no
        # eigenvector and no gap, so no other check fails
        shift_perturbed_spectrum(monkeypatch, 0.4)
        inst, _ = sharp_example_2x2(0.3, 0.2)
        rep = verify_instance(inst)
        assert rep.measured_angle is not None
        ((name, slack),) = rep.violations
        assert name == "enclosure" and not rep.enclosure_ok
        assert slack == rep.enclosure_excess
        assert slack == pytest.approx(0.6 + 0.5 * (0.1 - math.sqrt(0.75)), abs=1e-12)

    def test_path_scan_raises_on_an_enclosure_failure(self, monkeypatch):
        shift_perturbed_spectrum(monkeypatch, 0.4)
        inst, _ = sharp_example_2x2(0.3, 0.2)
        # t = 0 reuses A's own decomposition, so the fault shows from the next point
        with pytest.raises(EnclosureViolation, match=r"exceeded by 3\.656e-01 at t = 0\.25"):
            path_scan(inst, steps=4)

    def test_sum_of_near_hermitian_inputs_is_accepted(self):
        # each input's asymmetry passes its own check; added up they would
        # fail the check of A + V (3.3e-12 against 1.5e-12)
        inst = Instance(
            a=np.array([[0.0, 0.0], [1.9e-12, 1.0]]),
            v=np.array([[0.5, 0.0], [1.4e-12, -0.5]]),
            component_intervals=((-0.25, 0.25),),
            seed=0, label="near-hermitian",
        )
        assert verify_instance(inst).violations == ()
        # along the path, under the gap condition: A + V/2 would fail by
        # 2.575e-12 against 1.8e-12
        inst = dataclasses.replace(inst, v=np.array([[0.4, 0.0], [1.35e-12, -0.4]]))
        assert verify_instance(inst).violations == ()
        assert len(path_scan(inst, steps=2)) == 3

    def test_overflowing_sum_is_input_error(self):
        # ||A|| + ||V|| = 2.5e308: forming A + tV warned of an overflow (an
        # error under pytest) before the analysis or the scan failed
        inst = Instance(
            a=np.diag([1.5e308, 0.0]), v=np.diag([1e308, 0.0]),
            component_intervals=((-0.5, 0.5),), seed=0, label="overflow",
        )
        with pytest.raises(NonHermitianInput, match="overflows"):
            analyze_instance(inst)
        with pytest.raises(NonHermitianInput, match="overflows"):
            path_scan(inst, steps=2)
        # a sum inside the float range is analyzed
        inside = dataclasses.replace(inst, a=np.diag([8e307, 0.0]), v=np.diag([8e307, 0.0]))
        assert verify_instance(inside).violations == ()

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_imaginary_diagonals_of_the_sum_are_dropped_in_either_layout(self, layout):
        # the diagonal asymmetries pass on A (2.8e-12 against 4e-12) and on V
        # (1.4e-12 against 1.5e-12), but their sum's 4.2e-12 would fail
        inst = Instance(
            a=layout(np.diag([1.0 + 1.4e-12j, 3.0])),
            v=layout(np.diag([-0.5 + 0.7e-12j, 0.0])),
            component_intervals=((0.0, 2.0),),
            seed=0, label="imaginary-diagonal",
        )
        assert verify_instance(inst).violations == ()
        assert len(path_scan(inst, steps=2)) == 3

    def test_random_instances_have_no_violations(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            inst = random_instance(
                n=n,
                d_target=float(rng.uniform(0.3, 2.0)),
                component_split=int(rng.integers(1, n)),
                scale=float(rng.uniform(0.0, 0.9)),
                seed=int(rng.integers(0, 2**32)),
            )
            rep = verify_instance(inst)
            assert rep.violations == (), rep.violations

    def test_bound_ordering_where_both_apply(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            inst = random_instance(
                n=n,
                d_target=1.0,
                component_split=int(rng.integers(1, n)),
                scale=float(rng.uniform(0.0, 2.0 / math.pi)),
                seed=int(rng.integers(0, 2**32)),
            )
            rep = verify_instance(inst)
            if rep.favourable_bound is None or rep.half_arcsin_bound is None:
                continue
            assert rep.measured_angle <= rep.favourable_bound + 1e-9
            assert rep.favourable_bound <= rep.half_arcsin_bound + 1e-9

    def test_sin2theta_norm_on_random_and_sharp_instances(self):
        # measure_angles takes both sides from one vector of sines: sin 2(max angle)
        # is one of the values the norm maximizes, and the largest while that
        # angle is at most pi/4, where s -> 2 s sqrt(1 - s^2) increases
        rng = np.random.default_rng(45)
        analyses = []
        for index in range(200):
            interlaced = index % 2 == 1
            n = int(rng.integers(4 if interlaced else 2, 12))
            split = int(rng.integers(2, n - 1)) if interlaced else int(rng.integers(1, n))
            analyses.append(analyze_instance(random_instance(
                n=n,
                d_target=1.0,
                component_split=split,
                scale=float(rng.uniform(0.0, 0.99)),
                seed=int(rng.integers(0, 2**32)),
                interlaced=interlaced,
            )))
        for v in np.linspace(0.0, 0.999, 100):
            v_plus = float(rng.uniform(0.0, v))
            analyses.append(analyze_instance(sharp_example_2x2(v_plus, float(v) - v_plus)[0]))
        for analysis in analyses:
            m, rep = analysis.angles, analysis.report
            chained = math.sin(2.0 * m.max_angle)
            assert chained <= m.sin2theta_norm + 1e-15
            if m.singular_values[0] <= math.sqrt(0.5):
                assert abs(chained - m.sin2theta_norm) <= 1e-15
            assert rep.sin2theta_measured <= rep.sin2theta_bound + 1e-9


class TestBoundsDecideTheirHypotheses:
    """An analysis records a bound exactly where the bound function accepts the sum."""

    @staticmethod
    def _narrowed(real):
        def bound(plus, minus, gap):
            if plus + minus >= 0.5 * gap:
                raise GapConditionViolated("narrowed to ||V+|| + ||V-|| < gap / 2")
            return real(plus, minus, gap)

        return bound

    def test_analysis_follows_a_narrowed_bound(self, monkeypatch):
        # no rule of the analysis restates a hypothesis: narrow a bound, and
        # the report follows it, on both sides of the narrowed edge
        real = {
            "generic_bound": specsub.bounds.generic_angle_bound,
            "half_arcsin_bound": specsub.bounds.half_arcsin_angle_bound,
        }
        monkeypatch.setattr(
            specsub.bounds, "generic_angle_bound", self._narrowed(real["generic_bound"])
        )
        monkeypatch.setattr(
            specsub.bounds, "half_arcsin_angle_bound", self._narrowed(real["half_arcsin_bound"])
        )
        for scale, inside in ((0.3, True), (0.7, False)):
            inst = random_instance(n=6, d_target=1.0, component_split=2, scale=scale, seed=5)
            rep = verify_instance(inst)
            assert (rep.norm_plus + rep.norm_minus < 0.5 * rep.gap) is inside
            names = [c.name for c in rep.checks]
            for field, bound in real.items():
                expected = bound(rep.norm_plus, rep.norm_minus, rep.gap) if inside else None
                assert getattr(rep, field) == expected
                assert (field in names) is inside

    @pytest.mark.parametrize(
        "s, half_arcsin, generic",
        [
            (2.0 / math.pi, True, True),
            (math.nextafter(2.0 / math.pi, 1.0), False, True),
            (math.nextafter(2.0 * critical_strength(), 0.0), False, True),
            (2.0 * critical_strength(), False, False),
        ],
    )
    def test_rows_present_exactly_where_the_bounds_accept(self, s, half_arcsin, generic):
        # gap 1 and ||V+|| = s, ||V-|| = 0 read exactly from the diagonal pair
        inst = Instance(
            a=np.diag([0.0, 1.0]), v=np.diag([s, 0.0]),
            component_intervals=((-0.25, 0.25),), seed=0, label="hypothesis-edge",
        )
        rep = verify_instance(inst)
        assert (rep.gap, rep.norm_plus, rep.norm_minus) == (1.0, s, 0.0)
        names = [c.name for c in rep.checks]
        for field, bound, present in (
            ("half_arcsin_bound", half_arcsin_angle_bound, half_arcsin),
            ("generic_bound", generic_angle_bound, generic),
        ):
            if present:
                assert getattr(rep, field) == bound(s, 0.0, 1.0)
            else:
                with pytest.raises(GapConditionViolated):
                    bound(s, 0.0, 1.0)
                assert getattr(rep, field) is None
            assert (field in names) is present

    def test_every_caller_follows_a_narrowed_gap_condition(self, monkeypatch):
        # the gap condition is stated once, in bounds.gap_lower_bound: narrow it
        # to t s < d/2, and at s/d = 0.7 the analysis, the perturbed spectrum,
        # the path scan and the path step bound all read it as failed
        real = specsub.bounds.gap_lower_bound

        def narrowed(plus, minus, gap, t=1.0):
            if t * (plus + minus) >= 0.5 * gap:
                raise GapConditionViolated("narrowed to t(||V+|| + ||V-||) < gap / 2")
            return real(plus, minus, gap, t)

        monkeypatch.setattr(specsub.bounds, "gap_lower_bound", narrowed)
        inst = Instance(
            a=np.diag([0.0, 1.0]), v=np.diag([0.7, 0.0]),
            component_intervals=((-0.25, 0.25),), seed=0, label="narrowed-gap",
        )
        analysis = analyze_instance(inst)
        rep = analysis.report
        assert (rep.gap, rep.norm_plus, rep.norm_minus, rep.geometry) == (
            1.0, 0.7, 0.0, "favourable"
        )
        for field in (
            "measured_angle", "measured_gap", "gap_lower_bound",
            "favourable_bound", "integral_bound",
        ):
            assert getattr(rep, field) is None, field
        # a bound of another hypothesis is untouched
        assert rep.generic_bound == generic_angle_bound(0.7, 0.0, 1.0)
        sep = perturbed_component_at_t(
            analysis.decomp_perturbed, analysis.partition, analysis.split, 1.0
        )
        assert (sep.measured_gap, sep.gap_lower_bound) == (None, None)

        decomposed = []
        real_decompose = specsub.harness.decompose

        def recorded(arr):
            decomposed.append(arr)
            return real_decompose(arr)

        monkeypatch.setattr(specsub.harness, "decompose", recorded)
        with pytest.raises(GapConditionViolated, match="narrowed"):
            path_scan(inst, steps=4)
        # A's decomposition, which the partition needs, and no A + tV
        assert len(decomposed) == 1 and np.array_equal(decomposed[0], inst.a)
        with pytest.raises(GapConditionViolated, match="narrowed"):
            specsub.bounds.path_step_bound(0.0, 1.0, 0.7, 0.7, 0.0, 1.0)

    def test_a_bad_argument_is_not_recorded_as_outside_a_hypothesis(self, monkeypatch):
        # the gap from -1e308 to 1e308 overflows: no bound can be evaluated,
        # and the analysis fails rather than report every bound as not applying
        inst = Instance(
            a=np.diag([-1e308, 1e308]), v=np.zeros((2, 2)),
            component_intervals=((-1.5e308, -0.5e308),), seed=0, label="infinite-gap",
        )
        with pytest.raises(DomainError, match="gap must be finite and positive, got inf") as e:
            analyze_instance(inst)
        assert not isinstance(e.value, GapConditionViolated)

        # the same holds for a rejection that only one conditional bound makes
        def malformed(plus, minus, gap):
            raise DomainError("malformed")

        inst, _ = sharp_example_2x2(0.3, 0.2)  # favourable, and inside every hypothesis
        for name in (
            "favourable_angle_bound", "generic_angle_bound",
            "half_arcsin_angle_bound", "integral_angle_bound",
        ):
            with monkeypatch.context() as patched:
                patched.setattr(specsub.bounds, name, malformed)
                with pytest.raises(DomainError, match="malformed"):
                    analyze_instance(inst)


class TestPathScan:
    def test_zero_perturbation_path_is_constant(self):
        inst = random_instance(n=5, d_target=1.0, component_split=2, scale=0.0, seed=6)
        points = path_scan(inst, steps=10)
        assert len(points) == 11
        assert all(p.step_delta == 0.0 for p in points)

    def test_sharp_example_step_deltas(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        points = path_scan(inst, steps=100)
        norm_v = float(np.abs(np.linalg.eigvalsh(inst.v)).max())
        ceiling = 0.5 * math.pi * (norm_v / 100.0) / (1.0 - 0.5)
        for p in points[1:]:
            assert p.step_delta <= p.step_bound + 1e-9
            assert p.step_delta <= ceiling + 1e-9

    def test_scan_retains_no_basis_per_point(self):
        # a scan keeps O(steps) numbers once it returns, not an n x k basis per
        # point: 201 complex bases of 64 x 32 would be 6.6 MB
        inst = random_instance(n=64, d_target=1.0, component_split=32, scale=0.8, seed=7)
        path_scan(inst, steps=200)  # warm-up, so one-time allocations are not counted
        gc.collect()
        tracemalloc.start()
        try:
            points = path_scan(inst, steps=200)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(points) == 201
        assert retained < 0.25e6

    def test_endpoints_match_static_assignments(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.7, seed=8)
        analysis = analyze_instance(inst)
        points = path_scan(inst, steps=10)
        rep = analysis.report
        assert points[0].separation.measured_gap == pytest.approx(rep.gap, abs=1e-12)
        assert points[-1].separation.measured_gap == rep.measured_gap
        assert points[-1].separation.gap_lower_bound == rep.gap_lower_bound
        assert points[-1].separation == (
            rep.enclosure_ok, rep.enclosure_excess, rep.measured_gap, rep.gap_lower_bound
        )

    def test_gap_condition_required(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=1.2, seed=9)
        with pytest.raises(GapConditionViolated):
            path_scan(inst, steps=10)

    def test_svd_error_is_a_convergence_failure(self, monkeypatch):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.7, seed=8)
        monkeypatch.setattr(np.linalg, "svd", failing_routine)
        with pytest.raises(ConvergenceFailure, match="eigensolver failed: did not converge"):
            path_scan(inst, steps=10)

    def test_steps_validated(self):
        inst = random_instance(n=4, d_target=1.0, component_split=2, scale=0.5, seed=10)
        with pytest.raises(InvalidSpec):
            path_scan(inst, steps=1)

    @pytest.mark.parametrize("v", [np.array([[0.3]]), 0.1 * np.eye(2)])
    def test_shape_mismatch(self, v):
        inst = Instance(
            a=np.diag([0.0, 1.0, 2.0]), v=v, component_intervals=((-0.5, 0.5),),
            seed=0, label="mismatch",
        )
        with pytest.raises(DimensionMismatch):
            path_scan(inst, steps=4)


class TestLayerCounts:
    """One analysis: two validations, two eigendecompositions, one eigenvalue-only solve,
    and one call for each perturbed spectrum."""

    @staticmethod
    def _count(monkeypatch, counts, holder, name):
        original = getattr(holder, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)

    def _count_validations(self, monkeypatch, counts):
        original = specsub.linalg.require_hermitian
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("specsub") and (
                getattr(module, "require_hermitian", None) is original
            ):
                self._count(monkeypatch, counts, module, "require_hermitian")

    def test_analyze_instance_at_n8(self, monkeypatch):
        inst = random_instance(n=8, d_target=1.0, component_split=3, scale=0.9, seed=12)
        counts = {"require_hermitian": 0, "eigh": 0, "eigvalsh": 0}
        self._count_validations(monkeypatch, counts)
        self._count(monkeypatch, counts, np.linalg, "eigh")
        self._count(monkeypatch, counts, np.linalg, "eigvalsh")

        analyze_instance(inst)
        assert counts == {"require_hermitian": 2, "eigh": 2, "eigvalsh": 1}

    @pytest.mark.parametrize("steps", [2, 5])
    def test_path_scan_validates_each_input_once(self, monkeypatch, steps):
        inst = random_instance(n=8, d_target=1.0, component_split=3, scale=0.9, seed=12)
        counts = {"require_hermitian": 0, "eigh": 0}
        self._count_validations(monkeypatch, counts)
        self._count(monkeypatch, counts, np.linalg, "eigh")
        path_scan(inst, steps=steps)
        assert counts == {"require_hermitian": 2, "eigh": steps + 1}

    @pytest.mark.parametrize("scale", [0.9, 1.5])
    def test_one_call_per_perturbed_spectrum(self, monkeypatch, scale):
        # one call per analysis on either side of the gap condition, and one
        # per path point
        inst = random_instance(n=8, d_target=1.0, component_split=3, scale=scale, seed=12)
        counts = {"perturbed_component_at_t": 0}
        self._count(monkeypatch, counts, specsub.harness, "perturbed_component_at_t")
        analyze_instance(inst)
        assert counts == {"perturbed_component_at_t": 1}
        if scale < 1.0:
            points = path_scan(inst, steps=5)
            assert counts == {"perturbed_component_at_t": 7}
            assert len(points) == 6


class TestSharpnessGrid:
    def test_equality_over_parameter_grid(self):
        # v_plus, v_minus on a 0.05 grid with sum <= 0.95: the measured angle
        # equals (1/2) arcsin(v_plus + v_minus) to 1e-11
        grid = np.arange(0.0, 0.96, 0.05)
        checked = 0
        for v_plus in grid:
            for v_minus in grid:
                if v_plus + v_minus > 0.95 + 1e-12:
                    continue
                inst, expected = sharp_example_2x2(float(v_plus), float(v_minus))
                rep = verify_instance(inst)
                assert abs(rep.measured_angle - expected) <= 1e-11
                checked += 1
        assert checked > 100


# random_instance as it was when it symmetrized the scaled V once more: the
# reference its results must equal bit for bit.


def _former_random_instance(n, d_target, component_split, scale, seed, interlaced=False):
    k, m = component_split, n - component_split
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
    intervals = tuple([(lo + shift, hi + shift) for lo, hi in intervals])
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0.0] = 1.0
    q = q * (diag / np.abs(diag))
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
    return a, v, intervals


def _bits(m):
    return m.dtype, m.shape, m.flags.c_contiguous, m.tobytes()


def _oracle_cases():
    """200 instance specs at each of n = 2, 3, 8 and 32: both layouts where
    there is room for them, scale 0 and 0.99."""
    rng = np.random.default_rng(2026_10_19)
    for n in (2, 3, 8, 32):
        layouts = (False, True) if n >= 4 else (False,)
        for interlaced in layouts:
            for scale in (0.0, 0.99):
                for _ in range(100 // len(layouts)):
                    split = int(rng.integers(2, n - 1) if interlaced else rng.integers(1, n))
                    yield dict(
                        n=n,
                        d_target=float(rng.uniform(0.5, 2.0)),
                        component_split=split,
                        scale=scale,
                        seed=int(rng.integers(0, 2**63)),
                        interlaced=interlaced,
                    )


def test_random_instance_equals_its_former_arithmetic():
    cases = list(_oracle_cases())
    assert len(cases) == 800
    for case in cases:
        inst = random_instance(**case)
        a, v, intervals = _former_random_instance(**case)
        assert _bits(inst.a) == _bits(a) and _bits(inst.v) == _bits(v), case
        assert inst.component_intervals == intervals


_N = 256


@pytest.fixture(scope="module")
def instance_n256():
    return random_instance(n=_N, d_target=1.0, component_split=100, scale=0.9, seed=3)


def _working_set(fn, *args):
    """Traced peak of fn(*args) in complex n x n matrices at n = 256, after one warm-up call."""
    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * _N * _N)


# Each figure is what the function traced at n = 256 above its inputs; before
# eigh freed its Gram matrix and random_instance stopped symmetrizing V twice
# they were 4.1, 7.1 and 6.1.
@pytest.mark.parametrize(
    "name, limit",
    [
        ("eigh", 3.16),
        ("random_instance", 5.15),
        ("analyze_instance", 5.16),
    ],
)
def test_working_set_at_n256(instance_n256, name, limit):
    calls = {
        "eigh": (eigh, instance_n256.a),
        "random_instance": (random_instance, _N, 1.0, 100, 0.9, 3),
        "analyze_instance": (analyze_instance, instance_n256),
    }
    fn, *args = calls[name]
    assert _working_set(fn, *args) <= limit

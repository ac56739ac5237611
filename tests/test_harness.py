import dataclasses
import math
import sys

import numpy as np
import pytest

import specsub.harness
import specsub.linalg
from specsub import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    GapConditionViolated,
    GeometryKind,
    InvalidSpec,
    analyze_instance,
    eigh,
    geometry_kind,
    measure_angles,
    partition_spectrum,
    path_scan,
    random_instance,
    sharp_example_2x2,
    sign_split,
    spectral_projector,
    verify_instance,
)
from specsub.harness import BOUND_CHECKS, Instance


def partition_for(values, intervals):
    dec = eigh(np.diag(values))
    return dec, partition_spectrum(dec, intervals)


class TestMeasureAngles:
    def test_identical_projectors(self):
        dec = eigh(np.diag([0.0, 1.0, 2.0]))
        p = spectral_projector(dec, [0, 1])
        m = measure_angles(p, p)
        assert m.max_angle == 0.0
        assert m.sin2theta_norm == 0.0
        assert np.all(m.singular_values == 0.0)

    def test_orthogonal_ranges(self):
        dec = eigh(np.diag([0.0, 1.0]))
        p = spectral_projector(dec, [0])
        q = spectral_projector(dec, [1])
        m = measure_angles(p, q)
        assert m.max_angle == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert m.sin2theta_norm == pytest.approx(0.0, abs=1e-12)

    def test_sharp_example_angle(self):
        inst, expected = sharp_example_2x2(0.25, 0.25)
        analysis = analyze_instance(inst)
        assert analysis.angles.max_angle == pytest.approx(math.pi / 12.0, abs=1e-12)
        assert expected == pytest.approx(math.pi / 12.0, abs=1e-15)

    def test_dimension_mismatch(self):
        p = spectral_projector(eigh(np.diag([0.0, 1.0])), [0])
        q = spectral_projector(eigh(np.diag([0.0, 1.0, 2.0])), [0])
        with pytest.raises(DimensionMismatch):
            measure_angles(p, q)

    def test_sin_chain_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            d1 = eigh(_random_hermitian(rng, n))
            d2 = eigh(_random_hermitian(rng, n))
            k = int(rng.integers(1, n))
            m = measure_angles(
                spectral_projector(d1, range(k)), spectral_projector(d2, range(k))
            )
            assert math.sin(2.0 * m.max_angle) <= m.sin2theta_norm + 1e-10
            assert np.all((0.0 <= m.singular_values) & (m.singular_values <= 1.0))


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


class TestGeometryKind:
    def test_singletons_are_favourable(self):
        dec, part = partition_for([0.5, -0.5], [(0.4, 0.6)])
        assert geometry_kind(dec, part) is GeometryKind.FAVOURABLE

    def test_point_hull_inside_spread_component(self):
        # component {0, 3} straddles {1.5}, but conv({1.5}) contains no
        # component point, so the geometry is still favourable
        dec, part = partition_for([0.0, 1.5, 3.0], [(-0.1, 0.1), (2.9, 3.1)])
        assert geometry_kind(dec, part) is GeometryKind.FAVOURABLE

    def test_mutually_interlaced_is_generic(self):
        dec, part = partition_for(
            [0.0, 1.5, 3.0, 4.5], [(-0.1, 0.1), (2.9, 3.1)]
        )
        assert geometry_kind(dec, part) is GeometryKind.GENERIC


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

    def test_semidefinite_edge(self):
        inst, expected = sharp_example_2x2(0.0, 0.5)
        rep = verify_instance(inst)
        assert rep.norm_plus == pytest.approx(0.0, abs=1e-12)
        assert rep.norm_minus == pytest.approx(0.5, abs=1e-12)
        assert rep.measured_angle == pytest.approx(expected, abs=1e-12)


class TestRandomInstance:
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
        assert geometry_kind(dec, part) is GeometryKind.FAVOURABLE

    def test_interlaced_layout_is_generic(self):
        inst = random_instance(
            n=8, d_target=1.0, component_split=4, scale=0.5, seed=9, interlaced=True
        )
        dec = eigh(inst.a)
        part = partition_spectrum(dec, inst.component_intervals)
        assert geometry_kind(dec, part) is GeometryKind.GENERIC
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_and_gap_rejected(self, bad):
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=1.0, component_split=2, scale=bad, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(n=4, d_target=bad, component_split=2, scale=0.5, seed=0)


class TestVerifyInstance:
    def test_zero_perturbation(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.0, seed=3)
        rep = verify_instance(inst)
        assert rep.measured_angle == pytest.approx(0.0, abs=1e-12)
        assert rep.violations == ()
        assert rep.favourable_applicable
        assert rep.generic_applicable
        assert rep.half_arcsin_applicable

    def test_sharpness_equality(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        rep = verify_instance(inst)
        assert rep.favourable_applicable
        assert abs(rep.favourable_bound - rep.measured_angle) <= 1e-12
        assert rep.violations == ()

    def test_gap_condition_false_still_reports(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=1.5, seed=4)
        rep = verify_instance(inst)
        assert not rep.gap_condition
        assert rep.measured_angle is None
        assert not rep.favourable_applicable
        assert not rep.generic_applicable
        assert rep.enclosure_ok
        assert rep.violations == ()

    def test_applicable_checks_in_table_order(self):
        table = tuple(check.name for check in BOUND_CHECKS)
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.0, seed=3)
        assert verify_instance(inst).applicable == table
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=1.5, seed=4)
        assert verify_instance(inst).applicable == ("enclosure",)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_tolerance_rejected(self, tol):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        with pytest.raises(DomainError):
            analyze_instance(inst, angle_tol=tol)

    def test_negative_angle_tolerance_stays_legal(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        names = {name for name, _ in analyze_instance(inst, angle_tol=-1.0).report.violations}
        assert {"favourable_bound", "generic_bound", "half_arcsin_bound",
                "sin2theta_bound", "integral_bound"} <= names

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
            if not (rep.favourable_applicable and rep.half_arcsin_applicable):
                continue
            assert rep.measured_angle <= rep.favourable_bound + 1e-9
            assert rep.favourable_bound <= rep.half_arcsin_bound + 1e-9

    def test_sin2theta_chain_on_random_instances(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            inst = random_instance(
                n=n,
                d_target=1.0,
                component_split=int(rng.integers(1, n)),
                scale=float(rng.uniform(0.0, 0.95)),
                seed=int(rng.integers(0, 2**32)),
            )
            rep = verify_instance(inst)
            assert math.sin(2.0 * rep.measured_angle) <= rep.sin2theta_measured + 1e-10
            assert rep.sin2theta_measured <= rep.sin2theta_bound + 1e-9


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

    def test_rank_constant_along_path(self):
        inst = random_instance(n=8, d_target=1.0, component_split=3, scale=0.8, seed=7)
        points = path_scan(inst, steps=50)
        ranks = {p.projector.rank for p in points}
        assert ranks == {3}

    def test_endpoints_match_static_assignments(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=0.7, seed=8)
        analysis = analyze_instance(inst)
        points = path_scan(inst, steps=10)
        assert points[0].separation.component_indices == analysis.partition.component_indices
        assert points[-1].separation.component_indices == analysis.perturbed.component_indices

    def test_gap_condition_required(self):
        inst = random_instance(n=6, d_target=1.0, component_split=2, scale=1.2, seed=9)
        with pytest.raises(GapConditionViolated):
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


class TestComponentRank:
    @staticmethod
    def _drop_one(original):
        def assign(*args):
            sep = original(*args)
            return dataclasses.replace(sep, component_indices=sep.component_indices[1:])

        return assign

    def test_analyze_rejects_rank_change(self, monkeypatch):
        inst = random_instance(n=6, d_target=1.0, component_split=3, scale=0.5, seed=11)
        monkeypatch.setattr(
            specsub.harness, "perturbed_component",
            self._drop_one(specsub.harness.perturbed_component),
        )
        with pytest.raises(ConvergenceFailure):
            analyze_instance(inst)

    def test_path_scan_rejects_rank_change(self, monkeypatch):
        inst = random_instance(n=6, d_target=1.0, component_split=3, scale=0.5, seed=11)
        monkeypatch.setattr(
            specsub.harness, "perturbed_component_at_t",
            self._drop_one(specsub.harness.perturbed_component_at_t),
        )
        with pytest.raises(ConvergenceFailure):
            path_scan(inst, steps=4)


class TestLayerCounts:
    """One analysis: three validations, two eigendecompositions, one eigenvalue-only solve."""

    @staticmethod
    def _count(monkeypatch, counts, holder, name):
        original = getattr(holder, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)

    def test_analyze_instance_at_n8(self, monkeypatch):
        inst = random_instance(n=8, d_target=1.0, component_split=3, scale=0.9, seed=12)
        counts = {"require_hermitian": 0, "eigh": 0, "eigvalsh": 0}
        original = specsub.linalg.require_hermitian
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("specsub") and (
                getattr(module, "require_hermitian", None) is original
            ):
                self._count(monkeypatch, counts, module, "require_hermitian")
        self._count(monkeypatch, counts, np.linalg, "eigh")
        self._count(monkeypatch, counts, np.linalg, "eigvalsh")

        analysis = analyze_instance(inst)
        assert counts == {"require_hermitian": 3, "eigh": 2, "eigvalsh": 1}

        # V+ and V- need the eigenvectors of V, built once on first read
        v_plus = analysis.split.v_plus
        assert counts["eigh"] == 3
        assert analysis.split.v_minus is not None and analysis.split.v_plus is v_plus
        assert counts["eigh"] == 3
        np.testing.assert_allclose(
            v_plus - analysis.split.v_minus, inst.v, atol=1e-12 * (1.0 + analysis.split.norm_v)
        )


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

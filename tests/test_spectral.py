import numpy as np
import pytest

from specsub import spectral
from specsub import (
    AmbiguousMembership,
    DomainError,
    EmptyComponent,
    EnclosureViolation,
    GapConditionViolated,
    InvalidInterval,
    eigh,
    enlarge,
    gap_condition,
    partition_spectrum,
    perturbed_component,
    perturbed_component_at_t,
    random_instance,
    resolvent_interval,
    sharp_example_2x2,
    sign_split,
    spectral_enclosure_check,
)


class TestPartitionSpectrum:
    def test_two_point_spectrum(self):
        dec = eigh(np.diag([0.5, -0.5]))
        part = partition_spectrum(dec, [(0.4, 0.6)])
        assert part.component_values.tolist() == [0.5]
        assert part.gap == pytest.approx(1.0, abs=1e-15)

    def test_equispaced(self):
        dec = eigh(np.diag([0.0, 1.0, 2.0, 3.0]))
        part = partition_spectrum(dec, [(-0.5, 1.5)])
        assert part.component_indices == (0, 1)
        assert part.gap == pytest.approx(1.0, abs=1e-15)

    def test_wide_gap(self):
        dec = eigh(np.diag([0.0, 5.0]))
        part = partition_spectrum(dec, [(4.0, 6.0)])
        assert part.gap == pytest.approx(5.0, abs=1e-15)

    def test_empty_side_rejected(self):
        dec = eigh(np.diag([0.0, 1.0]))
        with pytest.raises(EmptyComponent):
            partition_spectrum(dec, [(10.0, 11.0)])
        with pytest.raises(EmptyComponent):
            partition_spectrum(dec, [(-1.0, 2.0)])

    def test_boundary_eigenvalue_rejected(self):
        dec = eigh(np.diag([0.0, 1.0]))
        with pytest.raises(AmbiguousMembership):
            partition_spectrum(dec, [(0.0, 0.5)])

    def test_bad_interval_rejected(self):
        dec = eigh(np.diag([0.0, 1.0]))
        with pytest.raises(InvalidInterval):
            partition_spectrum(dec, [(0.5, 0.2)])

    def test_multi_interval_selection(self):
        dec = eigh(np.diag([0.0, 1.5, 3.0, 4.5]))
        part = partition_spectrum(dec, [(-0.2, 0.2), (2.8, 3.2)])
        assert part.component_values.tolist() == [0.0, 3.0]
        assert part.gap == pytest.approx(1.5, abs=1e-15)


class TestEnlarge:
    def test_single_point(self):
        union = enlarge([0.5], down=0.2, up=0.3)
        assert union.intervals == ((0.3, 0.8),)

    def test_overlap_merges(self):
        union = enlarge([0.0, 0.1], down=0.05, up=0.05)
        assert len(union.intervals) == 1
        lo, hi = union.intervals[0]
        assert lo == pytest.approx(-0.05) and hi == pytest.approx(0.15)

    def test_disjoint_stay_separate(self):
        union = enlarge([0.0, 10.0], down=1.0, up=1.0)
        assert union.intervals == ((-1.0, 1.0), (9.0, 11.0))

    def test_touching_intervals_merge(self):
        # consecutive intervals in the union are separated by strictly
        # positive gaps, so touching ones collapse
        union = enlarge([0.0, 2.0], down=1.0, up=1.0)
        assert union.intervals == ((-1.0, 3.0),)

    def test_negative_margin_rejected(self):
        with pytest.raises(DomainError):
            enlarge([0.0], down=-0.1, up=0.0)

    def test_distance(self):
        union = enlarge([0.0], down=1.0, up=1.0)
        assert union.distance(0.5) == 0.0
        assert union.distance(2.0) == pytest.approx(1.0)
        assert union.contains(1.0)


class TestPerturbedComponent:
    def test_zero_perturbation_reproduces_component(self):
        dec = eigh(np.diag([0.0, 1.0, 5.0, 6.0]))
        part = partition_spectrum(dec, [(-0.5, 1.5)])
        split = sign_split(np.zeros((4, 4)))
        sep = perturbed_component(dec, part, split)
        assert sep.component_indices == part.component_indices
        assert sep.measured_gap == pytest.approx(part.gap, abs=1e-12)

    def test_sharp_example_assignment(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        dec_a = eigh(inst.a)
        part = partition_spectrum(dec_a, inst.component_intervals)
        split = sign_split(inst.v)
        dec_av = eigh(inst.a + inst.v)
        sep = perturbed_component(dec_av, part, split)
        upper = (0.1 + np.sqrt(1.0 - 0.25)) / 2.0
        (idx,) = sep.component_indices
        assert dec_av.eigenvalues[idx] == pytest.approx(upper, abs=1e-14)
        assert 0.5 - 0.2 <= dec_av.eigenvalues[idx] <= 0.5 + 0.3
        assert sep.gap_lower_bound == pytest.approx(1.0 - 0.5, abs=1e-12)

    def test_commuting_diagonal(self):
        a = np.diag([0.0, 10.0])
        v = np.diag([0.5, -0.5])
        dec_a = eigh(a)
        part = partition_spectrum(dec_a, [(-1.0, 1.0)])
        split = sign_split(v)
        sep = perturbed_component(eigh(a + v), part, split)
        (idx,) = sep.component_indices
        assert eigh(a + v).eigenvalues[idx] == pytest.approx(0.5, abs=1e-14)

    def test_gap_condition_required(self):
        dec = eigh(np.diag([0.0, 1.0]))
        part = partition_spectrum(dec, [(-0.5, 0.5)])
        split = sign_split(np.diag([2.0, -2.0]))
        with pytest.raises(GapConditionViolated):
            perturbed_component(dec, part, split)

    def test_enclosure_violation_raised_for_foreign_decomposition(self):
        # feeding a decomposition that is not spec(A + V) must trip the
        # numerical-failure guard
        a = np.diag([0.0, 10.0])
        part = partition_spectrum(eigh(a), [(-1.0, 1.0)])
        split = sign_split(np.diag([0.1, -0.1]))
        foreign = eigh(np.diag([100.0, 200.0]))
        with pytest.raises(EnclosureViolation):
            perturbed_component(foreign, part, split)


class TestPerturbedComponentAtT:
    def _setup(self, v_plus=0.3, v_minus=0.2):
        inst, _ = sharp_example_2x2(v_plus, v_minus)
        dec_a = eigh(inst.a)
        part = partition_spectrum(dec_a, inst.component_intervals)
        split = sign_split(inst.v)
        return inst, part, split

    def test_t_zero_is_unperturbed(self):
        inst, part, split = self._setup()
        sep = perturbed_component_at_t(eigh(inst.a), part, split, 0.0)
        assert sep.component_indices == part.component_indices
        assert sep.gap_lower_bound == pytest.approx(part.gap)

    def test_t_one_matches_full_perturbation(self):
        inst, part, split = self._setup()
        dec_av = eigh(inst.a + inst.v)
        sep_t = perturbed_component_at_t(dec_av, part, split, 1.0)
        sep = perturbed_component(dec_av, part, split)
        assert sep_t == sep

    def test_halfway_assignment_tracks_eigendecomposition(self):
        # at t = 1/2 the larger eigenvalue of A + tV belongs to the scaled
        # enlargement of the upper component; the eigensolver is the oracle
        inst, part, split = self._setup()
        t = 0.5
        dec_t = eigh(inst.a + t * inst.v)
        sep = perturbed_component_at_t(dec_t, part, split, t)
        (idx,) = sep.component_indices
        top = float(dec_t.eigenvalues[-1])
        assert float(dec_t.eigenvalues[idx]) == pytest.approx(top, abs=0)
        assert 0.5 - t * 0.2 - 1e-12 <= top <= 0.5 + t * 0.3 + 1e-12

    def test_t_outside_unit_interval_rejected(self):
        inst, part, split = self._setup()
        with pytest.raises(DomainError):
            perturbed_component_at_t(eigh(inst.a), part, split, 1.5)


class TestEnclosureCheck:
    def test_zero_perturbation(self):
        dec = eigh(np.diag([0.0, 1.0]))
        split = sign_split(np.zeros((2, 2)))
        ok, excess = spectral_enclosure_check(dec, dec, split)
        assert ok and excess == 0.0

    def test_diagonal_example(self):
        a = np.zeros((2, 2))
        v = np.diag([1.0, -2.0])
        check = spectral_enclosure_check(eigh(a), eigh(a + v), sign_split(v))
        assert check.ok

    def test_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (g + g.conj().T)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = 0.5 * (g + g.conj().T)
            check = spectral_enclosure_check(eigh(a), eigh(a + v), sign_split(v))
            assert check.ok, f"excess {check.max_excess}"


class TestResolventInterval:
    def _split(self, norm_plus, norm_minus):
        return sign_split(np.diag([norm_plus, -norm_minus]))

    def test_formula(self):
        iv = resolvent_interval(0.0, 1.0, self._split(0.3, 0.2))
        assert iv == pytest.approx((0.3, 0.8))

    def test_condition_fails(self):
        assert resolvent_interval(0.0, 1.0, self._split(0.6, 0.5)) is None

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            resolvent_interval(1.0, 0.0, self._split(0.1, 0.1))

    def test_spectrum_checked_when_supplied(self):
        with pytest.raises(InvalidInterval):
            resolvent_interval(0.0, 1.0, self._split(0.1, 0.1), spectrum=[0.5])
        assert resolvent_interval(
            0.0, 1.0, self._split(0.1, 0.1), spectrum=[-1.0, 2.0]
        ) == pytest.approx((0.1, 0.9))

    def test_no_perturbed_eigenvalue_enters(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            inst = random_instance(
                n=int(rng.integers(2, 11)),
                d_target=1.0,
                component_split=1,
                scale=float(rng.uniform(0.0, 2.0)),
                seed=int(rng.integers(0, 2**32)),
            )
            dec_a = eigh(inst.a)
            split = sign_split(inst.v)
            mu = eigh(inst.a + inst.v).eigenvalues
            w = dec_a.eigenvalues
            tol = 1e-9 * (1.0 + np.abs(w).max() + split.norm_v)
            for a, b in zip(w[:-1], w[1:]):
                if b <= a:
                    continue
                iv = resolvent_interval(float(a), float(b), split)
                if iv is None:
                    continue
                lo, hi = iv
                assert not np.any((mu > lo + tol) & (mu < hi - tol))


class TestGapCondition:
    def test_basic(self):
        split = sign_split(np.diag([0.3, -0.2]))
        assert gap_condition(split, 1.0)
        assert not gap_condition(split, 0.5)
        assert not gap_condition(split, 0.4)


class TestAgainstMergedUnion:
    """Distances to the unmerged intervals against the merged-union loops they replaced, bit for bit."""

    @staticmethod
    def ref_enlarge(values, down, up):
        merged = []
        for v in np.sort(np.asarray(values, dtype=float).ravel()):
            lo, hi = float(v - down), float(v + up)
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return tuple((lo, hi) for lo, hi in merged)

    @staticmethod
    def ref_distance(intervals, x):
        best = np.inf
        for lo, hi in intervals:
            if lo <= x <= hi:
                return 0.0
            best = min(best, abs(x - lo), abs(x - hi))
        return float(best)

    def ref_assignment(self, mu, part, split, t):
        down, up = t * split.norm_minus, t * split.norm_plus
        comp_set = self.ref_enlarge(part.component_values, down, up)
        rest_set = self.ref_enlarge(part.rest_values, down, up)
        comp, rest = [], []
        for k, m in enumerate(mu):
            d_comp = self.ref_distance(comp_set, float(m))
            d_rest = self.ref_distance(rest_set, float(m))
            (comp if d_comp <= d_rest else rest).append(k)
        return tuple(comp), tuple(rest)

    def instances(self, count=300):
        rng = np.random.default_rng(31)
        for _ in range(count):
            n = int(rng.integers(2, 17))
            interlaced = n >= 4 and bool(rng.integers(0, 2))
            split = int(rng.integers(2, n - 1)) if interlaced else int(rng.integers(1, n))
            yield random_instance(
                n=n, d_target=1.0, component_split=split,
                scale=float(rng.uniform(0.0, 0.99)), seed=int(rng.integers(0, 2**32)),
                interlaced=interlaced,
            )

    def test_random_instances(self):
        for inst in self.instances():
            dec_a = eigh(inst.a)
            split = sign_split(inst.v)
            part = partition_spectrum(dec_a, inst.component_intervals)
            for t in (0.0, 0.5, 1.0):
                dec_t = eigh(inst.a + t * inst.v)
                sep = perturbed_component_at_t(dec_t, part, split, t)
                assert (sep.component_indices, sep.rest_indices) == self.ref_assignment(
                    dec_t.eigenvalues, part, split, t
                )
            dec_av = eigh(inst.a + inst.v)
            union = self.ref_enlarge(dec_a.eigenvalues, split.norm_minus, split.norm_plus)
            excess = max(self.ref_distance(union, float(m)) for m in dec_av.eigenvalues)
            assert spectral_enclosure_check(dec_a, dec_av, split).max_excess == excess

    def test_points_around_a_union(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            values = rng.uniform(-3.0, 3.0, size=int(rng.integers(0, 9)))
            down, up = (float(m) for m in rng.uniform(0.0, 0.5, size=2))
            union = self.ref_enlarge(values, down, up)
            lo, hi = spectral._ends(values, down, up)
            ends = [x for iv in union for x in iv] + lo + hi
            for x in [*ends, *rng.uniform(-4.0, 4.0, size=10), 0.0, -0.0, 1e300, -1e300]:
                assert spectral._distance(float(x), lo, hi) == self.ref_distance(union, float(x))


class TestClassGap:
    """The one-pass gap against the minimum over every cross pair."""

    @staticmethod
    def ref_gap(values, members):
        values = np.asarray(values)
        inside = sorted(members)
        outside = [k for k in range(len(values)) if k not in set(members)]
        if not inside or not outside:
            return np.inf
        return float(np.min(np.abs(np.subtract.outer(values[inside], values[outside]))))

    def test_random_ascending_values(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            size = int(rng.integers(1, 12))
            values = np.sort(rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9))
            if rng.random() < 0.3:
                values = np.sort(np.round(values, 1))  # ties across the classes
            members = [k for k in range(size) if rng.random() < 0.5]
            assert spectral._class_gap(values.tolist(), members) == self.ref_gap(values, members)

    def test_partitions_and_perturbed_components(self):
        for seed in range(100):
            inst = random_instance(
                n=7, d_target=1.0, component_split=1 + seed % 6, scale=0.9, seed=seed
            )
            dec_a, split = eigh(inst.a), sign_split(inst.v)
            part = partition_spectrum(dec_a, inst.component_intervals)
            assert part.gap == self.ref_gap(dec_a.eigenvalues, part.component_indices)
            dec_av = eigh(inst.a + inst.v)
            sep = perturbed_component(dec_av, part, split)
            assert sep.measured_gap == self.ref_gap(dec_av.eigenvalues, sep.component_indices)

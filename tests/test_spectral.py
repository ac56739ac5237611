import dataclasses
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from specsub import spectral
from specsub import (
    AmbiguousMembership,
    DimensionMismatch,
    DomainError,
    EmptyComponent,
    InvalidInterval,
    analyze_instance,
    eigh,
    partition_spectrum,
    perturbed_component_at_t,
    random_instance,
    resolvent_interval,
    sharp_example_2x2,
    sign_split,
)


def partition_for(values, intervals):
    """The partition of diag(values) by `intervals`."""
    return partition_spectrum(eigh(np.diag(values)), intervals)


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
        with pytest.raises(EmptyComponent, match="no selection intervals"):
            partition_spectrum(dec, [])

    def test_boundary_eigenvalue_rejected(self):
        dec = eigh(np.diag([0.0, 1.0]))
        with pytest.raises(AmbiguousMembership):
            partition_spectrum(dec, [(0.0, 0.5)])

    def test_bad_interval_rejected(self):
        dec = eigh(np.diag([0.0, 1.0]))
        with pytest.raises(InvalidInterval):
            partition_spectrum(dec, [(0.5, 0.2)])

    def test_non_numeric_interval_rejected(self):
        # strings, bytes and Decimal went through float() and were accepted;
        # the last two are not pairs
        dec = eigh(np.diag([0.0, 1.0]))
        for pair in [("a", 1), ("-0.5", "0.5"), (b"-0.5", b"0.5"),
                     (Decimal("-0.5"), Decimal("0.5")), (-0.5, 0.5j), (10**400, 10**401),
                     (0.5,), 0.5]:
            with pytest.raises(InvalidInterval):
                partition_spectrum(dec, [pair])
        assert partition_spectrum(dec, [(Fraction(-1, 2), np.float32(0.5))]).component_indices == (0,)

    def test_multi_interval_selection(self):
        dec = eigh(np.diag([0.0, 1.5, 3.0, 4.5]))
        part = partition_spectrum(dec, [(-0.2, 0.2), (2.8, 3.2)])
        assert part.component_values.tolist() == [0.0, 3.0]
        assert part.gap == pytest.approx(1.5, abs=1e-15)


class TestPerturbedComponent:
    def test_zero_perturbation_reproduces_component(self):
        dec = eigh(np.diag([0.0, 1.0, 5.0, 6.0]))
        part = partition_spectrum(dec, [(-0.5, 1.5)])
        split = sign_split(np.zeros((4, 4)))
        sep = perturbed_component_at_t(dec, part, split, 1.0)
        assert sep.measured_gap == pytest.approx(part.gap, abs=1e-12)

    def test_sharp_example_assignment(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        dec_a = eigh(inst.a)
        part = partition_spectrum(dec_a, inst.component_intervals)
        split = sign_split(inst.v)
        dec_av = eigh(inst.a + inst.v)
        sep = perturbed_component_at_t(dec_av, part, split, 1.0)
        upper = (0.1 + np.sqrt(1.0 - 0.25)) / 2.0
        (idx,) = part.component_indices
        assert dec_av.eigenvalues[idx] == pytest.approx(upper, abs=1e-14)
        assert 0.5 - 0.2 <= dec_av.eigenvalues[idx] <= 0.5 + 0.3
        assert sep.gap_lower_bound == pytest.approx(1.0 - 0.5, abs=1e-12)

    def test_commuting_diagonal(self):
        a = np.diag([0.0, 10.0])
        v = np.diag([0.5, -0.5])
        dec_a = eigh(a)
        part = partition_spectrum(dec_a, [(-1.0, 1.0)])
        split = sign_split(v)
        sep = perturbed_component_at_t(eigh(a + v), part, split, 1.0)
        (idx,) = part.component_indices
        assert eigh(a + v).eigenvalues[idx] == pytest.approx(0.5, abs=1e-14)
        assert sep.measured_gap == pytest.approx(9.0, abs=1e-14)

    def test_gaps_absent_outside_the_gap_condition(self):
        # ||V+|| + ||V-|| = 4 against the gap 1: the enclosure is still checked
        dec = eigh(np.diag([0.0, 1.0]))
        part = partition_spectrum(dec, [(-0.5, 0.5)])
        split = sign_split(np.diag([2.0, -2.0]))
        assert perturbed_component_at_t(dec, part, split, 1.0) == (True, 0.0, None, None)
        # t(||V+|| + ||V-||) = 1/4 stays below the gap
        assert perturbed_component_at_t(dec, part, split, 0.0625) == (True, 0.0, 1.0, 0.75)

    def test_enclosure_fails_for_foreign_decomposition(self):
        # a decomposition that is not spec(A + V) fails the enclosure check
        part = partition_for([0.0, 10.0], [(-1.0, 1.0)])
        split = sign_split(np.diag([0.1, -0.1]))
        foreign = eigh(np.diag([100.0, 200.0]))
        assert perturbed_component_at_t(foreign, part, split, 1.0).enclosure_ok is False

    def test_foreign_eigenvalue_outside_its_weyl_interval_fails(self):
        # both foreign eigenvalues lie in the enlarged component [-0.1, 0.1],
        # but mu_1 = 0.05 is paired with lam_1 = 10 and lies 9.85 outside
        # [10 - 0.1, 10 + 0.1]; the failed enclosure is data, and both gaps
        # are still reported
        part = partition_for([0.0, 10.0], [(-1.0, 1.0)])
        split = sign_split(np.diag([0.1, -0.1]))
        sep = perturbed_component_at_t(eigh(np.diag([0.0, 0.05])), part, split, 1.0)
        assert sep.enclosure_ok is False
        assert sep.enclosure_excess == pytest.approx(9.85, abs=1e-14)
        assert sep.measured_gap == 0.05
        assert sep.gap_lower_bound == pytest.approx(9.8, abs=1e-14)

    def test_spectra_of_different_lengths_rejected(self):
        part = partition_spectrum(eigh(np.diag([0.0, 10.0])), [(-1.0, 1.0)])
        split = sign_split(np.diag([0.1, -0.1]))
        with pytest.raises(DimensionMismatch):
            perturbed_component_at_t(eigh(np.diag([0.0, 0.05, 10.0])), part, split, 1.0)


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
        assert sep.gap_lower_bound == pytest.approx(part.gap)

    def test_t_one_matches_full_perturbation(self):
        # each field is the report field of the same name
        inst, part, split = self._setup()
        dec_av = eigh(inst.a + inst.v)
        sep = perturbed_component_at_t(dec_av, part, split, 1.0)
        rep = analyze_instance(inst).report
        assert sep._asdict() == {name: getattr(rep, name) for name in sep._fields}

    def test_halfway_assignment_tracks_eigendecomposition(self):
        # at t = 1/2 the larger eigenvalue of A + tV belongs to the scaled
        # enlargement of the upper component; the eigensolver is the oracle
        inst, part, split = self._setup()
        t = 0.5
        dec_t = eigh(inst.a + t * inst.v)
        perturbed_component_at_t(dec_t, part, split, t)
        (idx,) = part.component_indices
        top = float(dec_t.eigenvalues[-1])
        assert float(dec_t.eigenvalues[idx]) == pytest.approx(top, abs=0)
        assert 0.5 - t * 0.2 - 1e-12 <= top <= 0.5 + t * 0.3 + 1e-12

    @pytest.mark.parametrize(
        "t",
        [-5.0, -1e-300, -0.5, 1.5, 2.0, np.nextafter(1.0, 2.0), np.nan]
        # these raised a bare TypeError or ValueError
        + [0.5 + 0j, None, "0.5", pytest.param(10**5000, id="10**5000")],
    )
    def test_t_outside_unit_interval_rejected(self, t):
        inst, part, split = self._setup()
        with pytest.raises(DomainError):
            perturbed_component_at_t(eigh(inst.a), part, split, t)

    def test_gap_lower_bound_at_t(self):
        # gap - t(||V+|| + ||V-||) with gap 1 and ||V+|| + ||V-|| = 0.3; the
        # commuting V attains it
        part = partition_for([0.0, 1.0], [(-0.5, 0.5)])
        v = np.diag([0.2, -0.1])
        split = sign_split(v)
        for t, expected in ((1.0, 0.7), (0.5, 0.85), (0.0, 1.0)):
            dec_t = eigh(np.diag([0.0, 1.0]) + t * v)
            sep = perturbed_component_at_t(dec_t, part, split, t)
            assert sep.gap_lower_bound == pytest.approx(expected, abs=1e-15)
            assert sep.measured_gap == pytest.approx(expected, abs=1e-15)


class TestEnclosureCheck:
    def test_zero_perturbation(self):
        dec = eigh(np.diag([0.0, 1.0]))
        part = partition_spectrum(dec, [(-0.5, 0.5)])
        sep = perturbed_component_at_t(dec, part, sign_split(np.zeros((2, 2))), 1.0)
        assert sep.enclosure_ok and sep.enclosure_excess == 0.0

    def test_shorter_perturbed_spectrum_rejected(self):
        with pytest.raises(DimensionMismatch):
            perturbed_component_at_t(
                eigh(np.eye(1)),
                partition_for([0.0, 1.0], [(-0.5, 0.5)]),
                sign_split(np.zeros((2, 2))),
                1.0,
            )

    def test_diagonal_example(self):
        # spec(A + V) = {1, 3} against [0 - 2, 0 + 1] and [5 - 2, 5 + 1]:
        # both sit on an interval's end
        a = np.diag([0.0, 5.0])
        v = np.diag([1.0, -2.0])
        sep = perturbed_component_at_t(
            eigh(a + v), partition_for([0.0, 5.0], [(-1.0, 1.0)]), sign_split(v), 1.0
        )
        assert sep.enclosure_ok and sep.enclosure_excess == 0.0

    def test_intervals_scale_with_t(self):
        # spec(A + V/2) = {0.5, 9} lies in spec(A) + [-2, 1]/2 = {[-1, 0.5],
        # [9, 10.5]}, and 9 lies 0.5 below 10 + [-2, 1]/4
        a = np.diag([0.0, 10.0])
        v = np.diag([1.0, -2.0])
        part, split = partition_for([0.0, 10.0], [(-1.0, 1.0)]), sign_split(v)
        dec_half = eigh(a + 0.5 * v)
        assert perturbed_component_at_t(dec_half, part, split, 0.5)[:2] == (True, 0.0)
        assert perturbed_component_at_t(dec_half, part, split, 0.25)[:2] == (False, 0.5)

    def test_random_instances(self):
        # Gaussian A and V of like size, mostly outside the gap condition; the
        # component is the lowest eigenvalue of A
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (g + g.conj().T)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = 0.5 * (g + g.conj().T)
            dec_a = eigh(a)
            low, next_up = dec_a.eigenvalues[:2]
            part = partition_spectrum(dec_a, [(low - 1.0, 0.5 * (low + next_up))])
            sep = perturbed_component_at_t(eigh(a + v), part, sign_split(v), 1.0)
            assert sep.enclosure_ok, f"excess {sep.enclosure_excess}"


class TestResolventInterval:
    def _split(self, norm_plus, norm_minus):
        return sign_split(np.diag([norm_plus, -norm_minus]))

    def test_formula(self):
        iv = resolvent_interval(0.0, 1.0, self._split(0.3, 0.2))
        assert iv == pytest.approx((0.3, 0.8))

    def test_condition_fails(self):
        assert resolvent_interval(0.0, 1.0, self._split(0.6, 0.5)) is None

    def test_invalid_interval(self):
        split = self._split(0.1, 0.1)
        for a, b in [(1.0, 0.0), ("0", "1"), (b"0", b"1"), (Decimal(0), Decimal(1)), (0.0, 1j)]:
            with pytest.raises(InvalidInterval):
                resolvent_interval(a, b, split)
        # np.asarray(spectrum, dtype=float) raised a bare ValueError or TypeError
        for spectrum in (
            ["a"], [0.5 + 1j], [10**5000], [[1.0], [1.0, 2.0]],
            # a float conversion reads these as 0.5 and NaN
            np.array([0.5 + 1j, 2.0]), [None, 2.0],
        ):
            with pytest.raises(InvalidInterval):
                resolvent_interval(0.0, 1.0, split, spectrum=spectrum)
        assert resolvent_interval(Fraction(0), np.int64(1), split) == pytest.approx((0.1, 0.9))

    def test_spectrum_checked_when_supplied(self):
        with pytest.raises(InvalidInterval):
            resolvent_interval(0.0, 1.0, self._split(0.1, 0.1), spectrum=[0.5])
        assert resolvent_interval(
            0.0, 1.0, self._split(0.1, 0.1), spectrum=[-1.0, 2.0]
        ) == pytest.approx((0.1, 0.9))

    def test_spectrum_read_by_numpy(self):
        # one float conversion for the whole spectrum: strings of numbers pass
        split = self._split(0.1, 0.1)
        with pytest.raises(InvalidInterval, match="meets the spectrum"):
            resolvent_interval(0.0, 1.0, split, spectrum=np.array([["0.5"]]))
        assert resolvent_interval(0.0, 1.0, split, spectrum=["2.0"]) == pytest.approx((0.1, 0.9))

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
        # the gaps are present exactly when t(||V+|| + ||V-||) = 0.5t < gap
        split = sign_split(np.diag([0.3, -0.2]))
        for gap, t, present in (
            (1.0, 1.0, True), (0.5, 1.0, False), (0.4, 1.0, False), (0.5, 0.5, True),
        ):
            dec = eigh(np.diag([0.0, gap]))
            part = partition_spectrum(dec, [(-0.1 * gap, 0.1 * gap)])
            sep = perturbed_component_at_t(dec, part, split, t)
            assert (sep.measured_gap is not None) is present
            assert (sep.gap_lower_bound is not None) is present


class TestAgainstMergedUnion:
    """Index pairing and the per-index excess against the merged-union loops they replaced."""

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

    @staticmethod
    def random(rng):
        n = int(rng.integers(2, 17))
        interlaced = n >= 4 and bool(rng.integers(0, 2))
        split = int(rng.integers(2, n - 1)) if interlaced else int(rng.integers(1, n))
        return random_instance(
            n=n, d_target=1.0, component_split=split,
            scale=float(rng.uniform(0.0, 0.99)), seed=int(rng.integers(0, 2**32)),
            interlaced=interlaced,
        )

    @staticmethod
    def semidefinite(inst, rng, aligned=False):
        """`inst` with V replaced by +-XX* of random rank r and the same ||V+|| + ||V-||.

        One of t||V+||, t||V-|| is then zero, so each mu_j sits on one side of
        its Weyl interval.  With `aligned`, X = U_S G for r eigenvectors U_S
        of A, and every other eigenvalue of A is one of A + tV: mu_j = lam_j.
        """
        n = inst.a.shape[0]
        r = int(rng.integers(1, n + 1))
        x = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        if aligned:
            x = eigh(inst.a).eigenvectors[:, rng.choice(n, size=r, replace=False)] @ x[:r]
        v = x @ x.conj().T
        v = 0.5 * (v + v.conj().T)
        v *= rng.choice([-1.0, 1.0]) * sign_split(inst.v).norm_sum / np.linalg.eigvalsh(v).max()
        return dataclasses.replace(inst, v=v)

    def instances(self, count=300):
        """Gaussian instances, then the Weyl edges: semidefinite V of every rank
        and the sharp 2x2 family, where the bounds are attained."""
        rng = np.random.default_rng(31)
        for k in range(2 * count):
            inst = self.random(rng)
            yield inst if k < count else self.semidefinite(inst, rng)
        grid = np.arange(0.0, 0.96, 0.05)
        for v_plus in grid:
            for v_minus in grid:
                if v_plus + v_minus <= 0.95 + 1e-12:
                    yield sharp_example_2x2(float(v_plus), float(v_minus))[0]

    def test_random_instances(self):
        for inst in self.instances():
            dec_a = eigh(inst.a)
            split = sign_split(inst.v)
            part = partition_spectrum(dec_a, inst.component_intervals)
            for t in (0.0, 0.5, 1.0):
                dec_t = eigh(inst.a + t * inst.v)
                sep = perturbed_component_at_t(dec_t, part, split, t)
                assert sep.enclosure_ok and sep.measured_gap is not None
                assert (part.component_indices, part.rest_indices) == self.ref_assignment(
                    dec_t.eigenvalues, part, split, t
                )
            dec_av = eigh(inst.a + inst.v)
            union = self.ref_enlarge(dec_a.eigenvalues, split.norm_minus, split.norm_plus)
            excess = max(self.ref_distance(union, float(m)) for m in dec_av.eigenvalues)
            assert perturbed_component_at_t(dec_av, part, split, 1.0).enclosure_excess == excess

    def test_null_directions_of_a(self):
        # with mu_j = lam_j exactly, rounding can put mu_j just past its own
        # interval and inside a neighbour's: the per-index excess then reads a
        # few ulps where the distance to the union reads less, still far
        # below the tolerance
        rng = np.random.default_rng(33)
        for _ in range(300):
            inst = self.semidefinite(self.random(rng), rng, aligned=True)
            dec_a = eigh(inst.a)
            split = sign_split(inst.v)
            part = partition_spectrum(dec_a, inst.component_intervals)
            for t in (0.0, 0.5, 1.0):
                dec_t = eigh(inst.a + t * inst.v)
                sep = perturbed_component_at_t(dec_t, part, split, t)
                assert sep.enclosure_ok and sep.measured_gap is not None
                assert (part.component_indices, part.rest_indices) == self.ref_assignment(
                    dec_t.eigenvalues, part, split, t
                )
            dec_av = eigh(inst.a + inst.v)
            union = self.ref_enlarge(dec_a.eigenvalues, split.norm_minus, split.norm_plus)
            excess = max(self.ref_distance(union, float(m)) for m in dec_av.eigenvalues)
            sep = perturbed_component_at_t(dec_av, part, split, 1.0)
            assert sep.enclosure_ok and excess <= sep.enclosure_excess


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
            sep = perturbed_component_at_t(dec_av, part, split, 1.0)
            assert sep.measured_gap == self.ref_gap(dec_av.eigenvalues, part.component_indices)

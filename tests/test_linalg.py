import ast
import pathlib

import numpy as np
import pytest

import specsub

from specsub import (
    ConvergenceFailure,
    NonHermitianInput,
    eigh,
    require_hermitian,
    sharp_example_2x2,
    sign_split,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def raise_linalg_error(arr):
    """A stand-in for an eigensolver that fails to converge."""
    raise np.linalg.LinAlgError("did not converge")


def dense_parts(v):
    """Reference V+ and V- built from a full eigendecomposition of V."""
    w, u = np.linalg.eigh(v)
    return (u * np.maximum(w, 0.0)) @ u.conj().T, (u * np.maximum(-w, 0.0)) @ u.conj().T


class TestRequireHermitian:
    def test_accepts_real_symmetric(self):
        a = np.array([[1.0, 2.0], [2.0, -1.0]])
        out = require_hermitian(a)
        assert out.dtype == np.float64

    def test_accepts_complex_hermitian(self):
        a = np.array([[1.0, 1j], [-1j, 2.0]])
        assert require_hermitian(a).dtype == np.complex128

    def test_rejects_asymmetric(self):
        with pytest.raises(NonHermitianInput):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(NonHermitianInput):
            require_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("a", [[["1", "0"], ["0", "1"]], [[True, False], [False, True]]])
    def test_rejects_non_numeric(self, a):
        with pytest.raises(NonHermitianInput, match="must be numeric"):
            require_hermitian(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonHermitianInput):
            require_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_tolerates_rounding_level_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        require_hermitian(a)

    @pytest.mark.parametrize(
        "a, message",
        [
            # the asymmetry 2e308 overflows; pytest turns a numpy overflow
            # warning into a failure
            ([[0.0, 1e308], [-1e308, 0.0]], "not Hermitian"),
            ([[0.0, 1e308j], [1e308j, 0.0]], "not Hermitian"),
            # |1.5e308 + 1.5e308j| overflows: no tolerance can be formed
            ([[1.5e308 + 1.5e308j, 0.0], [0.0, 0.0]], "modulus overflows"),
        ],
    )
    def test_overflowing_entries_rejected_without_a_warning(self, a, message):
        with pytest.raises(NonHermitianInput, match=message):
            require_hermitian(a)

    def test_large_hermitian_entries_accepted(self):
        assert require_hermitian([[1e308, -1e308], [-1e308, 1e308]]).dtype == np.float64

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_returns_the_matrix_the_solver_reads(self, layout):
        # the solver reads the lower triangle and a real diagonal only, so the
        # mirrored result decomposes bit for bit as the raw input does
        rng = np.random.default_rng(47)
        for n in (2, 8, 32):
            for _ in range(10):
                noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                near = random_hermitian(rng, n) + 1e-13 * noise
                for raw in (layout(near), layout(near.real)):
                    h = require_hermitian(raw)
                    assert np.array_equal(h, h.conj().T)
                    w, u = np.linalg.eigh(raw)
                    w2, u2 = np.linalg.eigh(h)
                    assert np.array_equal(w, w2) and np.array_equal(u, u2)

    def test_exactly_hermitian_input_is_not_copied(self):
        rng = np.random.default_rng(49)
        for h in (random_hermitian(rng, 6), random_hermitian(rng, 6).real):
            assert np.shares_memory(require_hermitian(h), h)

    def test_real_combinations_of_results_are_exactly_hermitian(self):
        rng = np.random.default_rng(50)
        for n in (2, 8, 32):
            noise = 1e-13 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            a = require_hermitian(random_hermitian(rng, n) + noise)
            for v in (random_hermitian(rng, n), random_hermitian(rng, n).real + noise.real):
                v = require_hermitian(v)
                for t in np.linspace(0.0, 1.0, 11):
                    h = a + t * v
                    assert np.array_equal(h, h.conj().T)


class TestEigh:
    def test_diagonal(self):
        dec = eigh(np.diag([-0.5, 0.5]))
        np.testing.assert_allclose(dec.eigenvalues, [-0.5, 0.5], rtol=0, atol=0)
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-15)

    def test_symmetry_forced_pair(self):
        dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_sharp_example_balanced_split(self):
        # v_plus = v_minus = 1/4 makes the perturbed spectrum symmetric at
        # +-sqrt(1 - 1/4)/2 = +-sqrt(3)/4
        inst, _ = sharp_example_2x2(0.25, 0.25)
        dec = eigh(inst.a + inst.v)
        expected = np.sqrt(3.0) / 4.0
        np.testing.assert_allclose(dec.eigenvalues, [-expected, expected], atol=1e-15)

    def test_ascending_and_orthonormal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            h = random_hermitian(rng, n)
            dec = eigh(h)
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
            resid = np.linalg.norm(
                h @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues, axis=0
            )
            assert resid.max() <= 1e-10 * (1.0 + np.abs(dec.eigenvalues).max())

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 9)
        d1, d2 = eigh(h), eigh(h.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    @pytest.mark.parametrize("scale", [1e-200, 1e150, 1e200, 1e300])
    def test_large_and_small_norms_pass_verification(self, scale):
        # the residual used to be squared unscaled and overflowed past 1e154
        h = random_hermitian(np.random.default_rng(48), 8).real
        dec = eigh(scale * h)
        np.testing.assert_allclose(dec.eigenvalues, scale * eigh(h).eigenvalues, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_corrupted_eigenvector_rejected_at_any_scale(self, monkeypatch, scale):
        # mixing two eigenvectors keeps the basis orthonormal, so only the
        # residual can catch it
        real = np.linalg.eigh

        def mixed(arr):
            w, u = real(arr)
            u[:, :2] = u[:, :2] @ (np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0))
            return w, u

        h = random_hermitian(np.random.default_rng(48), 8).real
        monkeypatch.setattr(np.linalg, "eigh", mixed)
        with pytest.raises(ConvergenceFailure, match="residual"):
            eigh(scale * h)

    def test_asymmetry_within_tolerance_passes_verification_at_n512(self):
        # the residual is taken against the matrix decomposed, the mirrored
        # lower triangle; against the raw input it read 1.6e-10 here
        n = 512
        g = np.random.default_rng(0).standard_normal((n, n))
        g[:, 0] = 1.0
        q = np.linalg.qr(g)[0]
        a = (q * np.linspace(-1.0, 1.0, n)) @ q.T
        a = 0.5 * (a + a.T)
        upper = np.triu(np.ones((n, n)), 1)
        a += 0.49e-12 * (1.0 + abs(a).max()) * (upper - upper.T)
        require_hermitian(a)
        dec = eigh(a)
        np.testing.assert_allclose(dec.eigenvalues, np.linspace(-1.0, 1.0, n), atol=1e-12)

    def test_overflowing_spectrum_rejected(self):
        # finite entries, eigenvalues 0 and 2e308 = inf; pytest turns the
        # overflow warning of a residual taken with inf into an error
        with pytest.raises(ConvergenceFailure, match="non-finite eigenvalue"):
            eigh([[1e308, 1e308], [1e308, 1e308]])

    @pytest.mark.parametrize("part", ["eigenvalues", "eigenvectors"])
    def test_nan_from_the_solver_rejected(self, monkeypatch, part):
        real = np.linalg.eigh

        def poisoned(arr):
            w, u = real(arr)
            (w if part == "eigenvalues" else u)[0] = np.nan
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        with pytest.raises(ConvergenceFailure):
            eigh(np.diag([1.0, 2.0]))

    def test_solver_error_is_a_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", raise_linalg_error)
        with pytest.raises(ConvergenceFailure, match="eigensolver failed: did not converge"):
            eigh(np.diag([1.0, 2.0]))


class TestOperatorNorm:
    def test_zero(self):
        assert sign_split(np.zeros((3, 3))).norm_v == 0.0

    def test_diagonal(self):
        assert sign_split(np.diag([-3.0, 2.0])).norm_v == 3.0

    def test_sharp_example_perturbation(self):
        # spec(V) = {-v_minus, v_plus}, so the norm is max(v_plus, v_minus)
        inst, _ = sharp_example_2x2(0.3, 0.2)
        assert sign_split(inst.v).norm_v == pytest.approx(0.3, abs=1e-12)

    def test_matches_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 10)))
            s = np.linalg.svd(h, compute_uv=False)[0]
            assert sign_split(h).norm_v == pytest.approx(s, rel=1e-12)


class TestSignSplit:
    def test_positive_semidefinite_has_no_negative_part(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4))
        psd = g @ g.T
        split = sign_split(psd)
        assert split.norm_minus == 0.0
        assert split.norm_plus == pytest.approx(np.linalg.norm(psd, 2), rel=1e-12)

    def test_diagonal_split(self):
        split = sign_split(np.diag([2.0, -1.0]))
        assert split.norm_plus == 2.0
        assert split.norm_minus == 1.0
        assert split.norm_v == 2.0

    def test_sharp_example_norms(self):
        inst, _ = sharp_example_2x2(0.3, 0.2)
        split = sign_split(inst.v)
        assert split.norm_plus == pytest.approx(0.3, abs=1e-12)
        assert split.norm_minus == pytest.approx(0.2, abs=1e-12)

    def test_zero_matrix(self):
        split = sign_split(np.zeros((3, 3)))
        assert split.norm_plus == split.norm_minus == split.norm_v == 0.0

    def test_overflowing_spectrum_rejected(self):
        # an infinite ||V|| would make the zero tolerance infinite and drop
        # both parts
        with pytest.raises(ConvergenceFailure, match="non-finite eigenvalue"):
            sign_split([[1e308, 1e308], [1e308, 1e308]])

    def test_nan_from_the_solver_rejected(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda arr: np.array([np.nan, 1.0]))
        with pytest.raises(ConvergenceFailure):
            sign_split(np.diag([1.0, 2.0]))

    def test_solver_error_is_a_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", raise_linalg_error)
        with pytest.raises(ConvergenceFailure, match="eigensolver failed: did not converge"):
            sign_split(np.diag([1.0, 2.0]))

    def test_invariants_on_random_matrices(self):
        # the three norms against the 2-norms of V, V+ and V- built from eigh,
        # and the norm ordering, over 1000 draws with n <= 12
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            v = random_hermitian(rng, n)
            split = sign_split(v)
            v_plus, v_minus = dense_parts(v)
            tol = 1e-10 * (1.0 + split.norm_v)
            assert split.norm_plus == pytest.approx(np.linalg.norm(v_plus, 2), abs=tol)
            assert split.norm_minus == pytest.approx(np.linalg.norm(v_minus, 2), abs=tol)
            assert split.norm_v == pytest.approx(np.linalg.norm(v, 2), abs=tol)
            assert max(split.norm_plus, split.norm_minus) <= split.norm_v + 1e-12


def _package_trees():
    for path in sorted(pathlib.Path(specsub.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _is_numpy_linalg(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def test_every_lapack_call_goes_through_linalg():
    # a numpy.linalg routine is only passed to linalg._lapack, which states the
    # failure rule once: no module calls one itself, imports one by name, or
    # names LinAlgError
    offences = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if _is_numpy_linalg(node.func.value):
                    offences.append(f"{name}:{node.lineno} calls np.linalg.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
                if node.module == "numpy.linalg" or "linalg" in [a.name for a in node.names]:
                    offences.append(f"{name}:{node.lineno} imports from numpy.linalg")
            elif name != "linalg.py" and "LinAlgError" in (
                getattr(node, "id", None), getattr(node, "attr", None)
            ):
                offences.append(f"{name}:{node.lineno} names LinAlgError")
    assert offences == []

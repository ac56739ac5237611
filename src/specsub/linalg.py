"""Dense Hermitian linear algebra.

Matrices are plain numpy arrays (real symmetric or complex Hermitian).
require_hermitian validates an input once, against the tolerance
1e-12 * (1 + max|entry|), and returns an exactly Hermitian matrix; decompose
takes one, or a real combination of them (conjugate entries round alike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonHermitianInput

HERMITICITY_RTOL = 1e-12
DECOMPOSITION_RTOL = 1e-10


def _lapack(routine, *args):
    """routine(*args), a numpy.linalg call, with LinAlgError raised as ConvergenceFailure."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc


def _finite(w: np.ndarray) -> np.ndarray:
    if not np.isfinite(w).all():
        raise ConvergenceFailure("eigensolver returned a non-finite eigenvalue")
    return w


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Check that `a` is Hermitian; return the float64/complex128 matrix the solvers read.

    They read the lower triangle and a real diagonal.  An exactly Hermitian
    input comes back without a copy, any other as its lower triangle mirrored.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NonHermitianInput(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.dtype.kind not in "iufc":
        raise NonHermitianInput(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    # a NaN or inf entry makes the scale NaN or inf, and so can a finite |z|
    # near the float range; the asymmetry can overflow to inf, failing below
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(abs(arr).max())
        defect = float(abs(arr - arr.conj().T).max())
    if not scale < math.inf:
        if not np.isfinite(arr).all():
            raise NonHermitianInput(f"{name} contains non-finite entries")
        raise NonHermitianInput(f"{name} has an entry whose modulus overflows")
    tol = HERMITICITY_RTOL * (1.0 + scale)
    if defect > tol:
        raise NonHermitianInput(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds {tol:.3e}"
        )
    if defect == 0.0:
        return arr
    # selected, not computed, so every entry the solver reads keeps its bits
    h = np.where(np.tri(arr.shape[0], dtype=bool), arr, arr.conj().T)
    if h.dtype.kind == "c":
        np.fill_diagonal(h.imag, 0.0)
    return h


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix: decompose(require_hermitian(h))."""
    return decompose(require_hermitian(h))


def decompose(arr: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of an exactly Hermitian float64/complex128 matrix, taken as it is.

    `arr` is what require_hermitian returns, or a real combination of such
    matrices.  The result is checked, a NaN failing each check: finite
    eigenvalues (finite entries can overflow), Gram defect at most 1e-10 and
    column residuals ||H u_k - w_k u_k|| at most 1e-10 * (1 + ||H||), taken
    from H / (1 + ||H||) so that no square overflows.
    Deterministic for a fixed input on a fixed build of the solver.
    """
    w, u = _lapack(np.linalg.eigh, arr)
    _finite(w)  # before ||H|| scales a tolerance
    gram = u.conj().T @ u
    gram.reshape(-1)[:: arr.shape[0] + 1] -= 1.0  # a view: .flat traces a buffer
    gram_defect = float(abs(gram).max())
    del gram  # not held while the residual is built
    unit = 1.0 + float(abs(w).max())
    # column 2-norms, computed as np.linalg.norm(r, axis=0) does
    r = (arr / unit) @ u - u * (w / unit)
    residual = float(np.sqrt((r.conj() * r).real.sum(axis=0)).max())
    if not (gram_defect <= DECOMPOSITION_RTOL and residual <= DECOMPOSITION_RTOL):
        raise ConvergenceFailure(
            f"decomposition failed verification: gram defect {gram_defect:.3e}, "
            f"residual {residual:.3e} relative to 1 + ||H||"
        )
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


@dataclass(frozen=True)
class PerturbationSplit:
    """V = V+ - V- with both parts positive semidefinite on orthogonal ranges.

    V is read through its three norms, ||V+||, ||V-|| and ||V||, all taken
    from the eigenvalues of V; the parts themselves are never formed.
    """

    v: np.ndarray
    norm_plus: float
    norm_minus: float
    norm_v: float

    @property
    def norm_sum(self) -> float:
        return self.norm_plus + self.norm_minus


def sign_split(v, name: str = "matrix") -> PerturbationSplit:
    """Read a Hermitian matrix V = V+ - V- through its three norms.

    One eigenvalue-only solve gives them all: norm_v is ||V||, and norm_plus
    and norm_minus are the spectral norms of the positive and negative parts
    (0 for an empty part).  Eigenvalues with |eigenvalue| <= 1e-12 * (1 + ||V||)
    belong to neither part; they contribute the zero operator either way.  The
    input is validated by require_hermitian, which names it `name` in errors,
    and a non-finite eigenvalue raises ConvergenceFailure.
    """
    arr = require_hermitian(v, name=name)
    w = _finite(_lapack(np.linalg.eigvalsh, arr))
    norm_v = float(abs(w).max())
    zero_tol = HERMITICITY_RTOL * (1.0 + norm_v)
    return PerturbationSplit(
        v=arr,
        norm_plus=float(w[-1]) if w[-1] > zero_tol else 0.0,
        norm_minus=float(-w[0]) if w[0] < -zero_tol else 0.0,
        norm_v=norm_v,
    )

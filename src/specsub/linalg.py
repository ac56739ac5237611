"""Dense Hermitian linear algebra.

Matrices are plain numpy arrays (real symmetric or complex Hermitian);
every public operation validates its input against the Hermiticity
tolerance 1e-12 * (1 + max|entry|) before touching it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConvergenceFailure, IndexOutOfRange, NonHermitianInput

HERMITICITY_RTOL = 1e-12
DECOMPOSITION_RTOL = 1e-10


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Return `a` as a float64/complex128 array after checking it is Hermitian."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NonHermitianInput(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.dtype.kind not in "iufc":
        raise NonHermitianInput(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise NonHermitianInput(f"{name} contains non-finite entries")
    tol = HERMITICITY_RTOL * (1.0 + float(abs(arr).max()))
    defect = float(abs(arr - arr.conj().T).max())
    if defect > tol:
        raise NonHermitianInput(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds {tol:.3e}"
        )
    return arr


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])


def eigh(h, name: str = "matrix") -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is validated by require_hermitian, which names it `name` in
    errors.  The result is checked: eigenvector Gram defect at most 1e-10 and
    column residuals ||H u_k - w_k u_k|| at most 1e-10 * (1 + ||H||).
    Deterministic for a fixed input on a fixed build of the solver.
    """
    arr = require_hermitian(h, name=name)
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    gram = u.conj().T @ u
    gram.flat[:: arr.shape[0] + 1] -= 1.0
    gram_defect = float(abs(gram).max())
    norm_h = float(abs(w).max())
    # column 2-norms, computed as np.linalg.norm(r, axis=0) does
    r = arr @ u - u * w
    residual = float(np.sqrt((r.conj() * r).real.sum(axis=0)).max())
    if gram_defect > DECOMPOSITION_RTOL or residual > DECOMPOSITION_RTOL * (1.0 + norm_h):
        raise ConvergenceFailure(
            f"decomposition failed verification: gram defect {gram_defect:.3e}, "
            f"residual {residual:.3e}"
        )
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc


def operator_norm(h) -> float:
    """Spectral norm of a Hermitian matrix, i.e. max |eigenvalue|."""
    return float(abs(_eigvalsh(require_hermitian(h))).max())


@dataclass(frozen=True)
class PerturbationSplit:
    """V = V+ - V- with both parts positive semidefinite on orthogonal ranges.

    The norms come from the eigenvalues of V alone; the dense parts V+ and
    V- need its eigenvectors and are built on first read.
    """

    v: np.ndarray
    norm_plus: float
    norm_minus: float
    norm_v: float

    @property
    def norm_sum(self) -> float:
        return self.norm_plus + self.norm_minus

    @property
    def v_plus(self) -> np.ndarray:
        return self._parts[0]

    @property
    def v_minus(self) -> np.ndarray:
        return self._parts[1]

    @cached_property
    def _parts(self) -> tuple[np.ndarray, np.ndarray]:
        dec = eigh(self.v)
        w, u = dec.eigenvalues, dec.eigenvectors
        zero_tol = HERMITICITY_RTOL * (1.0 + self.norm_v)
        pos = w > zero_tol
        neg = w < -zero_tol
        # these eigenvalues may sit ulps away from the eigvalsh ones behind the
        # norms; a part is nonzero exactly when its norm is
        if self.norm_plus == 0.0:
            pos[:] = False
        elif not pos.any():
            pos[-1] = True
        if self.norm_minus == 0.0:
            neg[:] = False
        elif not neg.any():
            neg[0] = True
        v_plus = (u[:, pos] * w[pos]) @ u[:, pos].conj().T
        v_minus = (u[:, neg] * (-w[neg])) @ u[:, neg].conj().T
        return 0.5 * (v_plus + v_plus.conj().T), 0.5 * (v_minus + v_minus.conj().T)


def sign_split(v, name: str = "matrix") -> PerturbationSplit:
    """Split a Hermitian matrix into its positive and negative spectral parts.

    Eigenpairs with |eigenvalue| <= 1e-12 * (1 + ||V||) are dropped from both
    parts; they contribute the zero operator either way.  norm_plus and
    norm_minus are the spectral norms of the two parts (0 for an empty part),
    taken from an eigenvalue-only solve.  The input is validated by
    require_hermitian, which names it `name` in errors.
    """
    arr = require_hermitian(v, name=name)
    w = _eigvalsh(arr)
    norm_v = float(abs(w).max())
    zero_tol = HERMITICITY_RTOL * (1.0 + norm_v)
    return PerturbationSplit(
        v=arr,
        norm_plus=float(w[-1]) if w[-1] > zero_tol else 0.0,
        norm_minus=float(-w[0]) if w[0] < -zero_tol else 0.0,
        norm_v=norm_v,
    )


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector stored as a dense Hermitian matrix, with its rank."""

    matrix: np.ndarray
    rank: int

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


def spectral_projector(decomp: SpectralDecomposition, indices: Iterable[int]) -> Projector:
    """Projector onto the span of the selected eigenvector columns.

    `indices` is treated as a set; rank equals its size.
    """
    idx = sorted({int(i) for i in indices})
    if idx and (idx[0] < 0 or idx[-1] >= decomp.n):
        raise IndexOutOfRange(f"indices must lie in 0..{decomp.n - 1}, got {idx}")
    cols = decomp.eigenvectors[:, idx]
    p = cols @ cols.conj().T
    return Projector(matrix=0.5 * (p + p.conj().T), rank=len(idx))

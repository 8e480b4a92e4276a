"""Dense linear-algebra kernel: tridiagonal eigensolver, operator norms, commutators.

Everything here is a pure function of its inputs.  Matrices are plain numpy
arrays (row-major), real or complex.  Every norm is one LAPACK solve, with no
fast paths and no random start, so repeated runs are bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._errors import ComputationError, ContractError


class EigenDecomposition(NamedTuple):
    """Spectral decomposition of a real symmetric matrix.

    eigenvalues are ascending; eigenvector k is ``eigenvectors[:, k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def tridiag_eigh(diag, offdiag) -> EigenDecomposition:
    """Full eigendecomposition of a real symmetric tridiagonal matrix.

    Args:
        diag: main diagonal, length n.
        offdiag: first off-diagonal, length n - 1.

    Returns:
        EigenDecomposition with ascending eigenvalues and orthonormal columns.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
        raise ContractError(
            f"offdiag must have length len(diag)-1, got {len(d)} and {len(e)}"
        )
    if len(d) == 0:
        raise ContractError("empty diagonal")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ContractError("non-finite entry in tridiagonal data")
    if len(d) == 1:
        return EigenDecomposition(d.copy(), np.ones((1, 1)))
    try:
        w, v = eigh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ComputationError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(w, v)


def commutator(a, b) -> np.ndarray:
    """AB - BA for square matrices of equal size."""
    A = np.asarray(a)
    B = np.asarray(b)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ContractError(f"commutator needs equal square matrices, got {A.shape} and {B.shape}")
    C = A @ B - B @ A
    # commutators of Hermitian inputs are anti-Hermitian; keep that honest
    if _is_hermitian(A) and _is_hermitian(B):
        scale = max(1.0, _max_abs(C))
        skew = _max_abs(C + C.conj().T)
        if skew > 1e-12 * scale:  # pragma: no cover - arithmetic identity
            raise ComputationError(f"commutator of Hermitian inputs not anti-Hermitian: {skew}")
    return C


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _is_hermitian(a, tol: float = 1e-12) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return _max_abs(a - a.conj().T) <= tol * max(1.0, _max_abs(a))


def _exact_norm(a) -> float:
    """LAPACK-grade largest singular value."""
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T):
        w = np.linalg.eigvalsh(a)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.norm(a, 2))


def operator_norm(a) -> float:
    """Largest singular value of a dense matrix.

    One LAPACK solve with no fast paths: a Hermitian eigensolve when the
    input is exactly Hermitian, an SVD otherwise.  LAPACK returns exactly 0.0
    for a zero matrix and max|d| for a real diagonal one.
    """
    A = np.asarray(a)
    if A.ndim != 2 or A.size == 0:
        raise ContractError(f"operator_norm needs a non-empty matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or (np.iscomplexobj(A) and not np.all(np.isfinite(A.imag))):
        raise ContractError("operator_norm: non-finite entries")
    return _exact_norm(A)

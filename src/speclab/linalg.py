"""Linear-algebra kernel: operator norms, commutators, the Toeplitz FFT
product, and matrix-free Lanczos norms with their certificates.

Everything here is a pure function of its inputs and runs on numpy alone.
Matrices are plain numpy arrays (row-major), real or complex.  A dense norm
is one LAPACK solve with no fast paths; the Lanczos solver starts from a
fixed vector or from one its caller passes and takes each Ritz pair from
numpy's symmetric eigensolver on its small tridiagonal (on the whole
operator, applied once to the identity, when that is no larger than one
Krylov cycle); certified_norm, its one caller, certifies every norm the
package reports.  Nothing draws random numbers: reruns are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first transform)

from ._errors import ComputationError, ContractError


class NormRecord(NamedTuple):
    """An operator norm and its certificate lower <= value <= upper, from
    certified_norm's one matrix-free Lanczos run of ``matvecs`` products.
    ``method`` is "perron" for a Collatz-Wielandt bracket (the Hankel odd
    block: a Hankel truncation at a = 0, every SE(2) commutator) and
    "lanczos" for a residual lower end and the upper end 1/2 (a Hankel
    truncation at a != 0, the ring, Heisenberg and SU(2) commutators).
    """

    value: float
    method: str
    matvecs: int
    lower: float
    upper: float


class RitzPair(NamedTuple):
    """A converged Ritz value, its unit Ritz vector, and the matvecs spent."""

    value: float
    vector: np.ndarray
    matvecs: int


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
    """LAPACK-grade largest singular value.  Off the Hermitian branch it is
    the first of gesdd's descending singular values: np.linalg.norm(a, 2)
    makes the same call and takes their max."""
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T):
        w = np.linalg.eigvalsh(a)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.svd(a, compute_uv=False)[0])


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


def toeplitz_matvec(table: np.ndarray, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> T x for the m x m Toeplitz matrix T[i, j] = table[i - j + m - 1]
    (len(table) = 2m - 1), by one rfft/irfft pair of length
    2^ceil(log2(2m - 1)): (T x)_i is entry i + m - 1 of the linear
    convolution of table with x, whose m - 1 entries past that length wrap
    onto entries 0..m - 2, none of which is read.  x may be a 2-D block, each
    of whose rows is multiplied.
    """
    size = 1 << (2 * m - 2).bit_length()
    t_hat = np.fft.rfft(table, size)
    return lambda x: np.fft.irfft(t_hat * np.fft.rfft(x, size), size)[..., m - 1 : 2 * m - 1]


LANCZOS_STEPS = 24   # Krylov dimension of one cycle
LANCZOS_CYCLES = 20  # cycles before lanczos_top gives up
LANCZOS_TOL = 4.0    # stop at residual bound <= LANCZOS_TOL * eps * |Ritz value|


def lanczos_top(matvec: Callable[[np.ndarray], np.ndarray], m: int,
                start: np.ndarray | None = None) -> RitzPair:
    """Eigenvalue of largest modulus of a real symmetric m x m operator.

    At m <= LANCZOS_STEPS one cycle would span the whole space, so the
    operator is solved outright: ``matvec`` is applied once to the rows of
    the m x m identity (it must map each row of a 2-D block), numpy's
    symmetric eigensolver takes the result, and matvecs = m.  The start
    does not matter there.
    Otherwise explicitly restarted Lanczos: each cycle runs up to
    LANCZOS_STEPS steps from ``start`` normalised, by default the unit
    vector ones/sqrt(m) (then from the last cycle's Ritz vector),
    reorthogonalising each new vector against the whole cycle's basis, and
    stops as soon as the residual bound |beta_j s_j| of the Ritz pair of
    largest modulus is at most LANCZOS_TOL * eps * |theta|.  The cycle's
    tridiagonal is filled one entry per step, and each step's Ritz pairs
    come from numpy's symmetric eigensolver on its leading (j + 1) x (j + 1)
    block.  An invariant Krylov space (beta_j = 0) is converged by the same
    test, so a start that is an eigenvector takes one matvec.
    Lanczos only sees the invariant subspace its start vector generates: an
    operator that commutes with a reflection keeps an even start even, so a
    caller whose top eigenvector may be odd passes a start with a part in
    every reflection sector.  A given start gives a bit-reproducible result.
    Raises ComputationError if LANCZOS_CYCLES cycles do not converge.
    """
    if m < 1:
        raise ContractError(f"lanczos_top needs m >= 1, got {m}")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (m,) or not np.linalg.norm(start) > 0.0:
            raise ContractError(f"lanczos_top needs a nonzero start of length {m}")
    if m <= LANCZOS_STEPS:
        theta, s = np.linalg.eigh(matvec(np.eye(m)), UPLO="L")
        top = int(np.argmax(np.abs(theta)))
        return RitzPair(float(theta[top]), s[:, top], m)
    start = np.full(m, 1.0 / math.sqrt(m)) if start is None else start / np.linalg.norm(start)
    eps = np.finfo(float).eps
    basis = np.empty((LANCZOS_STEPS, m))
    tri = np.zeros((LANCZOS_STEPS, LANCZOS_STEPS))  # lower: alpha on the diagonal, beta below
    matvecs = 0
    for _ in range(LANCZOS_CYCLES):
        basis[0] = start
        for j in range(LANCZOS_STEPS):
            w = matvec(basis[j])
            matvecs += 1
            tri[j, j] = basis[j] @ w
            q = basis[: j + 1]
            w = w - q.T @ (q @ w)
            w = w - q.T @ (q @ w)  # twice is enough (Kahan-Parlett)
            beta = np.linalg.norm(w)
            theta, s = np.linalg.eigh(tri[: j + 1, : j + 1], UPLO="L")
            top = int(np.argmax(np.abs(theta)))
            if abs(beta * s[j, top]) <= LANCZOS_TOL * eps * abs(theta[top]):
                return RitzPair(float(theta[top]), s[:, top] @ q, matvecs)
            if j + 1 < LANCZOS_STEPS:
                basis[j + 1] = w / beta
                tri[j + 1, j] = beta
        start = s[:, top] @ basis
        start /= np.linalg.norm(start)
    raise ComputationError(
        f"Lanczos did not converge in {LANCZOS_CYCLES} cycles of {LANCZOS_STEPS} steps "
        f"(m = {m})"
    )


NORM_CAP = 0.5 + 1e-9  # no projection commutator or Hankel section exceeds 1/2


def certified_norm(op: Callable[[np.ndarray], np.ndarray] | None, m: int,
                   start: np.ndarray | None = None, gram: bool = False,
                   perron: bool = False) -> NormRecord:
    """Norm of a real symmetric m x m operator ``op`` (bounded by 1/2:
    Nehari's bound for a Hankel section, the bound on a commutator of two
    projections otherwise) with its certificate: one lanczos_top run from
    ``start``, then one more product, counted in matvecs.

    ``perron``: op is entrywise >= 0, and for x = |Ritz vector| the
    Collatz-Wielandt ratios (Ax)_i/x_i bracket its top eigenvalue, each
    widened by k eps max(Ax)/x_i for the FFT's rounding, k = 2 for one
    product and 4 for a Gram operator of two (an allowance, not a proven
    bound: against long double one Hankel product was off by at most
    1.2 eps max|Hx| in any entry, N <= 16384, and C C^T x by
    1.45 eps max(C C^T x), K <= 32768).  Otherwise "lanczos": some
    eigenvalue lies within r = ||Ax - theta x|| of the Ritz value theta, so
    the ends are |theta| - r and 1/2.  ``gram``: op is B^T B or B B^T and
    the record is ||B||, square roots of the value and computed ends (a
    "lanczos" upper end stays 1/2).  A value or end in (1/2, NORM_CAP] is
    rounding (one ulp at Heisenberg's norm-1/2 points) and is clipped to
    1/2; a larger one is kept for the caller to refuse.  m = 0, a block
    with no rows or columns, gives NormRecord(0.0, "lanczos", 0, 0.0, 0.5).
    """
    if m == 0:
        return NormRecord(0.0, "lanczos", 0, 0.0, 0.5)
    ritz = lanczos_top(op, m, start)
    if perron:
        x = np.abs(ritz.vector)
        ax = op(x)
        slack = (4.0 if gram else 2.0) * np.finfo(float).eps * ax.max()
        ends = [abs(ritz.value), np.min((ax - slack) / x), np.max((ax + slack) / x)]
    else:
        residual = float(np.linalg.norm(op(ritz.vector) - ritz.value * ritz.vector))
        value = ritz.value if gram else abs(ritz.value)
        ends = [value, value - residual]
    if gram:
        ends = [math.sqrt(max(t, 0.0)) for t in ends]
    ends = ends if perron else ends + [0.5]
    value, lower, upper = (0.5 if 0.5 < t <= NORM_CAP else float(t) for t in ends)
    return NormRecord(value, "perron" if perron else "lanczos", ritz.matvecs + 1, lower, upper)

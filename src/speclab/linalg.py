"""Linear-algebra kernel: operator norms, commutators, the Toeplitz FFT
product, and matrix-free Lanczos norms with their certificates.

Everything here is a pure function of its inputs and runs on numpy alone.
Matrices are plain numpy arrays (row-major), real or complex.  A dense norm
is one LAPACK solve with no fast paths; the Lanczos solver starts from a
fixed vector or from one its caller passes and takes its Ritz pairs from
numpy's symmetric eigensolver on its small tridiagonal, only on the steps
where a bound from Paige's identity does not rule out convergence (on the
whole operator, applied once to the identity, when that is no larger than
one Krylov cycle).  Its one loop runs one recurrence, or, for an operator
that commutes with the reversal x -> x[::-1], one per reflection sector in
lockstep on one product per step.  certified_norm, its one caller,
certifies every norm the package reports.  Nothing draws random numbers:
reruns are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first transform)

from ._errors import ComputationError, ContractError, integer_at_least


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


def _exact_norm(a: np.ndarray):
    """LAPACK-grade largest singular value of a matrix (a float), or of
    each matrix of a stack (..., M, N) (an array of shape (...)).  One
    stacked eigvalsh takes the exactly Hermitian matrices and one stacked
    gesdd the rest, of whose descending singular values the first is the
    norm: np.linalg.norm(a, 2) makes the same call and takes their max.
    numpy's stacked solves run LAPACK on each matrix as a lone call does, so
    a matrix's norm does not depend on the stack it came in."""
    stack = a.reshape((-1,) + a.shape[-2:])
    out = np.empty(len(stack))
    hermitian = np.zeros(len(stack), dtype=bool)
    if a.shape[-2] == a.shape[-1]:
        hermitian = (stack == stack.conj().swapaxes(1, 2)).all(axis=(1, 2))
    if hermitian.any():
        w = np.linalg.eigvalsh(stack[hermitian])
        out[hermitian] = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    if not hermitian.all():
        out[~hermitian] = np.linalg.svd(stack[~hermitian], compute_uv=False)[:, 0]
    return float(out[0]) if a.ndim == 2 else out.reshape(a.shape[:-2])


def operator_norm(a):
    """Largest singular value of a dense matrix, or of each matrix of a
    stack (..., M, N).

    One LAPACK solve with no fast paths: a Hermitian eigensolve when the
    input is exactly Hermitian, an SVD otherwise.  A 2-D input gives a
    float; a stack gives an array of shape (...), one stacked call per kind
    of solve, each norm bit for bit the one its matrix gives alone.  LAPACK
    returns exactly 0.0 for a zero matrix and max|d| for a real diagonal
    one.
    """
    A = np.asarray(a)
    if A.ndim < 2 or A.size == 0:
        raise ContractError(f"operator_norm needs a non-empty matrix or stack, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or (np.iscomplexobj(A) and not np.all(np.isfinite(A.imag))):
        raise ContractError("operator_norm: non-finite entries")
    return _exact_norm(A)


FACTOR_COST = 2.5  # the cost of a factor 3 or 5 of a transform length, in factors of 2


def fft_length(n: int) -> int:
    """The cheapest transform length L >= n >= 1 of the form 2^a 3^b 5^c
    that is no longer than the power of two 2^ceil(log2 n), by the cost
    model L (a + FACTOR_COST (b + c)); the shorter one on a tie.

    On one core, one rfft/irfft pair of numpy's pocketfft spends about as
    much per element on a factor 3 or 5 as on 2.5 factors of 2: lengths with
    many of them are slower than the power of two above them (972 = 2^2 3^5
    by 13% against 1024, 1000 = 2^3 5^3 by 9%), and the model picks neither.
    Just above a power of two it picks 5/4 of it (1280 for n = 1025), 28%
    faster than the 2048 the power of two would take.
    """
    power = 1 << (n - 1).bit_length()
    costs = []  # (cost, length) of each odd part 3^b 5^c's least length >= n
    p3, b = 1, 0
    while p3 <= power:
        odd, factors = p3, b
        while odd <= power:
            a = (-(-n // odd) - 1).bit_length()  # the least a with odd 2^a >= n
            size = odd << a
            if size <= power:
                costs.append((size * (a + FACTOR_COST * factors), size))
            odd, factors = 5 * odd, factors + 1
        p3, b = 3 * p3, b + 1
    return min(costs)[1]


def toeplitz_matvec(table: np.ndarray, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> T x for the m x m Toeplitz matrix T[i, j] = table[i - j + m - 1]
    (len(table) = 2m - 1), by one rfft/irfft pair of length
    fft_length(2m - 1): (T x)_i is entry i + m - 1 of the linear convolution
    of table with x, whose m - 1 entries past that length wrap onto entries
    0..m - 2, none of which is read.  x may be a 2-D block, each of whose
    rows is multiplied.
    """
    size = fft_length(2 * m - 1)
    t_hat = np.fft.rfft(table, size)
    return lambda x: np.fft.irfft(t_hat * np.fft.rfft(x, size), size)[..., m - 1 : 2 * m - 1]


LANCZOS_STEPS = 24   # Krylov dimension of one cycle
LANCZOS_CYCLES = 20  # cycles before lanczos_top gives up
LANCZOS_TOL = 4.0    # stop at residual bound <= LANCZOS_TOL * eps * |Ritz value|
PAIGE_SAFETY = 1e3   # a step skips its eigensolve when its bound clears the test this much
_SECTOR_SIGN = np.array([[1.0], [-1.0]])  # row 0 takes y + y[::-1] (even), row 1 y - y[::-1]


def _non_finite(m: int, step: int, cycle: int) -> ComputationError:
    """The error for a Lanczos step whose alpha or beta is not finite."""
    return ComputationError(f"lanczos_top: non-finite product at step {step} of cycle {cycle} "
                            f"(m = {m})")


def lanczos_top(matvec: Callable[[np.ndarray], np.ndarray], m: int,
                start: np.ndarray | None = None, mirror: bool = False) -> RitzPair:
    """Eigenvalue of largest modulus of a real symmetric m x m operator.

    At m <= LANCZOS_STEPS one cycle would span the whole space, so the
    operator is solved outright: ``matvec`` is applied once to the rows of
    the m x m identity (it must map each row of a 2-D block), numpy's
    symmetric eigensolver takes the result, and matvecs = m.  The start
    and ``mirror`` do not matter there.

    Otherwise explicitly restarted Lanczos (_lanczos_rows) on one
    recurrence, a "row", from ``start`` normalised (by default
    ones/sqrt(m)).  Lanczos only sees the invariant subspace its start
    generates, and an operator that commutes with the reversal
    x -> x[::-1] keeps an even start even.  ``mirror`` says the operator
    commutes with it.  Then two rows run in lockstep, one per reflection
    sector, from the even and the odd part of the start, each normalised
    (both must be nonzero).  Each step makes one call to ``matvec``, on the
    sum of the live rows' current vectors.  With ``mirror`` the product y
    is split exactly: the even row takes (y + y[::-1]) * 0.5 and the odd
    row (y - y[::-1]) * 0.5 (IEEE addition commutes).  The new vectors are
    reorthogonalised twice, together, against the cycle's basis of every
    live row: a gemv per product for one row, a gemm for two, where the
    other row's basis adds only rounding, being orthogonal by symmetry.
    That rounding leaves a row's vectors a small part in the other sector.
    The split keeps it out of the row's part of each product, and
    certified_norm certifies with the operator itself.  A lone mirror row's
    new vector is put back into its sector, (w +- w[::-1]) * 0.5, before it
    is normalised: with no split of a shared product, that part would grow
    about threefold per step (to 1.9e-12 in 10 steps on a 30 x 30 operator).

    Each row fills its own tridiagonal T, one entry per step, and stops as
    soon as the residual bound |beta_{j+1} s_j| of the Ritz pair of largest
    modulus of T's leading (j + 1) x (j + 1) block T_j is at most
    LANCZOS_TOL * eps * max_r |theta_r|, the largest top over the rows,
    stopped or live: the shared product leaves every row a rounding floor
    near eps max_r |theta_r|, so a sector whose top lies far below the
    other's could never pass the test at its own scale.  A stopped row
    leaves the product; a row still live at a cycle's last step restarts
    from its Ritz vector.  The result is the largest top (on a tie, the row
    that stopped first).  Each sector converges on the gap ratio of its own
    spectrum, not on the gap between the two sector tops, so two rows take
    fewer products than one row from a start with a part in both (ring
    K = 200, a = 0: 11 against 17).  An invariant Krylov space
    (beta_j = 0) passes the test, so a start that is an eigenvector takes
    one matvec.

    The live rows' T_j go to numpy's symmetric eigensolver, stacked, on a
    cycle's last step and on every step where some row's test might pass.
    Paige's identity says when it cannot (Paige 1971; Parlett, The
    Symmetric Eigenvalue Problem, ch. 7).  For the unreduced T_j, with
    eigenpairs (theta_i, s_i), |s_0i s_ji| prod_{l != i} |theta_i - theta_l|
    = beta_1 ... beta_j.  Let [lo, hi] be the Gershgorin hull of T's first
    j + 1 rows; row j's disc is final once beta_{j+1} is known.  Every
    theta_i lies in the hull, so |theta| <= max(|lo|, |hi|) and
    |beta_{j+1} s_j| >= beta_1 ... beta_{j+1} / (hi - lo)^j.  The step skips
    the eigensolve when on every live row that bound exceeds PAIGE_SAFETY
    times LANCZOS_TOL * eps * h, with h the largest max(|lo|, |hi|) of the
    live rows and |theta| of the stopped ones.  The margin covers LAPACK's
    absolute error c eps ||T_j|| / gap in the computed s_j for any c below
    about 8000: the identity with one |theta_i - theta_l| at the gap gives
    |s_j| >= bound (hi - lo) / (beta_{j+1} gap), and hi - lo >= 2 beta_{j+1}.
    (At j = 0 the bound is the test itself: T_0 = [alpha_0] and s_0 = 1.)
    The hull is widened by 4 eps max(|lo|, |hi|) for the rounding of its
    ends.  The bound costs O(1) Python floats per row and step, with the
    betas kept as a running sum of logs so that nothing underflows.
    Neither T nor the basis depends on an eigensolve, so the result is bit
    for bit that of solving on every step.

    matvecs counts the calls to ``matvec``.  A given start gives a
    bit-reproducible result.  Raises ComputationError on a product that is
    not finite, and if LANCZOS_CYCLES cycles do not converge.
    """
    m = integer_at_least("lanczos_top: m", m, 1)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (m,) or not np.linalg.norm(start) > 0.0:
            raise ContractError(f"lanczos_top needs a nonzero start of length {m}")
    if m <= LANCZOS_STEPS:
        product = matvec(np.eye(m))
        if not np.isfinite(product).all():
            raise ComputationError(
                f"lanczos_top: non-finite product in the one-shot solve (m = {m})"
            )
        theta, s = np.linalg.eigh(product, UPLO="L")
        top = int(np.argmax(np.abs(theta)))
        return RitzPair(float(theta[top]), s[:, top], m)
    start = np.full(m, 1.0 / math.sqrt(m)) if start is None else start / np.linalg.norm(start)
    starts = [start]
    if mirror:
        starts = [start + start[::-1], start - start[::-1]]  # twice its even and odd parts
        norms = [np.linalg.norm(x) for x in starts]
        if not min(norms) > 0.0:
            raise ContractError("lanczos_top needs a start with a part in each reflection sector")
        starts = [x / norm for x, norm in zip(starts, norms)]
    return _lanczos_rows(matvec, m, starts, mirror)


def _lanczos_rows(matvec: Callable[[np.ndarray], np.ndarray], m: int,
                  starts: list, mirror: bool) -> RitzPair:
    """lanczos_top's Lanczos loop for m > LANCZOS_STEPS: one row per unit
    start of ``starts``, which with ``mirror`` are the even and the odd
    row's."""
    eps = float(np.finfo(float).eps)
    log_floor = math.log(PAIGE_SAFETY * LANCZOS_TOL * eps)
    rows = len(starts)
    basis = np.empty((LANCZOS_STEPS, rows, m))  # step-major: basis[: j + 1] spans every row's space
    tri = np.zeros((rows, LANCZOS_STEPS, LANCZOS_STEPS))  # lower: alpha on the diagonal, beta below
    best, found_top = None, 0.0  # (theta, Ritz vector) of the stopped row of largest |theta|
    first, last = 0, rows  # the live rows: a row that stops is an end row
    matvecs = 0
    for cycle in range(LANCZOS_CYCLES):
        # per row: beta_j, the sum of log beta_l for l <= j, and the hull [lo, hi]
        state = [(0.0, 0.0, math.inf, -math.inf)] * rows
        basis[0, first:last] = starts[first:last]
        for j in range(LANCZOS_STEPS):
            one = last - first == 1  # one live row steps a vector, two a 2-row block
            v = basis[j, first] if one else basis[j]
            y = matvec(v if one else v[0] + v[1])
            matvecs += 1
            if mirror:
                if not np.isfinite(y).all():  # checked before the split subtracts inf
                    raise _non_finite(m, j, cycle)
                y = (y + _SECTOR_SIGN[first:last] * y[::-1]) * 0.5  # each live row's part
                y = y[0] if one else y
            # v[i] @ y[i], not finite if an entry of y[i] is not
            alphas = [float(v @ y)] if one else np.vecdot(v, y).tolist()
            if not math.isfinite(sum(alphas)):  # the sum is finite only if each alpha is
                raise _non_finite(m, j, cycle)
            q = basis[: j + 1, first] if one else basis[: j + 1].reshape(-1, m)
            y = y - (y @ q.T) @ q  # a gemv per product for one row, a gemm for two
            y -= (y @ q.T) @ q  # twice is enough (Kahan-Parlett)
            if one and mirror:  # back into the row's sector, out of which its basis's rounding leaks
                y = (y + _SECTOR_SIGN[first, 0] * y[::-1]) * 0.5
            betas = [math.sqrt(y @ y)] if one else np.sqrt(np.vecdot(y, y)).tolist()
            if not math.isfinite(sum(betas)):
                raise _non_finite(m, j, cycle)
            solve = j == LANCZOS_STEPS - 1
            ceiling, lowest = found_top, math.inf  # the largest hull end, the smallest bound
            for i in range(last - first):
                r, alpha, beta = first + i, alphas[i], betas[i]
                tri[r, j, j] = alpha
                above, log_betas, lo, hi = state[r]
                lo, hi = min(lo, alpha - above - beta), max(hi, alpha + above + beta)
                big = max(-lo, hi)  # max(|lo|, |hi|), as lo <= hi
                if big > ceiling:
                    ceiling = big
                if beta > 0.0:
                    log_betas += math.log(beta)
                    width = hi - lo + 4.0 * eps * big
                    bound = log_betas - j * math.log(width)
                    if bound < lowest:
                        lowest = bound
                    if j + 1 < LANCZOS_STEPS:
                        np.divide(y if one else y[i], beta, out=basis[j + 1, r])
                        tri[r, j + 1, j] = beta
                else:  # an invariant space passes the test
                    solve = True
                state[r] = (beta, log_betas, lo, hi)
            if not (solve or not lowest > log_floor + math.log(ceiling)):
                continue  # Paige's bound rules the stopping test out on every row
            theta, s = np.linalg.eigh(tri[first:last, : j + 1, : j + 1], UPLO="L")
            thetas = theta.tolist()
            # np.argmax of |theta| per row: theta ascends, so its first maximum
            # is theta[0] or the first copy of theta[-1]
            tops = [0 if -t[0] >= t[-1] else t.index(t[-1]) for t in thetas]
            floor = LANCZOS_TOL * eps * max([found_top] + [abs(t[i]) for t, i in zip(thetas, tops)])
            for i, (r, top) in enumerate(zip(range(first, last), tops)):
                if abs(state[r][0] * s[i, j, top]) <= floor:
                    if best is None or abs(thetas[i][top]) > found_top:
                        best = (thetas[i][top], s[i, :, top] @ basis[: j + 1, r])
                        found_top = abs(best[0])
                    first, last = (first + 1, last) if r == first else (first, last - 1)
                elif j == LANCZOS_STEPS - 1:
                    starts[r] = s[i, :, top] @ basis[:, r]
                    starts[r] /= np.linalg.norm(starts[r])
            if first == last:
                return RitzPair(*best, matvecs)
    raise ComputationError(
        f"Lanczos did not converge in {LANCZOS_CYCLES} cycles of {LANCZOS_STEPS} steps "
        f"(m = {m})"
    )


NORM_CAP = 0.5 + 1e-9  # no projection commutator or Hankel section exceeds 1/2
FFT_ALLOWANCE = 5.0  # a Perron ratio's widening, in eps max(Ax), for one FFT product
GRAM_ALLOWANCE = 10.0  # and for a Gram operator of two


def certified_norm(op: Callable[[np.ndarray], np.ndarray] | None, m: int,
                   start: np.ndarray | None = None, gram: bool = False,
                   perron: bool = False, mirror: bool = False) -> NormRecord:
    """Norm of a real symmetric m x m operator ``op`` (bounded by 1/2:
    Nehari's bound for a Hankel section, the bound on a commutator of two
    projections otherwise) with its certificate: one lanczos_top run from
    ``start``, then one more product, counted in matvecs.  ``mirror``: op
    commutes with x -> x[::-1], and lanczos_top runs both reflection
    sectors in lockstep from the two parts of ``start``; the larger sector
    top is certified below with a product of op itself, not of a sector's
    part of it, so the record holds whatever rounding leaks between the
    sectors.

    ``perron``: op is entrywise >= 0, and for x = |Ritz vector| the
    Collatz-Wielandt ratios (Ax)_i/x_i bracket its top eigenvalue, each
    widened by k eps max(Ax)/x_i for the FFT's rounding, k = FFT_ALLOWANCE
    = 5 for one product and GRAM_ALLOWANCE = 10 for a Gram operator of two.
    That is an allowance measured, not a proven bound.  Against long double,
    at the ends and the middle of the m-range of every length fft_length
    picks for m <= 2^14, and at 450 more m, for x = 1/sqrt(i) and for the
    Ritz vector's modulus, the half-circle odd block's product C x was off
    by at most 2.85 eps max(C x) in any entry (m = 13392, length
    27648 = 2^10 3^3), and the SE(2) Gram C C^T x by 5.34 eps
    max(C C^T x) (m = 5183, length 10368 = 2^7 3^4); at the powers of two
    alone, 1.06 and 1.60 eps.  Otherwise "lanczos": some
    eigenvalue lies within r = ||Ax - theta x|| of the Ritz value theta, so
    the ends are |theta| - r and 1/2.  ``gram``: op is B^T B or B B^T and
    the record is ||B||, square roots of the value and computed ends (a
    "lanczos" upper end stays 1/2).  A value or end in (1/2, NORM_CAP] is
    rounding (one ulp at Heisenberg's norm-1/2 points) and is clipped to
    1/2.  A value past NORM_CAP breaks the bound, so it raises
    ComputationError, never clipped into a false certificate: no norm the
    package reports, commutator or Hankel row, exceeds NORM_CAP.  m = 0, a
    block with no rows or columns, gives NormRecord(0.0, "lanczos", 0, 0.0,
    0.5).
    """
    if m == 0:
        return NormRecord(0.0, "lanczos", 0, 0.0, 0.5)
    ritz = lanczos_top(op, m, start, mirror)
    if perron:
        x = np.abs(ritz.vector)
        ax = op(x)
        slack = (GRAM_ALLOWANCE if gram else FFT_ALLOWANCE) * np.finfo(float).eps * ax.max()
        ends = [abs(ritz.value), np.min((ax - slack) / x), np.max((ax + slack) / x)]
    else:
        residual = float(np.linalg.norm(op(ritz.vector) - ritz.value * ritz.vector))
        value = ritz.value if gram else abs(ritz.value)
        ends = [value, value - residual]
    if gram:
        ends = [math.sqrt(max(t, 0.0)) for t in ends]
    ends = ends if perron else ends + [0.5]
    value, lower, upper = (0.5 if 0.5 < t <= NORM_CAP else float(t) for t in ends)
    if value > NORM_CAP:
        raise ComputationError(f"certified_norm: norm {value} violates the 1/2 bound (m = {m})")
    return NormRecord(value, "perron" if perron else "lanczos", ritz.matvecs + 1, lower, upper)

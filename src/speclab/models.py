"""The commutator families: SU(2) spin, ring, finite Heisenberg, SE(2)/line.

Every family is a commutator [P, D] of a Hermitian P with a diagonal 0/1
projection D, so its matrix, entry (k, l) = P_kl * (d_l - d_k), is block
off-diagonal and its norm is that of the block B = P[in, out].  Each builder
returns a CommutatorReport holding just that: the norm record of B, found
matrix-free, D's range as a bool mask, P as a callable and model-specific
diagnostics; the matrix, the block and its block-structure residual are
formed from them on first read, the same way for every family.  FAMILIES
maps each family name to its builder, the thresholds it reads and its basis
labels.  Every norm is linalg.certified_norm's: for SU(2), ring and
Heisenberg on a Gram operator of B, from a start with no reflection
symmetry.  For SU(2) that is B B^T on the in side, P = V V^T for the kept
J_x eigenvectors V, applied through V_in, a view of the cached
eigenvectors; for ring and Heisenberg it is B^T B on the out side with P
applied by FFT (a convolution with the table of Fourier coefficients, or
the circulant of the DFT-conjugated arc projection), and it commutes with
the reversal of the out side, so the solve runs both reflection sectors in
lockstep.  SE(2)'s block is a section of the half-circle Hankel matrix,
so its norm and Perron certificate come from the Hankel odd-block kernel
(hankel._odd_block_record).  No family forms an n x n or K x K array or
makes a dense O(n^3) solve for a norm.  Circle-grid membership tests
(which grid points lie on the open arc Re z > a) run on exact integers when
a = 0, where cos(2*pi*k/n) = 0 exactly at the quarter points and the strict
inequality must exclude them; at a != 0 one cosine decides each mirror pair
k, -k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from ._errors import ComputationError, ContractError, integer, integer_at_least, threshold
from .hankel import HALF_CIRCLE, ArcSymbol, _coeff_grid, _odd_block_record
from .linalg import NormRecord, certified_norm, toeplitz_matvec
from .spinrep import (
    SpinRep,
    _kept_vectors,
    projection_x,
    weights_exceeding,
    z_interval_mask,
)


@dataclass
class CommutatorReport:
    """One commutator [P, D]: its norm record, P, D's range and diagnostics.

    ``inside`` is D's range as a bool mask and ``projection`` returns the
    dense P.  ``matrix``, ``block`` and ``block_check`` are formed from them
    on first read, the same way for every family, so no norm forms them.
    The record is certified_norm's, which refuses a norm past the 1/2
    bound, so a report is never built with one.
    """

    family: str
    params: dict
    record: NormRecord
    inside: np.ndarray = field(repr=False, compare=False)
    projection: Callable[[], np.ndarray] = field(repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    @property
    def norm(self) -> float:
        return self.record.value

    @cached_property
    def matrix(self) -> np.ndarray:
        return _masked(self.projection(), self.inside.astype(float))

    @cached_property
    def block(self) -> np.ndarray:
        """matrix[out, in]: d_l - d_k is exactly 1 there, so these are P's
        own entries, and its norm is the one the record certifies."""
        return self.matrix[~self.inside][:, self.inside]

    @cached_property
    def block_check(self) -> float:
        """Largest entry of the matrix off its block off-diagonal form."""
        return _block_residual(self.matrix, self.inside)


def _masked(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The commutator [P, diag d] as the masked product P_kl * (d_l - d_k)."""
    return p * (d[None, :] - d[:, None])


@lru_cache(maxsize=64)
def _asymmetric_start(m: int) -> np.ndarray:
    """The start of every Gram norm here, cached per m and read-only: for
    m >= 2 both its even and its odd part under x -> x[::-1] are nonzero.
    P and D often share a reflection (k -> -k on the ring's modes, m -> -m
    mod n on Heisenberg's sites), and then B^T B commutes with the reversal
    on the out side: from an even start Lanczos never sees an odd
    eigenvector, and can converge, with a tiny residual, to the top even
    eigenvalue below an odd top.  Ring and Heisenberg start one recurrence
    from each part (_fourier_norm); SU(2) runs one from the whole vector."""
    x = 1.0 + 0.5 * np.linspace(-1.0, 1.0, m) + 0.1 * np.cos(1.234 * np.arange(m))
    x.setflags(write=False)
    return x


def _fourier_norm(apply: Callable, inside: np.ndarray) -> NormRecord:
    """||P[in, out]|| for P real symmetric, applied to a whole real vector
    (or to each row of a block) by ``apply``, and ``inside`` the bool mask
    of D's range: certified_norm of the Gram operator on the out side, where
    with B = P[in, out] B^T B x is apply(inside * apply(x on out))[out].

    P commutes with the reflection of the indices (ring: P is symmetric
    Toeplitz in k - l with an even symbol, k -> -k; Heisenberg: P is the
    circulant of an even row, m -> -m mod n) and the in/out masks are
    mirror-symmetric, so B^T B commutes with the reversal of the out side.
    Its spectrum is the union of the two reflection sectors', and the norm
    is the larger sector top: certified_norm runs one Lanczos recurrence per
    sector (mirror), both fed by one Gram product per step, from the even
    and the odd part of _asymmetric_start.  Each sector converges on its own
    gap ratio, not on the gap between the two sector tops."""
    out = np.flatnonzero(~inside)

    def gram(x):
        v = np.zeros(x.shape[:-1] + (len(inside),))
        v[..., out] = x
        return apply(apply(v) * inside)[..., out]

    return certified_norm(gram, len(out), _asymmetric_start(len(out)), gram=True, mirror=True)


def _su2_norm(v: np.ndarray, inside: np.ndarray) -> NormRecord:
    """||[V V^T, D]|| for orthonormal columns V (n x k) and the 0/1 diagonal
    D whose range is the rows ``inside``, one run of rows, without forming
    V V^T: certified_norm of the Gram operator on the in side.

    The norm is that of B = V_in V_out^T.  With C = V_in^T V_in,
    V_out^T V_out is I - C, so B B^T = V_in (I - C) V_in^T: x -> V_in(y - C y)
    with y = V_in^T x, four products with V_in.  V_in is a slice of V's rows,
    so a view of V when V is one.  Exactly 0.0 when k = 0 or either side of
    D is empty.
    """
    rows = np.flatnonzero(inside)
    if not v.shape[1] or len(rows) in (0, len(inside)):
        return certified_norm(None, 0)
    v_in = v[rows[0] : rows[-1] + 1]
    if len(v_in) != len(rows):
        raise ComputationError("su2: the range of D is not one run of rows")

    def gram(x):
        y = x @ v_in
        return (y - (y @ v_in.T) @ v_in) @ v_in.T

    return certified_norm(gram, len(rows), _asymmetric_start(len(rows)), gram=True)


def _block_residual(c: np.ndarray, rows: np.ndarray) -> float:
    """Largest entry of c off the block form [[0, B], [-B^T, 0]], where B is
    c[rows, ~rows] and ``rows`` is a bool mask."""
    same = rows[:, None] == rows[None, :]  # the diagonal blocks, which must vanish
    return float(np.max(np.abs(np.where(same, c, c + c.T))))


# ---------------------------------------------------------------------------
# SU(2)
# ---------------------------------------------------------------------------

def _su2_report(family: str, params: dict, rep: SpinRep, a: float,
                inside: np.ndarray) -> CommutatorReport:
    """The report of every SU(2) family: the J_x projection above
    a*(j+1/2) against the diagonal projection whose range is ``inside``;
    _kept_vectors refuses an a outside [0, 1) before any eigensystem is
    built."""
    return CommutatorReport(
        family,
        params,
        _su2_norm(_kept_vectors(rep, a, family), inside),
        inside,
        lambda: projection_x(rep, a),
    )


def su2_commutator(n: int, a: float = 0.0, b: float = 1.0) -> CommutatorReport:
    """Commutator of the J_x projection above a*(j+1/2) with the J_z
    projection onto (0, b*(j+1/2)]."""
    rep = SpinRep(n)
    family = "su2" if a == 0.0 and b == 1.0 else "su2_interval"
    return _su2_report(family, {"n": rep.n, "a": a, "b": b}, rep, a, z_interval_mask(rep, b))


def su2_caps_commutator(n: int, a: float) -> CommutatorReport:
    """Commutator with both projections thresholded at a*(j+1/2).

    This is the family whose norm profile changes character as a crosses
    1/sqrt(2) (both caps shrink together).  An a outside [0, 1) is a
    ContractError, checked here before weights_exceeding, whose exact
    rational threshold cannot hold nan or inf.
    """
    rep = SpinRep(n)
    threshold("su2_caps_commutator: a", a)
    params = {"n": rep.n, "a": a, "b": a}  # both projections thresholded at a
    return _su2_report("su2_caps", params, rep, a, weights_exceeding(rep.twice, a, rep.n))


def su2_submatrix(n: int, size: int) -> np.ndarray:
    """The N x N corner extraction of the plain SU(2) projection data.

    Entries are P_{m',m} with m' = k, m = 1 - l on odd dimensions and
    m' = k - 1/2, m = 1/2 - l on even ones (k, l = 1..N); requires j > N.
    The entries converge entrywise to the half-circle Hankel truncation.
    """
    rep = SpinRep(n)
    size = integer_at_least("su2_submatrix: size", size, 1)
    if rep.j.twice <= 2 * size:
        raise ContractError(f"su2_submatrix requires j > N, got j = {rep.j}, N = {size}")
    half = 1 - n % 2  # even dimensions sit half a step lower
    k = np.arange(1, size + 1)
    # rows j - m' at m' = k - half/2 and columns j - m at m = 1 - l - half/2, k, l = 1..N
    rows, cols = (n - 1 - 2 * k + half) // 2, (n - 3 + 2 * k + half) // 2
    # the rows lie in the top half; the columns (m <= 0) in the bottom half
    # or on the middle row, and _kept_vectors mirrors bottom rows from Q
    vs, below = (_kept_vectors(rep, 0.0, "su2_submatrix", idx) for idx in (rows, cols))
    return vs @ below.T


# ---------------------------------------------------------------------------
# circle-grid membership
# ---------------------------------------------------------------------------

def grid_in_arc(k: int, n: int, a: float = 0.0) -> bool:
    """Whether the grid point exp(2*pi*i*k/n) lies on the open arc Re z > a.

    At a = 0 the test is pure integer arithmetic on 4k mod 4n, so points with
    Re z exactly zero are excluded the way a strict inequality demands.  At
    a != 0 both points of a mirror pair k, -k share one cosine, of the
    reduced index min(r, n - r) with r = k mod n, so the arc is symmetric.
    A k that is not an integer (2.5, True) or an a outside [0, 1) is a
    ContractError.
    """
    k = integer("grid_in_arc: k", k)
    n = integer_at_least("grid_in_arc: n", n, 1)
    threshold("grid_in_arc: a", a)
    if a == 0.0:
        r = (4 * k) % (4 * n)
        return r < n or r > 3 * n
    r = k % n
    return math.cos(2 * math.pi * min(r, n - r) / n) > a


def _arc_membership(ks, n: int, a: float) -> np.ndarray:
    """1.0 where the grid point exp(2*pi*i*k/n) lies on the arc Re z > a,
    else 0.0: grid_in_arc on the array of reduced indices i = min(r, n - r),
    r = k mod n, as 4 i < n at a = 0 and cos(2 pi i / n) > a otherwise."""
    r = np.asarray(ks, dtype=np.int64) % n
    i = np.minimum(r, n - r)
    return (4 * i < n if a == 0.0 else np.cos(2 * math.pi * i / n) > a).astype(float)


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------

def ring_commutator(n: int, window: int, a: float = 0.0) -> CommutatorReport:
    """Ring commutator on the Fourier modes -K..K.

    Entry (k, l) is (ind(l) - ind(k)) * coeff(k - l), where ind marks grid
    points exp(2*pi*i*k/n) on the arc Re z > a (the right half-circle at
    a = 0) and coeff is the arc indicator's Fourier coefficient.
    """
    n = integer_at_least("ring_commutator: n", n, 2)
    window = integer_at_least("ring_commutator: window", window, 1)
    sym = ArcSymbol(a)
    ks = np.arange(-window, window + 1, dtype=np.int64)
    inside = _arc_membership(ks, n, a) != 0.0
    # one table of coeff over the lags -2K..2K, gathered for the matrix and
    # applied as its Toeplitz product (m = 2K + 1) for the norm
    table = _coeff_grid(sym, np.arange(-2 * window, 2 * window + 1))
    return CommutatorReport(
        "ring",
        {"n": n, "K": window, "a": a},
        _fourier_norm(toeplitz_matvec(table, 2 * window + 1), inside),
        inside,
        lambda: table[np.subtract.outer(ks, ks) + 2 * window],  # P[k, l] = coeff(k - l)
    )


def _designated(name: str, n: int, size: int):
    """Rows ceil(n/4) - k and columns ceil(n/4) + l - 1 (k, l = 1..N) of the
    designated N x N window; requires N >= 1 and n > 4N."""
    size = integer_at_least(f"{name}: size", size, 1)
    n = integer_at_least(f"{name}: n (> 4N)", n, 4 * size + 1)
    q = -(-n // 4)  # ceil(n/4)
    return q - np.arange(1, size + 1, dtype=np.int64), q + np.arange(size, dtype=np.int64)


def ring_submatrix(n: int, size: int, a: float = 0.0) -> np.ndarray:
    """Designated N x N extraction at rows ceil(n/4) - k, columns
    ceil(n/4) + l - 1 (k, l = 1..N); requires n > 4N.

    For a = 0 this equals minus the Hankel truncation exactly (identical
    formula evaluation, not merely to roundoff).
    """
    rows, cols = _designated("ring_submatrix", n, size)
    t = _coeff_grid(ArcSymbol(a), np.subtract.outer(rows, cols))
    return (_arc_membership(cols, n, a)[None, :] - _arc_membership(rows, n, a)[:, None]) * t


# ---------------------------------------------------------------------------
# finite Heisenberg
# ---------------------------------------------------------------------------

def _heis_pairing_table(memb: np.ndarray, ps=None) -> np.ndarray:
    """Discretized pairings (1/n) * sum over the arc's grid points m of
    exp(-2*pi*i*p*m/n) for an array of differences ps, given the arc
    membership ``memb`` of the sites 0..n-1; by default for every
    p = -(n-1)..(n-1) (entry p + n - 1).

    The arc's grid points are the run m = -h..h (mod n) of L = 2h + 1
    points centred on 0, so the sum is the real Dirichlet kernel
    sin(pi*q*L/n) / (n * sin(pi*q/n)), and L/n at q = 0.  It is even in p
    and, L being odd, unchanged by q -> n - q, so q = min(p mod n, -p mod n)
    <= n/2 serves both signs of p and the row is mirror-symmetric bit for
    bit.  The integer product q*L is reduced mod 2n before scaling.
    O(n + len(ps)) time and memory; raises ComputationError if the
    membership is not the run {min(m, n - m) <= h}.
    """
    memb = np.asarray(memb) != 0
    n = len(memb)
    ps = np.arange(-(n - 1), n, dtype=np.int64) if ps is None else np.asarray(ps, dtype=np.int64)
    length = int(np.count_nonzero(memb))
    grid = np.arange(n)
    if not np.array_equal(memb, np.minimum(grid, n - grid) <= (length - 1) // 2):
        raise ComputationError(f"heisenberg: the arc at n = {n} is not one run centred on 0")
    q = np.minimum(ps % n, -ps % n)
    top = (q * length) % (2 * n)
    num = np.where(top % n == 0, 0.0, np.sin(math.pi * top / n))
    den = n * np.sin(math.pi * q / n)
    return np.where(q == 0, length / n, num / np.where(q == 0, 1.0, den))


def _heis_apply(memb: np.ndarray) -> Callable:
    """x -> P x for the DFT conjugation P = F^* diag(memb) F (F the unitary
    DFT) on real x, as one rfft/irfft pair.  P is real because memb is
    symmetric under m -> -m mod n (grid_in_arc decides each mirror pair
    once); the row check in heisenberg_commutator certifies it."""
    n = len(memb)
    half = memb[: n // 2 + 1]
    return lambda x: np.fft.irfft(half * np.fft.rfft(x), n)


def _heis_row_check(memb: np.ndarray, row: np.ndarray, apply: Callable) -> float:
    """How far the operator the solver applies is from the closed form: the
    largest of |fft(memb)[p] / n - row[p]| over every lag p = 0..n-1 (the
    DFT conjugation's circulant row against the closed-form row) and of
    |(P x)_j - sum_k row[(k - j) mod n] x_k| for one fixed unit vector x at
    a fixed set of rows j."""
    n = len(memb)
    grid = np.arange(n)
    residual = np.max(np.abs(np.fft.fft(memb) / n - row))
    x = _asymmetric_start(n)
    x = x / np.linalg.norm(x)
    rows = np.linspace(0, n - 1, 9).astype(np.int64)  # repeats at n < 9 change no max
    direct = row[(grid[None, :] - rows[:, None]) % n] @ x
    return float(max(residual, np.max(np.abs(apply(x)[rows] - direct))))


def heisenberg_commutator(n: int, a: float = 0.0) -> CommutatorReport:
    """Commutator of the two arc projections (Re z > a; half-circles at
    a = 0) of the finite Heisenberg pair (cyclic shift and modulation),
    conjugate under the unitary DFT.

    The projection for the shift operator is the DFT conjugation of the
    diagonal one, applied with FFTs; its matrix is the real circulant of the
    closed-form pairing sums.  The operator the norm solve applies is
    checked against them (heisenberg_closed_form_residual checks the whole
    matrix); the residual is kept in diagnostics.
    """
    n = integer_at_least("heisenberg_commutator: n", n, 2)
    threshold("heisenberg_commutator: a", a)
    memb = _arc_membership(range(n), n, a)
    grid = np.arange(n)
    # P is the real circulant with entry (j, k) = row[(k - j) mod n]
    row = _heis_pairing_table(memb, grid)
    apply = _heis_apply(memb)
    residual = _heis_row_check(memb, row, apply)
    if residual > 1e-12:
        raise ComputationError(
            f"heisenberg closed form disagrees with the operator construction: {residual}"
        )
    inside = memb != 0.0
    return CommutatorReport(
        "heisenberg",
        {"n": n, "a": a},
        _fourier_norm(apply, inside),
        inside,
        lambda: row[(grid[None, :] - grid[:, None]) % n],
        {"closed_form_residual": residual},
    )


def heisenberg_closed_form_residual(report: CommutatorReport) -> float:
    """Largest entry of E^* C E minus the closed form (ind(k) - ind(l)) *
    pairing(k - l), over the whole n x n matrix C of a heisenberg_commutator
    report in the shift-operator eigenbasis (E_jk = exp(2*pi*i*j*k/n) /
    sqrt(n), applied as two FFTs)."""
    n, a = report.params["n"], report.params["a"]
    memb = _arc_membership(range(n), n, a)
    c_e = np.fft.ifft(np.fft.fft(report.matrix, axis=0, norm="ortho"), axis=1, norm="ortho")
    grid = np.arange(n)
    lag = np.subtract.outer(grid, grid)  # lag[j, k] = j - k
    closed = (memb[:, None] - memb[None, :]) * _heis_pairing_table(memb)[lag + (n - 1)]
    return float(np.max(np.abs(c_e - closed)))


def heisenberg_submatrix(n: int, size: int, a: float = 0.0) -> np.ndarray:
    """Designated N x N extraction of the Heisenberg commutator matrix
    elements, rows ceil(n/4) - k and columns ceil(n/4) + l - 1; needs n > 4N.

    Entries converge to the arc-symbol Hankel truncation as n grows.
    """
    threshold("heisenberg_submatrix: a", a)
    rows, cols = _designated("heisenberg_submatrix", n, size)
    memb = _arc_membership(range(n), n, a)
    pairing = _heis_pairing_table(memb, np.subtract.outer(rows, cols))
    return (memb[rows][:, None] - memb[cols][None, :]) * pairing


# ---------------------------------------------------------------------------
# SE(2) / line
# ---------------------------------------------------------------------------

def se2_commutator(window: int) -> CommutatorReport:
    """Commutator of half-circle multiplication with the Hardy projection on
    Fourier modes -K..K.

    Decomposes exactly into a Hankel block and minus its adjoint; the same
    operator realizes the line position/momentum commutator numerically.
    The report's block with rows flipped to the 1-based Hankel indexing,
    block[::-1], is the K x (K + 1) section of the half-circle Hankel
    matrix, whose norm and Perron certificate come from the Hankel
    odd-block kernel (hankel._odd_block_record).
    """
    window = integer_at_least("se2_commutator: window", window, 1)
    ks = np.arange(-window, window + 1, dtype=np.int64)
    return CommutatorReport(
        "se2",
        {"K": window},
        _odd_block_record(window, window + 1),
        ks >= 0,
        lambda: _coeff_grid(HALF_CIRCLE, np.subtract.outer(ks, ks)),  # P[k, l] = coeff(k - l)
    )


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One commutator family as a sweep sees it: ``build(n, a, b)`` at sweep
    size n (the Fourier window K = n for ring, the window itself for se2),
    the thresholds it ``reads`` ("ab", "a" or ""), ``labels(n)``, the basis
    of the built matrix in order, and ``min_n``, the smallest n it builds."""

    build: Callable[[int, float, float], CommutatorReport]
    reads: str
    labels: Callable[[int], list]
    min_n: int


def _weights(n: int) -> list:
    return [(n - 1 - 2 * i) / 2.0 for i in range(n)]


def _modes(n: int) -> list:
    return list(range(-n, n + 1))


def _sites(n: int) -> list:
    return list(range(n))


# lambdas look the builders up by name at call time, so a wrapper installed
# on a module attribute sees every call
FAMILIES = {
    "su2": Family(lambda n, a, b: su2_commutator(n, a, b), "ab", _weights, 2),
    "su2_interval": Family(lambda n, a, b: su2_commutator(n, a, b), "ab", _weights, 2),
    "su2_caps": Family(lambda n, a, b: su2_caps_commutator(n, a), "a", _weights, 2),
    "ring": Family(lambda n, a, b: ring_commutator(n, n, a), "a", _modes, 2),
    "heisenberg": Family(lambda n, a, b: heisenberg_commutator(n, a), "a", _sites, 2),
    "se2": Family(lambda n, a, b: se2_commutator(n), "", _modes, 1),
}


# ---------------------------------------------------------------------------
# extremal vectors
# ---------------------------------------------------------------------------

@dataclass
class ExtremalVector:
    """Unit vector achieving the extremal singular value of a commutator."""

    coefficients: np.ndarray
    value: float
    which: str
    gap: float
    degenerate: bool


def extremal_vector(source, which: str = "max") -> ExtremalVector:
    """Extremal eigenvector of a commutator matrix, in basis order.

    Commutators of orthogonal projections are skew-adjoint, so i*C is
    Hermitian with a symmetric spectrum; ``which`` picks the top or bottom
    eigenvalue (both have magnitude equal to the operator norm).  A gap below
    1e-10 to the neighboring eigenvalue is flagged as degenerate.
    """
    if which not in ("max", "min"):
        raise ContractError(f"which must be 'max' or 'min', got {which!r}")
    mat = source.matrix if isinstance(source, CommutatorReport) else np.asarray(source)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ContractError("extremal_vector needs a non-empty square commutator matrix")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if float(np.max(np.abs(mat + mat.conj().T))) > 1e-10 * scale:
        raise ContractError("extremal_vector expects a skew-adjoint commutator matrix")
    evals, evecs = np.linalg.eigh(1j * mat)
    end, next_in = (-1, -2) if which == "max" else (0, 1)
    gap = float(abs(evals[end] - evals[next_in])) if len(evals) > 1 else math.inf
    return ExtremalVector(
        coefficients=evecs[:, end],
        value=float(abs(evals[end])),
        which=which,
        gap=gap,
        degenerate=gap < 1e-10,
    )

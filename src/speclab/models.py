"""The commutator families: SU(2) spin, ring, finite Heisenberg, SE(2)/line.

Each builder returns a CommutatorReport bundling the commutator's norm
record, the matrix on demand, and model-specific diagnostics; FAMILIES maps
each family name to its builder, the thresholds it reads and its basis
labels.  Every family is a commutator [P, D] of a Hermitian P with a
diagonal 0/1 projection D, reported by one helper whose norm is that of the
block B = P[in, out], matrix-free: one Lanczos run, from a start with no
reflection symmetry, on a Gram operator of B.  For SU(2) that is B B^T on
the in side, P = V V^T for the kept J_x eigenvectors V, applied through
V_in, a view of the cached eigenvectors; for ring, SE(2) and Heisenberg it
is B^T B on the out side with P applied by FFT (a convolution with the
table of Fourier coefficients, or the circulant of the DFT-conjugated arc
projection).  No family forms an n x n or K x K array or makes a dense
O(n^3) solve for a norm.  Circle-grid membership tests (which grid points
lie on the open arc Re z > a) run on exact integers when a = 0, where
cos(2*pi*k/n) = 0 exactly at the quarter points and the strict inequality
must exclude them; at a != 0 one cosine decides each mirror pair k, -k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from ._errors import ComputationError, ContractError
from .hankel import HALF_CIRCLE, ArcSymbol, _coeff_grid
from .linalg import NormRecord, lanczos_top, toeplitz_matvec
from .spinrep import (
    SpinRep,
    _kept_vectors,
    projection_x,
    weights_exceeding,
    z_interval_mask,
)

NORM_CAP = 0.5 + 1e-9  # projection commutators cannot exceed 1/2


@dataclass
class CommutatorReport:
    """Result of building one commutator: norm record, matrix, diagnostics.

    ``build`` returns the commutator matrix; ``matrix`` calls it on first
    read and keeps it, so no norm forms it.  ``check``, when given, maps the
    matrix to the family's block-structure residual, read as
    ``block_check``; ``extract``, when given, returns the family's
    designated submatrix, read as ``submatrix`` (both None without one).
    """

    family: str
    params: dict
    record: NormRecord
    build: Callable[[], np.ndarray] = field(repr=False, compare=False)
    check: Callable[[np.ndarray], float] | None = field(default=None, repr=False, compare=False)
    extract: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.norm <= NORM_CAP:
            raise ComputationError(
                f"{self.family}: norm {self.norm} violates the 1/2 projection bound"
            )

    @property
    def norm(self) -> float:
        return self.record.value

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.build()

    @cached_property
    def block_check(self) -> float | None:
        return None if self.check is None else self.check(self.matrix)

    @cached_property
    def submatrix(self) -> np.ndarray | None:
        return None if self.extract is None else self.extract()


def _masked(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The commutator [P, diag d] as the masked product P_kl * (d_l - d_k)."""
    return p * (d[None, :] - d[:, None])


@lru_cache(maxsize=64)
def _asymmetric_start(m: int) -> np.ndarray:
    """A fixed start vector of length m with no reflection symmetry: for
    m >= 2 both its even and its odd part under x -> x[::-1] are nonzero.
    Cached per m, read-only."""
    x = 1.0 + 0.5 * np.linspace(-1.0, 1.0, m) + 0.1 * np.cos(1.234 * np.arange(m))
    x.setflags(write=False)
    return x


def _lanczos_norm(gram: Callable, m: int) -> NormRecord:
    """||B|| of a real block B matrix-free, with its certificate, from its
    Gram operator ``gram`` (x -> B^T B x or B B^T x) of dimension m, which
    also maps each row of a 2-D block (lanczos_top solves m <= LANCZOS_STEPS
    outright).  The norm is sqrt(theta) for the top eigenvalue theta of the
    Gram operator, found by one lanczos_top run.

    The start must not be reflection-symmetric.  P and D often share a
    reflection (k -> -k on the ring's modes, m -> -m mod n on Heisenberg's
    sites), and then B^T B commutes with its restriction to the out side,
    the reversal x -> x[::-1]: Lanczos from an even start never sees an odd
    eigenvector, and can converge, with a tiny residual, to the top even
    eigenvalue below an odd top.  _asymmetric_start has a part in both
    sectors.

    Record: method "lanczos"; matvecs counts every Gram product, the
    residual one included; lower = sqrt(theta - r) with
    r = ||G x - theta x|| (some eigenvalue lies within r of theta) and
    upper = 1/2, the bound on a commutator of two projections, which
    sqrt(theta) exceeds only by rounding (by one ulp at the n = 2 mod 4
    Heisenberg points, whose norm is 1/2) and is clipped to.  Exactly 0.0
    when m = 0, a block with no rows or no columns.
    """
    if m == 0:
        return NormRecord(0.0, "lanczos", 0, 0.0, 0.5)
    ritz = lanczos_top(gram, m, _asymmetric_start(m))
    residual = float(np.linalg.norm(gram(ritz.vector) - ritz.value * ritz.vector))
    value, lower = (min(math.sqrt(max(t, 0.0)), 0.5) for t in (ritz.value, ritz.value - residual))
    return NormRecord(value, "lanczos", ritz.matvecs + 1, lower, 0.5)


def _fourier_norm(apply: Callable, inside: np.ndarray) -> NormRecord:
    """||P[in, out]|| for P real symmetric, applied to a whole real vector
    (or to each row of a block) by ``apply``, and ``inside`` the bool mask
    of D's range: _lanczos_norm on the out side, where with B = P[in, out]
    B^T B x is apply(inside * apply(x on out))[out]."""
    out = np.flatnonzero(~inside)

    def gram(x):
        v = np.zeros(x.shape[:-1] + (len(inside),))
        v[..., out] = x
        return apply(apply(v) * inside)[..., out]

    return _lanczos_norm(gram, len(out) if inside.any() else 0)


def _su2_norm(v: np.ndarray, inside: np.ndarray) -> NormRecord:
    """||[V V^T, D]|| for orthonormal columns V (n x k) and the 0/1 diagonal
    D whose range is the rows ``inside``, one run of rows, without forming
    V V^T: _lanczos_norm on the in side.

    The norm is that of B = V_in V_out^T.  With C = V_in^T V_in,
    V_out^T V_out is I - C, so B B^T = V_in (I - C) V_in^T: x -> V_in(y - C y)
    with y = V_in^T x, four products with V_in.  V_in is a slice of V's rows,
    so a view of V when V is one.  Exactly 0.0 when k = 0 or either side of
    D is empty.
    """
    rows = np.flatnonzero(inside)
    if not v.shape[1] or len(rows) in (0, len(inside)):
        return _lanczos_norm(None, 0)
    v_in = v[rows[0] : rows[-1] + 1]
    if len(v_in) != len(rows):
        raise ComputationError("su2: the range of D is not one run of rows")

    def gram(x):
        y = x @ v_in
        return (y - (y @ v_in.T) @ v_in) @ v_in.T

    return _lanczos_norm(gram, len(rows))


def _report(family: str, params: dict, inside: np.ndarray, block: Callable,
            record: NormRecord, **fields) -> CommutatorReport:
    """Report for [P, D], P Hermitian as ``block(rows, cols)`` = P[rows][:, cols]
    (bool masks or slices), D's range the rows ``inside``, and the norm
    ``record`` of the block P[in, out], which is the norm of [P, D]: entry
    (k, l) is P_kl * (d_l - d_k), so [P, D] is block off-diagonal.  The
    matrix is formed only when read."""
    return CommutatorReport(
        family=family,
        params=params,
        record=record,
        build=lambda: _masked(block(slice(None), slice(None)), inside.astype(float)),
        **fields,
    )


def _block_residual(c: np.ndarray, rows: np.ndarray) -> float:
    """Largest entry of c off the block form [[0, B], [-B^T, 0]], where B is
    c[rows, ~rows] and ``rows`` is a bool mask."""
    same = rows[:, None] == rows[None, :]  # the diagonal blocks, which must vanish
    return float(np.max(np.abs(np.where(same, c, c + c.T))))


# ---------------------------------------------------------------------------
# SU(2)
# ---------------------------------------------------------------------------

def su2_commutator(n: int, a: float = 0.0, b: float = 1.0) -> CommutatorReport:
    """Commutator of the J_x projection above a*(j+1/2) with the J_z
    projection onto (0, b*(j+1/2)].

    For the plain case (a, b) = (0, 1) the matrix is block anti-diagonal in
    the z-basis, and ``block_check`` verifies the block structure entry by
    entry.
    """
    rep = SpinRep(n)
    if not 0.0 <= a < 1.0:
        raise ContractError(f"su2_commutator: a must lie in [0, 1), got {a}")
    if not 0.0 < b <= 1.0:
        raise ContractError(f"su2_commutator: b must lie in (0, 1], got {b}")
    plain = a == 0.0 and b == 1.0
    family = "su2" if plain else "su2_interval"
    inside = z_interval_mask(rep, b)
    return _report(
        family,
        {"n": n, "a": a, "b": b},
        inside,
        lambda rows, cols: projection_x(rep, a)[rows][:, cols],
        _su2_norm(_kept_vectors(rep, a, family), inside),
        check=partial(_block_residual, rows=rep.twice > 0) if plain else None,
    )


def su2_caps_commutator(n: int, a: float) -> CommutatorReport:
    """Commutator with both projections thresholded at a*(j+1/2).

    This is the family whose norm profile changes character as a crosses
    1/sqrt(2) (both caps shrink together).
    """
    rep = SpinRep(n)
    if not 0.0 <= a < 1.0:
        raise ContractError(f"su2_caps_commutator: a must lie in [0, 1), got {a}")
    inside = weights_exceeding(rep.twice, a, n)
    return _report(
        "su2_caps",
        {"n": n, "a": a, "b": a},  # both projections thresholded at a
        inside,
        lambda rows, cols: projection_x(rep, a)[rows][:, cols],
        _su2_norm(_kept_vectors(rep, a, "su2_caps"), inside),
    )


def su2_submatrix(n: int, size: int) -> np.ndarray:
    """The N x N corner extraction of the plain SU(2) projection data.

    Entries are P_{m',m} with m' = k, m = 1 - l on odd dimensions and
    m' = k - 1/2, m = 1/2 - l on even ones (k, l = 1..N); requires j > N.
    The entries converge entrywise to the half-circle Hankel truncation.
    """
    rep = SpinRep(n)
    if size < 1:
        raise ContractError("su2_submatrix: size must be >= 1")
    if rep.j.twice <= 2 * size:
        raise ContractError(f"su2_submatrix requires j > N, got j = {rep.j}, N = {size}")
    half = 1 - n % 2  # even dimensions sit half a step lower
    k = np.arange(1, size + 1)
    # rows j - m' at m' = k - half/2 and columns j - m at m = 1 - l - half/2, k, l = 1..N
    rows, cols = (n - 1 - 2 * k + half) // 2, (n - 3 + 2 * k + half) // 2
    vs = _kept_vectors(rep, 0.0, "su2_submatrix")
    return vs[rows] @ vs[cols].T


# ---------------------------------------------------------------------------
# circle-grid membership
# ---------------------------------------------------------------------------

def grid_in_arc(k: int, n: int, a: float = 0.0) -> bool:
    """Whether the grid point exp(2*pi*i*k/n) lies on the open arc Re z > a.

    At a = 0 the test is pure integer arithmetic on 4k mod 4n, so points with
    Re z exactly zero are excluded the way a strict inequality demands.  At
    a != 0 both points of a mirror pair k, -k share one cosine, of the
    reduced index min(r, n - r) with r = k mod n, so the arc is symmetric.
    """
    if n < 1:
        raise ContractError(f"grid_in_arc: n must be >= 1, got {n}")
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

def _toeplitz(sym: ArcSymbol, window: int) -> tuple[Callable, Callable]:
    """P[k, l] = coeff(k - l) on the modes k, l = -K..K from one table of
    coeff over the lags -2K..2K, as a block function gathered from it and as
    x -> P x, the table's linalg.toeplitz_matvec product (m = 2K + 1).
    """
    ks = np.arange(-window, window + 1, dtype=np.int64)
    table = _coeff_grid(sym, np.arange(-2 * window, 2 * window + 1))
    return (
        lambda rows, cols: table[ks[rows, None] - ks[None, cols] + 2 * window],
        toeplitz_matvec(table, 2 * window + 1),
    )


def ring_commutator(n: int, window: int, a: float = 0.0) -> CommutatorReport:
    """Ring commutator on the Fourier modes -K..K.

    Entry (k, l) is (ind(l) - ind(k)) * coeff(k - l), where ind marks grid
    points exp(2*pi*i*k/n) on the arc Re z > a (the right half-circle at
    a = 0) and coeff is the arc indicator's Fourier coefficient.
    """
    if n < 2:
        raise ContractError(f"ring_commutator: n must be >= 2, got {n}")
    if window < 1:
        raise ContractError(f"ring_commutator: window must be >= 1, got {window}")
    if not 0.0 <= a < 1.0:
        raise ContractError(f"ring_commutator: a must lie in [0, 1), got {a}")
    inside = _arc_membership(range(-window, window + 1), n, a) != 0.0
    block, apply = _toeplitz(ArcSymbol(a), window)
    record = _fourier_norm(apply, inside)
    return _report("ring", {"n": n, "K": window, "a": a}, inside, block, record)


def _designated(name: str, n: int, size: int):
    """Rows ceil(n/4) - k and columns ceil(n/4) + l - 1 (k, l = 1..N) of the
    designated N x N window; requires N >= 1 and n > 4N."""
    if size < 1:
        raise ContractError(f"{name}: size must be >= 1, got {size}")
    if n <= 4 * size:
        raise ContractError(f"{name} requires n > 4N, got n = {n}, N = {size}")
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
    points centred on 0, so the sum is the real Dirichlet kernel: with
    q = p mod n it is sin(pi*q*L/n) / (n * sin(pi*q/n)), and L/n at q = 0.
    The integer product q*L is reduced mod 2n before scaling, and the
    denominator takes min(q, n - q), whose sine is the same but evaluated
    away from pi.  O(n + len(ps)) time and memory; raises ComputationError
    if the membership is not the run {min(m, n - m) <= h}.
    """
    memb = np.asarray(memb) != 0
    n = len(memb)
    ps = np.arange(-(n - 1), n, dtype=np.int64) if ps is None else np.asarray(ps, dtype=np.int64)
    length = int(np.count_nonzero(memb))
    grid = np.arange(n)
    if not np.array_equal(memb, np.minimum(grid, n - grid) <= (length - 1) // 2):
        raise ComputationError(f"heisenberg: the arc at n = {n} is not one run centred on 0")
    q = ps % n
    top = (q * length) % (2 * n)
    num = np.where(top % n == 0, 0.0, np.sin(math.pi * top / n))
    den = n * np.sin(math.pi * np.minimum(q, n - q) / n)
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
    if n < 2:
        raise ContractError(f"heisenberg_commutator: n must be >= 2, got {n}")
    if not 0.0 <= a < 1.0:
        raise ContractError(f"heisenberg_commutator: a must lie in [0, 1), got {a}")
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
    report = _report(
        "heisenberg",
        {"n": n, "a": a},
        inside,
        lambda rows, cols: row[(grid[None, cols] - grid[rows, None]) % n],
        _fourier_norm(apply, inside),
    )
    report.diagnostics["closed_form_residual"] = residual
    return report


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
    if not 0.0 <= a < 1.0:
        raise ContractError(f"heisenberg_submatrix: a must lie in [0, 1), got {a}")
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
    The report's submatrix holds the Hankel block with rows flipped to the
    1-based Hankel indexing.
    """
    if window < 1:
        raise ContractError(f"se2_commutator: window must be >= 1, got {window}")
    pos = np.arange(-window, window + 1) >= 0
    block, apply = _toeplitz(HALF_CIRCLE, window)
    return _report(
        "se2",
        {"K": window},
        pos,
        block,
        _fourier_norm(apply, pos),
        check=partial(_block_residual, rows=~pos),
        extract=lambda: block(~pos, pos)[::-1],  # d_l - d_k is exactly 1 on this block
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

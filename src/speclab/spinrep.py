"""SU(2) representation core: exact half-integer bookkeeping, spin operators,
Wigner d-functions along three routes, and the x-axis spectral projections.

Half-integers are stored as twice their value so that weight-lattice logic
(m - m' parities, threshold comparisons against a*(j + 1/2)) runs on exact
integers and rationals, never on floats.

The d-matrix at theta = pi/2 is computed two ways: the explicit binomial sum
(reliable for j <= 15, cancellation grows after that) and the eigenvector
route, stable for any dimension.  No eigensolver runs: the spectrum of the
tridiagonal J_x is the exact weight lattice, so each eigenvector (a
Krawtchouk function) comes from the three-term recurrence at its known
eigenvalue, certified by its residual.  Every recurrence column starts
positive, which fixes the d-matrix's column signs by construction;
projections are sums of column outer products and do not depend on them.

Each route works on the whole (m', m) grid at once: the binomial sum is one
masked array kernel over broadcast twice-indices, the Fourier route at any
theta is one complex GEMM on the cached J_x eigenvectors
(`wigner_d_matrix`), and the Hilbert-formula check is one GEMM plus an
outer product.  `wigner_d_sum` and `wigner_d_theta` stay as the scalar
entry points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._errors import ComputationError, ContractError
from .specfun import bessel_j


@dataclass(frozen=True)
class HalfInt:
    """Exact half-integer, stored as twice its value."""

    twice: int

    def __post_init__(self):
        object.__setattr__(self, "twice", int(self.twice))

    @classmethod
    def coerce(cls, x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, (int, np.integer)):
            return cls(2 * int(x))
        d = 2 * Fraction(x)
        if d.denominator != 1:
            raise ContractError(f"{x!r} is not a half-integer")
        return cls(d.numerator)

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def diff_int(self, other: "HalfInt") -> int:
        """Exact integer difference self - other; parities must match."""
        d = self.twice - other.twice
        if d % 2 != 0:
            raise ContractError(f"{self} - {other} is not an integer")
        return d // 2

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __lt__(self, other):
        return self.twice < HalfInt.coerce(other).twice

    def __le__(self, other):
        return self.twice <= HalfInt.coerce(other).twice

    def __str__(self):
        return str(self.twice // 2) if self.is_integer else f"{self.twice}/2"


class SpinRep:
    """Irreducible SU(2) representation of dimension n, spin j = (n-1)/2.

    Weights are ordered j, j-1, ..., -j; immutable after construction.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 2:
            raise ContractError(f"representation dimension must be >= 2, got {n}")
        self.n = n
        self.j = HalfInt(n - 1)
        self.twice = np.arange(n - 1, -n, -2, dtype=np.int64)  # twice each weight
        self.twice.setflags(write=False)

    @cached_property
    def weights(self) -> tuple:
        """The weights as HalfInt, built on first read (``twice`` holds them
        as integers)."""
        return tuple(HalfInt(int(t)) for t in self.twice)

    def index_of(self, m) -> int:
        """Row index of weight m in the descending weight ordering."""
        m = HalfInt.coerce(m)
        if (self.j.twice - m.twice) % 2 != 0 or abs(m.twice) > self.j.twice:
            raise ContractError(f"weight {m} not in the lattice of spin {self.j}")
        return (self.j.twice - m.twice) // 2

    def __eq__(self, other):
        return isinstance(other, SpinRep) and other.n == self.n

    def __hash__(self):
        return hash(("SpinRep", self.n))

    def __repr__(self):
        return f"SpinRep(n={self.n}, j={self.j})"


def weight_exceeds(twice_m: int, a, n: int) -> bool:
    """Exact test m > a*(j + 1/2), i.e. twice_m > a*n, in rational arithmetic."""
    return Fraction(int(twice_m)) > Fraction(a) * n


def weight_at_most(twice_m: int, b, n: int) -> bool:
    """Exact test m <= b*(j + 1/2) in rational arithmetic."""
    return Fraction(int(twice_m)) <= Fraction(b) * n


@lru_cache(maxsize=256)
def _floor_scaled(x, n: int) -> int:
    """floor(x*n) in exact rational arithmetic.  For an integer t,
    t > x*n exactly when t > floor(x*n), and t <= x*n exactly when
    t <= floor(x*n), so one integer settles a whole array of weights.
    Cached per (x, n), which validate and the tests revisit."""
    return math.floor(Fraction(x) * n)


def weights_exceeding(twice, a, n: int) -> np.ndarray:
    """weight_exceeds over an integer array of twice-weights, as a bool mask."""
    return np.asarray(twice) > _floor_scaled(a, n)


def weights_at_most(twice, b, n: int) -> np.ndarray:
    """weight_at_most over an integer array of twice-weights, as a bool mask."""
    return np.asarray(twice) <= _floor_scaled(b, n)


class SpinOperators(NamedTuple):
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


def jx_offdiagonal(rep: SpinRep) -> np.ndarray:
    """Off-diagonal of J_x in the descending J_z eigenbasis (ladder formula)."""
    j = rep.j.value
    m = rep.twice / 2.0
    return 0.5 * np.sqrt(j * (j + 1) - m[:-1] * m[1:])


def build_spin_operators(rep: SpinRep) -> SpinOperators:
    """Matrices of J_x, J_y, J_z in the descending J_z eigenbasis.

    J_z is diagonal with entries m; J_x is real symmetric tridiagonal;
    J_y is imaginary antisymmetric tridiagonal.  [J_x, J_y] = i J_z holds to
    roundoff.
    """
    n = rep.n
    m = rep.twice / 2.0
    off = jx_offdiagonal(rep)
    jz = np.diag(m)
    jx = np.zeros((n, n))
    jx[np.arange(n - 1), np.arange(1, n)] = off
    jx[np.arange(1, n), np.arange(n - 1)] = off
    jy = np.zeros((n, n), dtype=complex)
    jy[np.arange(n - 1), np.arange(1, n)] = -1j * off
    jy[np.arange(1, n), np.arange(n - 1)] = 1j * off
    return SpinOperators(jx, jy, jz)


RECURRENCE_RESCALE = 1e150  # a column passing this is rescaled to max 1


def _jx_recurrence(n: int):
    """Eigensystem of tridiagonal J_x: (twice-eigenvalues asc, vectors).

    The spectrum is the exact weight lattice, so the twice-eigenvalues are
    the integers -(n-1), -(n-3), ..., n-1 and no eigensolver runs: column k
    solves b_{i-1} v_{i-1} + b_i v_{i+1} = mu_k v_i (b = jx_offdiagonal) from
    v_0 = 1, v_1 = mu_k/b_0, down to the middle row, all n columns at once.
    Run from the classically forbidden edge into the oscillatory middle the
    recurrence is stable (Gautschi, SIAM Rev. 9, 1967).  A column passing
    RECURRENCE_RESCALE is divided by its largest entry in the last two rows,
    and what that pushes below 1/RECURRENCE_RESCALE is flushed to 0, so the
    final normalisation (by at most sqrt(n) RECURRENCE_RESCALE) leaves no
    subnormal.  J_x commutes with the flip i -> n-1-i, under which the
    eigenvector of mu has parity (-1)^(j-mu): that fills the bottom rows (and
    zeroes the middle row of the odd columns when n is odd).  Every column
    starts positive, so the columns carry the sign of d(pi/2)'s top row up
    to (-1)^(j-mu).

    Certified: a residual max|J_x v - mu v| above jx_residual_bound(n) raises
    ComputationError; with eigenvalue gaps of 1 it also bounds each column's
    distance from the true eigenvector.  Returned arrays are read-only.
    """
    b = jx_offdiagonal(SpinRep(n))
    tw = np.arange(-(n - 1), n, 2, dtype=np.int64)
    mu = tw / 2.0
    half = (n + 1) // 2  # rows 0..half-1 come from the recurrence
    v = np.empty((n, n))
    v[0] = 1.0
    v[1] = mu / b[0]
    for i in range(1, half - 1):
        v[i + 1] = (mu * v[i] - b[i - 1] * v[i - 1]) / b[i]
        big = np.flatnonzero(np.abs(v[i + 1]) > RECURRENCE_RESCALE)
        if big.size:
            block = v[: i + 2, big]
            block /= np.maximum(np.abs(block[i]), np.abs(block[i + 1]))
            block[np.abs(block) < 1.0 / RECURRENCE_RESCALE] = 0.0
            v[: i + 2, big] = block
    parity = np.where((n - 1 - tw) % 4 == 0, 1.0, -1.0)  # (-1)^(j - mu)
    if n % 2:
        v[half - 1, parity < 0] = 0.0
    top = v[:half]
    sq = 2.0 * np.einsum("ij,ij->j", top, top)
    if n % 2:
        sq -= top[-1] ** 2  # the middle row is its own mirror
    scale = 1.0 / np.sqrt(sq)
    np.multiply(v[: n // 2][::-1], parity * scale, out=v[half:])  # v[n-1-i] = ±v[i]
    top *= scale
    residual = _jx_residual(b, mu, v, half)
    if not residual <= jx_residual_bound(n):
        raise ComputationError(
            f"J_x eigenvectors at n = {n}: residual {residual:.3g} exceeds "
            f"{jx_residual_bound(n):.3g}"
        )
    tw.setflags(write=False)
    v.setflags(write=False)
    return tw, v


_jx_small = lru_cache(maxsize=64)(_jx_recurrence)  # n <= 128: 8.4 MB at most


@lru_cache(maxsize=4)  # an entry is n x n: 33.5 MB at n = 2048
def _jx_eigensystem(n: int):
    """_jx_recurrence(n), cached for the last four sizes (a sweep visits each n
    in turn) and for 64 sizes n <= 128 (validate's suites revisit n = 2..31)."""
    return _jx_small(n) if n <= 128 else _jx_recurrence(n)


def jx_residual_bound(n: int) -> float:
    """Bound on max|J_x v - mu v| certifying _jx_eigensystem(n): 64 n eps
    (the recurrence measured at most 3.4 n eps for n <= 4096)."""
    return 64 * n * np.finfo(float).eps


RESIDUAL_BLOCK = 1 << 17  # entries of one block of residual rows (1 MB of floats)


def _jx_residual(b: np.ndarray, mu: np.ndarray, v: np.ndarray, half: int) -> float:
    """max|J_x v - mu v| over rows 0..half-1, in blocks of RESIDUAL_BLOCK
    entries.  That is the max over all rows: the bottom rows are exact signed
    copies of the top ones and b is exactly symmetric."""
    worst = 0.0
    step = max(1, RESIDUAL_BLOCK // len(mu))
    for lo in range(0, half, step):
        hi = min(half, lo + step)
        r = b[lo:hi, None] * v[lo + 1 : hi + 1] - mu * v[lo:hi]
        if lo:
            r += b[lo - 1 : hi - 1, None] * v[lo - 1 : hi - 1]
        else:  # row 0 has no upper neighbour
            r[1:] += b[: hi - 1, None] * v[: hi - 1]
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


@lru_cache(maxsize=64)
def _log_factorials(top: int) -> np.ndarray:
    """ln k! for k = 0..top (math.lgamma(k + 1)); cached, read-only."""
    lf = np.array([math.lgamma(k + 1) for k in range(top + 1)])
    lf.setflags(write=False)
    return lf


SUM_BLOCK = 1 << 17  # entries of one block of binomial-sum terms (1 MB of floats)


def _wigner_sum(tj: int, tp, tm, theta: float) -> np.ndarray:
    """d^j_{m',m}(theta) by the binomial sum over broadcast twice-indices.

    tj = 2j; tp and tm are integer arrays (or scalars) of twice m' and twice
    m, already on the spin-j lattice.  The sum runs on a new leading axis over
    the s that some entry needs (the union of the [s_min, s_max] ranges), in
    blocks of as many s as keep a block's terms within SUM_BLOCK entries, so
    memory stays a few times that of the output whatever j; each block's sum
    starts from the previous blocks' total, so the order of the additions is
    that of one sum over every s.  Each entry's terms outside its own range
    are masked to 0 through their logarithm (their factorial indices are
    clamped to 0 first so no lookup leaves the table).  A term too large for
    a float raises ComputationError, and so does an entry whose cancellation
    estimate 4 tj eps sum_s |term_s| (each term's relative rounding grows
    with the powers' exponents, up to tj) exceeds 1e-8, `validate`'s
    cross-path tolerance.
    """
    tp, tm = np.asarray(tp, dtype=np.int64), np.asarray(tm, dtype=np.int64)
    lf = _log_factorials(tj)
    jp_plus, jp_minus = (tj + tp) // 2, (tj - tp) // 2  # j + m', j - m'
    jm_plus, jm_minus = (tj + tm) // 2, (tj - tm) // 2  # j + m, j - m
    diff = (tp - tm) // 2  # m' - m; s_min = max(0, -diff)
    s_max = np.minimum(jp_minus, jm_plus)
    pref = 0.5 * (lf[jm_plus] + lf[jm_minus] - lf[jp_plus] - lf[jp_minus])
    shape = np.broadcast_shapes(tp.shape, tm.shape)
    s_all = np.arange(max(0, -int(diff.max())), int(s_max.max()) + 1)
    step = max(1, SUM_BLOCK // math.prod(shape))
    total = magnitude = None
    for lo in range(0, len(s_all), step):
        s = s_all[lo : lo + step].reshape((-1,) + (1,) * len(shape))
        live = (s >= -diff) & (s <= s_max)
        lb1 = lf[jp_plus] - lf[np.where(live, jm_plus - s, 0)] - lf[np.where(live, diff + s, 0)]
        lb2 = lf[jp_minus] - lf[s] - lf[np.where(live, jp_minus - s, 0)]
        k_sin = np.where(live, diff + 2 * s, 0)
        sign = 1.0 - 2.0 * ((diff + s) % 2)
        with np.errstate(over="raise"):
            try:  # masked terms are exp(-inf) = 0
                size = np.exp(np.where(live, pref + lb1 + lb2, -np.inf))
            except FloatingPointError:
                raise ComputationError(f"binomial sum overflows at j = {HalfInt(tj)}") from None
        cos_pow = math.cos(theta / 2) ** (tj - k_sin)
        terms = sign * size * cos_pow * math.sin(theta / 2) ** k_sin
        if total is None:
            total, magnitude = terms.sum(axis=0), np.abs(terms).sum(axis=0)
        else:
            total = np.concatenate([total[None], terms]).sum(axis=0)
            magnitude = np.concatenate([magnitude[None], np.abs(terms)]).sum(axis=0)
    error = 4 * tj * np.finfo(float).eps * float(np.max(magnitude))
    if error > 1e-8:
        raise ComputationError(
            f"binomial sum lost to cancellation at j = {HalfInt(tj)}: error estimate {error:.3g}"
        )
    return total


def wigner_d_sum(j, mprime, m, theta: float) -> float:
    """Wigner d-function d^j_{m',m}(theta) by the explicit binomial sum.

    Exact convention of the rotation e^{-i theta J_y}; trustworthy to full
    precision for j <= 15 (alternating-sum cancellation grows with j).  A
    term beyond the float range, or a cancellation estimate above 1e-8,
    raises ComputationError.
    """
    j = HalfInt.coerce(j)
    mp = HalfInt.coerce(mprime)
    m = HalfInt.coerce(m)
    tj, tp, tm = j.twice, mp.twice, m.twice
    if abs(tp) > tj or abs(tm) > tj or (tj - tp) % 2 or (tj - tm) % 2:
        raise ContractError(f"indices ({mprime}, {m}) outside spin-{j} lattice")
    return float(_wigner_sum(tj, tp, tm, theta))


def wigner_d_sum_matrix(rep: SpinRep, theta: float = math.pi / 2) -> np.ndarray:
    """The whole d^j(theta) matrix by the binomial sum, in descending weight
    order; the same j <= 15 caveat and errors as `wigner_d_sum`."""
    return _wigner_sum(rep.j.twice, rep.twice[:, None], rep.twice[None, :], theta)


def _fourier_entries(rep: SpinRep, rows, cols, theta: float) -> np.ndarray:
    """d^j(theta)[rows, cols] by the Fourier expansion, on broadcast row and
    column indices into the descending weight order.

    Entry (i', i) is Re(exp(i pi/4 (t_i - t_i')) sum_nu V[i', nu] V[i, nu]
    exp(-i nu theta)) for the twice-weights t and the J_x eigenvectors V of
    eigenvalues nu: products of two entries of one eigenvector, so the value
    does not depend on the sign of any eigenvector.
    """
    tw, v = _jx_eigensystem(rep.n)
    sums = (v[rows] * v[cols]) @ np.exp(-1j * (tw / 2.0) * theta)
    return (np.exp(1j * (math.pi / 4) * (rep.twice[cols] - rep.twice[rows])) * sums).real


def wigner_d_pi_half(rep: SpinRep) -> np.ndarray:
    """Full d^j(pi/2) matrix via the eigenvector route.

    Row/column indices follow the descending weight order, so column mu holds
    the J_x eigenvector of eigenvalue mu in the z-basis.  Its top entry is
    d_{j,mu}(pi/2) = (-1)^(j-mu) 2^(-j) sqrt(C(2j, j+mu)), and every
    `_jx_eigensystem` column starts positive, so column k (mu = j - k) is the
    eigenvector times (-1)^k: the signs are exact by construction.
    """
    _, v = _jx_eigensystem(rep.n)
    return v[:, ::-1] * np.where(np.arange(rep.n) % 2, -1.0, 1.0)


def _kept_vectors(rep: SpinRep, a: float, name: str) -> np.ndarray:
    """J_x eigenvectors (columns) whose weights exceed a*(j+1/2); may be n x 0.
    The eigenvalues ascend, so these are the last columns: a read-only view
    of the cached eigenvectors, not a copy."""
    if not 0.0 <= a < 1.0:
        raise ContractError(f"{name}: a must lie in [0, 1), got {a}")
    tw, v = _jx_eigensystem(rep.n)
    return v[:, int(np.searchsorted(tw, _floor_scaled(a, rep.n), side="right")) :]


def projection_x(rep: SpinRep, a: float) -> np.ndarray:
    """Matrix of the spectral projection of J_x onto (a*(j+1/2), infinity).

    Built from J_x eigenvectors whose eigenvalues are the exact weight
    lattice, compared with the threshold in exact rational arithmetic, so
    classification is exact even when a*(j+1/2) grazes an eigenvalue.
    """
    vs = _kept_vectors(rep, a, "projection_x")
    p = vs @ vs.T
    return (p + p.T) / 2


def projection_x_entries(rep: SpinRep, a: float, pairs) -> np.ndarray:
    """Selected entries P_{m',m} of projection_x without forming the matrix.

    ``pairs`` is an iterable of (m', m); useful at dimensions where the full
    n x n projection would be wasteful.  The weights become row indices in
    one array expression, and each entry is a row dot product of the kept
    J_x eigenvectors.
    """
    vs = _kept_vectors(rep, a, "projection_x_entries")
    twice = np.array([HalfInt.coerce(x).twice for pair in pairs for x in pair], dtype=np.int64)
    off = rep.j.twice - twice
    bad = (off % 2 != 0) | (np.abs(twice) > rep.j.twice)
    if bad.any():
        raise ContractError(f"weight {HalfInt(twice[bad][0])} not in the lattice of spin {rep.j}")
    idx = (off // 2).reshape(-1, 2)
    return np.einsum("ij,ij->i", vs[idx[:, 0]], vs[idx[:, 1]])


def z_interval_mask(rep: SpinRep, b: float) -> np.ndarray:
    """Bool mask of the weights in (0, b*(j+1/2)], in the descending order.

    Selects the b_j smallest positive weights, which sit at the bottom of the
    positive block.
    """
    if not 0.0 < b <= 1.0:
        raise ContractError(f"z_interval_mask: b must lie in (0, 1], got {b}")
    return (rep.twice > 0) & weights_at_most(rep.twice, b, rep.n)


def projection_z_interval(rep: SpinRep, b: float) -> np.ndarray:
    """Diagonal 0/1 matrix of the J_z spectral projection onto (0, b*(j+1/2)]."""
    return np.diag(z_interval_mask(rep, b).astype(float))


def fourier_expansion_d(rep: SpinRep, mprime, m) -> dict:
    """Fourier data of d^j_{m',m}: map mu -> d_{m,mu}(pi/2) * d_{m',mu}(pi/2).

    The full 4*pi-periodic expansion is recovered as
    exp(i*pi/2*(m-m')) * sum_mu coeff(mu) * exp(-i*mu*theta).  Coefficients
    are products of two entries of the same eigenvector column, hence
    independent of any sign convention; stable at any dimension.
    """
    mp = HalfInt.coerce(mprime)
    m = HalfInt.coerce(m)
    tw, v = _jx_eigensystem(rep.n)
    row_m = v[rep.index_of(m)]
    row_mp = v[rep.index_of(mp)]
    prods = row_m * row_mp
    order = np.argsort(tw)[::-1]
    return {HalfInt(int(tw[i])): float(prods[i]) for i in order}


def wigner_d_theta(rep: SpinRep, mprime, m, theta: float) -> float:
    """d^j_{m',m}(theta) evaluated through the Fourier expansion.

    Large-j-safe alternative to the binomial sum (same convention).
    """
    return float(_fourier_entries(rep, rep.index_of(mprime), rep.index_of(m), theta))


def wigner_d_matrix(rep: SpinRep, theta: float) -> np.ndarray:
    """The whole d^j(theta) matrix through the Fourier expansion.

    With F = V diag(exp(-i tw/2 theta)) V^T (one complex GEMM on the cached
    J_x eigenvectors), entry (i', i) is Re(exp(i pi/4 (t_i - t_i')) F[i', i])
    for the twice-weights t: what `_fourier_entries` sums entry by entry.
    """
    tw, v = _jx_eigensystem(rep.n)
    f = (v * np.exp(-1j * (tw / 2.0) * theta)) @ v.T
    t = rep.twice
    phase = np.exp(1j * (math.pi / 4) * (t[None, :] - t[:, None]))
    return (phase * f).real


def verify_hilbert_formula(rep: SpinRep) -> float:
    """Max residual between projection_x(rep, 0) and the case-split formula
    built from the zeroth Fourier coefficient and the periodic Hilbert
    transform of d^j_{m',m} at 0 (frequency mu -> -i sgn(mu) on the
    4*pi-periodic circle).

    With m - m' odd the formula's phases cancel to (1/2) sum_mu sgn(mu)
    v_m(mu) v_m'(mu), the entries of (1/2) V diag(sgn) V^T.  With m - m' even
    they cancel to (1/2)(delta_{m',m} - v_m(0) v_m'(0)), where v(0) is the
    mu = 0 column (absent, so 0, for half-integer spin).
    """
    n = rep.n
    if n > 31:
        raise ContractError("verify_hilbert_formula: supported for n <= 31")
    p = projection_x(rep, 0.0)
    tw, v = _jx_eigensystem(n)
    hilbert = (v * np.sign(tw)) @ v.T
    zero = v[:, tw == 0].sum(axis=1)  # the mu = 0 column, or zeros
    even = np.eye(n) - np.outer(zero, zero)
    idx = np.arange(n)
    odd = (idx[:, None] - idx[None, :]) % 2 == 1  # m - m' odd
    rhs = 0.5 * np.where(odd, hilbert, even)
    return float(np.max(np.abs(rhs - p)))


def szego_approximation(j, mprime, m, theta: float):
    """Bessel main term for d^j_{m',m}(theta) and its normalizing constant.

    Returns (approx, C) with
    approx = C * sqrt(theta/sin theta) * J_{m-m'}((2j+1)/2 * theta) and
    C the factorial-ratio constant (log-gamma evaluated, -> 1 as j grows).
    Valid for m - m' >= -1 and theta in (0, pi - 0.2].
    """
    j = HalfInt.coerce(j)
    mp = HalfInt.coerce(mprime)
    m = HalfInt.coerce(m)
    diff = m.diff_int(mp)
    if diff < -1:
        raise ContractError(f"szego_approximation requires m - m' >= -1, got {diff}")
    if not 0.0 < theta <= math.pi - 0.2:
        raise ContractError(f"theta {theta} outside validity window (0, pi - 0.2]")
    tj, tp, tm = j.twice, mp.twice, m.twice
    if abs(tp) > tj or abs(tm) > tj:
        raise ContractError("indices outside the weight lattice")
    lg = math.lgamma
    # paired differences so equal indices cancel exactly (C = 1 when m' = m)
    log_ratio = 0.5 * (
        (lg((tj - tp) / 2 + 1) - lg((tj - tm) / 2 + 1))
        + (lg((tj + tm) / 2 + 1) - lg((tj + tp) / 2 + 1))
    )
    c = math.exp(log_ratio) / ((tj + 1) / 2.0) ** diff
    approx = c * math.sqrt(theta / math.sin(theta)) * bessel_j(diff, (tj + 1) / 2.0 * theta)
    return approx, c

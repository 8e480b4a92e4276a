"""SU(2) representation core: exact half-integer bookkeeping, spin operators,
Wigner d-functions along three routes, and the x-axis spectral projections.

Half-integers are stored as twice their value so that weight-lattice logic
(m - m' parities, threshold comparisons against a*(j + 1/2)) runs on exact
integers and rationals, never on floats.  Every weight an entry takes passes
`HalfInt.coerce` and one lattice test, `_lattice_rows`, and every angle
`_errors.finite`.

The d-matrix at theta = pi/2 is computed two ways: the explicit binomial sum
(reliable for j <= 15, cancellation grows after that) and the eigenvector
route, stable for any dimension.  No eigensolver runs: the spectrum of the
tridiagonal J_x is the exact weight lattice, so each eigenvector (a
Krawtchouk function) comes from the three-term recurrence at its known
eigenvalue, certified by its residual.  Every recurrence column starts
positive, which fixes the d-matrix's column signs by construction;
projections are sums of column outer products and do not depend on them.
Only a quarter of the eigensystem is computed and cached, the top-half
rows of the columns mu >= 0, in one store bounded by bytes (`_JxStore`);
two exact symmetries give the rest.

Each route works on the whole (m', m) grid at once: the binomial sum is one
array kernel over the live terms of every entry, laid out flat, the Fourier
route at any theta is one complex GEMM on the J_x eigenvectors
(`wigner_d_matrix`), and the Hilbert-formula check is one GEMM plus an outer
product.
`wigner_d_sum` and `wigner_d_theta` stay as the scalar entry points.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._errors import ComputationError, ContractError, finite, integer, integer_at_least, threshold, width
from .specfun import bessel_j


@dataclass(frozen=True)
class HalfInt:
    """Exact half-integer, stored as twice its value: ``HalfInt(3)`` is 3/2.
    ``twice`` is a Python or numpy integer, not a bool and not a float
    (`_errors.integer`), so ``HalfInt(2.7)`` raises ContractError rather
    than truncate.  The one half-integer rule of the package: every spin and
    weight an entry takes passes `coerce`."""

    twice: int

    def __post_init__(self):
        object.__setattr__(self, "twice", integer("HalfInt: twice", self.twice))

    @classmethod
    def coerce(cls, x) -> "HalfInt":
        """x as a HalfInt: a HalfInt, a Python or numpy integer (not a bool),
        or a finite float or a Fraction that is a whole multiple of 1/2 (1.5,
        2.0).  Any other value (0.3, nan, inf, a bool, np.True_, the string
        "1/2") raises ContractError."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
            return cls(2 * int(x))
        exact = x
        if isinstance(x, (float, np.floating)) and math.isfinite(x):
            exact = Fraction(float(x))
        if isinstance(exact, Fraction) and exact.denominator <= 2:
            return cls(int(2 * exact))
        raise ContractError(f"{x!r} is not a half-integer")

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

    def __str__(self):
        return str(self.twice // 2) if self.is_integer else f"{self.twice}/2"


def _lattice_rows(tj: int, weights) -> list:
    """Rows (tj - 2m)/2 of the weights m in the descending weight order of
    spin tj/2, as Python ints.  Each weight passes `HalfInt.coerce`, and one
    off the lattice (|m| > j, or j - m not an integer) raises ContractError:
    the one lattice test of the package."""
    rows = []
    for m in weights:
        t = HalfInt.coerce(m).twice
        if (tj - t) % 2 or abs(t) > tj:
            raise ContractError(f"weight {HalfInt(t)} not in the lattice of spin {HalfInt(tj)}")
        rows.append((tj - t) // 2)
    return rows


class SpinRep:
    """Irreducible SU(2) representation of dimension n, spin j = (n-1)/2.

    Weights are ordered j, j-1, ..., -j; immutable after construction.
    """

    def __init__(self, n: int):
        self.n = n = integer_at_least("representation dimension", n, 2)
        self.j = HalfInt(n - 1)
        self.twice = np.arange(n - 1, -n, -2, dtype=np.int64)  # twice each weight
        self.twice.setflags(write=False)

    @cached_property
    def weights(self) -> tuple:
        """The weights as HalfInt, built on first read (``twice`` holds them
        as integers)."""
        return tuple(HalfInt(int(t)) for t in self.twice)

    def index_of(self, m) -> int:
        """Row index of weight m in the descending weight ordering; m is
        anything `HalfInt.coerce` takes, and one off the lattice raises
        ContractError (`_lattice_rows`)."""
        return _lattice_rows(self.j.twice, (m,))[0]

    def __eq__(self, other):
        return isinstance(other, SpinRep) and other.n == self.n

    def __hash__(self):
        return hash(("SpinRep", self.n))

    def __repr__(self):
        return f"SpinRep(n={self.n}, j={self.j})"


def weight_exceeds(twice_m: int, a, n: int) -> bool:
    """Exact test m > a*(j + 1/2), i.e. twice_m > a*n, in rational arithmetic.
    A non-finite a is a ContractError, here and in the three predicates
    below; any finite a is compared, as the b side reads them too."""
    finite("weight_exceeds: a", a)
    return Fraction(int(twice_m)) > Fraction(a) * n


def weight_at_most(twice_m: int, b, n: int) -> bool:
    """Exact test m <= b*(j + 1/2) in rational arithmetic."""
    finite("weight_at_most: b", b)
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
    finite("weights_exceeding: a", a)
    return np.asarray(twice) > _floor_scaled(a, n)


def weights_at_most(twice, b, n: int) -> np.ndarray:
    """weight_at_most over an integer array of twice-weights, as a bool mask."""
    finite("weights_at_most: b", b)
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


MAX_JX_N = 1 << 14  # largest J_x eigensystem: Q is then 8192 x 8192, 537 MB, stored alone
JX_SMALL_N = 128  # sizes whose whole eigensystem is stored, not its quarter
JX_CACHE_BYTES = 2 << 20  # most bytes _JxStore holds; its newest entry is kept even past it


def _jx_recurrence(n: int):
    """Quarter of the eigensystem of tridiagonal J_x: (tw, Q), the
    twice-eigenvalues tw >= 0 ascending and Q, the top ceil(n/2) rows of
    their eigenvectors (columns).

    The spectrum is the exact weight lattice, so the twice-eigenvalues are
    the integers -(n-1), -(n-3), ..., n-1 and no eigensolver runs: column k
    solves b_{i-1} v_{i-1} + b_i v_{i+1} = mu_k v_i (b = jx_offdiagonal) from
    v_0 = 1, v_1 = mu_k/b_0, down to the middle row, all mu >= 0 columns at
    once.  Run from the classically forbidden edge into the oscillatory
    middle the recurrence is stable (Gautschi, SIAM Rev. 9, 1967).  A column
    passing RECURRENCE_RESCALE is divided by its largest entry in the last
    two rows, and what that pushes below 1/RECURRENCE_RESCALE is flushed to
    0, so the final normalisation (by at most sqrt(n) RECURRENCE_RESCALE)
    leaves no subnormal.  Every column starts positive, so the columns carry
    the sign of d(pi/2)'s top row up to (-1)^(j-mu).

    A row is scanned for that test only when it might pass it.  A scalar
    bound M_i on max|v_i| is carried in Python floats, M_{i+1} =
    (mu_max M_i + b_{i-1} M_{i-1}) / b_i (mu >= 0, b > 0), and row i+1 is
    scanned only when M_{i+1} passes RECURRENCE_RESCALE / 2.  A scan sets
    M_{i+1} to the row's exact maximum, and a rescale sets M_i and M_{i+1}
    to those of the rescaled rows.  Each row's rounding, in the row and in
    the bound, costs at most a factor
    (1 + u)^3 / (1 - u)^3 ~ 1 + 6u, so over <= MAX_JX_N / 2 rows a row's
    maximum exceeds its bound by at most a factor 1 + 5.5e-12.  The factor-2
    slack covers that: a row left unscanned could not have passed the
    threshold.  So every rescale falls on the same row and columns as under a
    scan of every row, and the output is that scan's bit for bit.

    Q holds all of the eigensystem, by two exact symmetries that
    `_expand_rows` applies (sign flips and copies only).  J_x commutes with
    the flip i -> n-1-i, under which the eigenvector of mu has parity
    (-1)^(j-mu): that gives the bottom rows (and zeroes the middle row of
    the odd columns when n is odd).  With S = diag((-1)^i), S J_x S = -J_x,
    so the eigenvector of -mu is S times that of mu: the recurrence for -mu
    computes exactly the sign-flipped numbers, rescales included.

    Certified: a residual max|J_x v - mu v| above jx_residual_bound(n) raises
    ComputationError; with eigenvalue gaps of 1 it also bounds each column's
    distance from the true eigenvector.  Returned arrays are read-only.
    """
    b = jx_offdiagonal(SpinRep(n))
    tw = np.arange((n - 1) % 2, n, 2, dtype=np.int64)
    mu = tw / 2.0
    half = (n + 1) // 2  # rows 0..half-1 come from the recurrence
    v = np.empty((half + 1, half))  # row half (a mirrored row) is for the residual
    v[0] = 1.0
    v[1] = mu / b[0]
    work = np.empty(half)
    # the loop is bound by call overhead: row views, Python floats and local
    # ufunc names are made once, and each ufunc writes to its positional out
    rows, bf = list(v), b.tolist()
    mul, sub, div = np.multiply, np.subtract, np.divide
    mu_max, scan_above = float(mu[-1]), RECURRENCE_RESCALE / 2
    m_prev, m_cur = 1.0, float(v[1, -1])  # max|v_0|, max|v_1|
    for i in range(1, half - 1):
        row = rows[i + 1]  # (mu v_i - b_{i-1} v_{i-1}) / b_i, written in place
        mul(mu, rows[i], row)
        sub(row, mul(rows[i - 1], bf[i - 1], work), row)
        div(row, bf[i], row)
        m_prev, m_cur = m_cur, (mu_max * m_cur + bf[i - 1] * m_prev) / bf[i]
        if m_cur <= scan_above:
            continue
        m_cur = float(np.abs(row, out=work).max())
        if m_cur > RECURRENCE_RESCALE:
            big = np.flatnonzero(work > RECURRENCE_RESCALE)
            block = v[: i + 2, big]
            block /= np.maximum(np.abs(block[i]), np.abs(block[i + 1]))
            block[np.abs(block) < 1.0 / RECURRENCE_RESCALE] = 0.0
            v[: i + 2, big] = block
            m_prev = float(np.abs(rows[i], out=work).max())
            m_cur = float(np.abs(row, out=work).max())
    parity = _flip_parity(n, tw)
    if n % 2:
        v[half - 1, parity < 0] = 0.0
    top = v[:half]
    sq = 2.0 * np.einsum("ij,ij->j", top, top)
    if n % 2:
        sq -= top[-1] ** 2  # the middle row is its own mirror
    top *= 1.0 / np.sqrt(sq)
    np.multiply(v[n // 2 - 1], parity, out=v[half])
    residual = _jx_residual(b, mu, v, half)
    if not residual <= jx_residual_bound(n):
        raise ComputationError(
            f"J_x eigenvectors at n = {n}: residual {residual:.3g} exceeds "
            f"{jx_residual_bound(n):.3g}"
        )
    tw.setflags(write=False)
    top.setflags(write=False)
    return tw, top


def _flip_parity(n: int, tw: np.ndarray) -> np.ndarray:
    """(-1)^(j - mu) for the twice-eigenvalues tw: the parity of each J_x
    eigenvector under the flip i -> n-1-i."""
    return np.where((n - 1 - tw) % 4 == 0, 1.0, -1.0)


class JxCacheInfo(NamedTuple):
    """The J_x store's hits and misses since it was last cleared, and the
    entries it holds and their bytes."""

    hits: int
    misses: int
    entries: int
    nbytes: int


def _jx_entry_bytes(n: int) -> int:
    """Bytes of the stored eigensystem of size n, known before it is built:
    the whole (tw, V) at n <= JX_SMALL_N, else the quarter (tw, Q), whose Q
    is a view of the recurrence's array of ceil(n/2) + 1 rows."""
    if n <= JX_SMALL_N:
        return 8 * n * (n + 1)
    half = (n + 1) // 2
    return 8 * half * (half + 2)


class _JxStore:
    """J_x eigensystems keyed by n, least recently used first, holding at
    most JX_CACHE_BYTES but for the newest entry, which is kept whatever its
    size.  A miss evicts before it builds (the entry's size is known from
    n), so no eigensystem is allocated beside older ones that will not fit
    with it.  A norms sweep runs every point of one n in turn and so needs
    only the newest entry; the budget serves revisits of small sizes
    (validate's suites, su2_caps after su2_interval).  A rebuilt entry is
    the evicted one bit for bit."""

    def __init__(self):
        self.entries = OrderedDict()
        self.nbytes = self.hits = self.misses = 0

    def get(self, n: int):
        """(tw, Q) at n > JX_SMALL_N, (tw, V) at smaller n; sizes past
        MAX_JX_N raise ContractError before anything is evicted or built."""
        if n > MAX_JX_N:
            raise ContractError(f"J_x eigensystem: n must be <= {MAX_JX_N}, got {n}")
        entry = self.entries.get(n)
        if entry is not None:
            self.hits += 1
            self.entries.move_to_end(n)
            return entry
        self.misses += 1
        size = _jx_entry_bytes(n)
        while self.entries and self.nbytes + size > JX_CACHE_BYTES:
            self.nbytes -= _jx_entry_bytes(self.entries.popitem(last=False)[0])
        entry = _jx_whole(n) if n <= JX_SMALL_N else _jx_recurrence(n)
        self.entries[n] = entry
        self.nbytes += size
        return entry

    def cache_info(self) -> JxCacheInfo:
        return JxCacheInfo(self.hits, self.misses, len(self.entries), self.nbytes)

    def cache_clear(self) -> None:
        """Drops every entry and zeroes the counts, as functools' caches do."""
        self.entries.clear()
        self.nbytes = self.hits = self.misses = 0


_JX_STORE = _JxStore()
jx_cache_info = _JX_STORE.cache_info


def _jx_whole(n: int):
    """The whole eigensystem (tw, V), the stored entry at n <= JX_SMALL_N:
    the dense routes and scalar entries of validate's suites read whole
    rows of V."""
    tw, v = _expand_rows(n, *_jx_recurrence(n), np.arange(n))
    tw.setflags(write=False)
    v.setflags(write=False)
    return tw, v


def _jx_eigensystem(n: int):
    """The quarter (tw, Q) of the J_x eigensystem (see _jx_recurrence) from
    the store; at n <= JX_SMALL_N, views of the stored whole system.  Sizes
    past MAX_JX_N raise ContractError before anything is allocated.  The
    store's counts and reset are ``cache_info()`` and ``cache_clear()``."""
    tw, v = _JX_STORE.get(n)
    if n > JX_SMALL_N:
        return tw, v
    return tw[n // 2 :], v[: (n + 1) // 2, n // 2 :]


_jx_eigensystem.cache_info = _JX_STORE.cache_info
_jx_eigensystem.cache_clear = _JX_STORE.cache_clear


def _expand_rows(n: int, tw_q: np.ndarray, q: np.ndarray, rows, start: int = 0):
    """Rows of the whole J_x eigensystem from its quarter (tw_q, Q) (see
    _jx_recurrence): (tw, V[rows, start:]) for the ascending
    twice-eigenvalues tw[start:] and row indices ``rows`` (0..n-1, any
    shape), as a new array, bit for bit the recurrence run on every column.
    Column -mu is (-1)^i times column mu on the top rows (adding 0.0 leaves
    its zeros unsigned, as the recurrence for -mu does), and a bottom row i
    is the flip parity times row n-1-i."""
    tw = np.arange(-(n - 1), n, 2, dtype=np.int64)[start:]
    rows = np.asarray(rows)
    bottom = rows >= len(q)
    mirrored = np.where(bottom, n - 1 - rows, rows)
    top = q[mirrored, max(0, start - n // 2) :]
    if start < n // 2:
        signs = np.where(mirrored % 2, -1.0, 1.0)[..., None]
        neg = q[mirrored, n % 2 : len(q) - start][..., ::-1] * signs + 0.0
        top = np.concatenate([neg, top], axis=-1)
    return tw, top * np.where(bottom[..., None], _flip_parity(n, tw), 1.0)


def _jx_rows(n: int, rows, start: int = 0):
    """(tw, V[rows, start:]) of the whole J_x eigensystem (see
    _expand_rows), read from the stored whole system at n <= JX_SMALL_N."""
    tw, v = _JX_STORE.get(n)
    if n > JX_SMALL_N:
        return _expand_rows(n, tw, v, rows, start)
    return tw[start:], v[rows, start:]


def _jx_vectors(n: int):
    """The whole eigensystem of J_x, (tw, V) with V n x n, as a new array."""
    return _jx_rows(n, np.arange(n))


def jx_residual_bound(n: int) -> float:
    """Bound on max|J_x v - mu v| certifying _jx_eigensystem(n): 64 n eps
    (the recurrence measured at most 3.4 n eps for n <= 4096)."""
    return 64 * n * np.finfo(float).eps


RESIDUAL_BLOCK = 1 << 15  # entries of one block of residual rows (256 kB of floats)


def _jx_residual(b: np.ndarray, mu: np.ndarray, v: np.ndarray, half: int) -> float:
    """max|J_x v - mu v| over rows 0..half-1 (v holds rows 0..half), in
    blocks of RESIDUAL_BLOCK entries.  That is the max over all rows and all
    eigenvalues: the bottom rows are exact signed copies of the top ones, b
    is exactly symmetric, and every term of column -mu is the negated term
    of column mu."""
    worst = 0.0
    step = max(1, RESIDUAL_BLOCK // len(mu))
    for lo in range(0, half, step):
        hi = min(half, lo + step)
        r = b[lo:hi, None] * v[lo + 1 : hi + 1]
        r -= mu * v[lo:hi]
        if lo:
            r += b[lo - 1 : hi - 1, None] * v[lo - 1 : hi - 1]
        else:  # row 0 has no upper neighbour
            r[1:] += b[: hi - 1, None] * v[: hi - 1]
        worst = max(worst, float(np.max(np.abs(r, out=r))))
    return worst


@lru_cache(maxsize=64)
def _log_factorials(top: int) -> np.ndarray:
    """ln k! for k = 0..top (math.lgamma(k + 1)); cached, read-only."""
    lf = np.array([math.lgamma(k + 1) for k in range(top + 1)])
    lf.setflags(write=False)
    return lf


SUM_BLOCK = 1 << 17  # live terms of one block of the binomial sum (1 MB of floats)


def _wigner_sum(tj: int, tp, tm, theta: float) -> np.ndarray:
    """d^j_{m',m}(theta) by the binomial sum over broadcast twice-indices.

    tj = 2j; tp and tm are integer arrays (or scalars) of twice m' and twice
    m, already on the spin-j lattice.  Only the live terms of each entry are
    evaluated, s from max(0, m - m') to min(j - m', j + m), laid out flat:
    entries in C order, s ascending within each entry.  They run in blocks of
    whole entries with at most SUM_BLOCK terms (an entry has at most 2j + 1),
    so memory stays a few times that of the output whatever j.  The powers of
    cos(theta/2) and sin(theta/2) are gathered from tables of the tj + 1
    exponents.  np.bincount sums each entry's terms in order, which is the
    order of a sum over s, so an entry has the same bits alone
    (`wigner_d_sum`) as in a matrix.  A term too large for a float raises
    ComputationError, and so does an entry whose cancellation estimate
    4 tj eps sum_s |term_s| (each term's relative rounding grows with the
    powers' exponents, up to tj) exceeds 1e-8, `validate`'s cross-path
    tolerance.  A non-finite theta raises ContractError.
    """
    finite("theta", theta)
    tp, tm = np.broadcast_arrays(np.asarray(tp, dtype=np.int64), np.asarray(tm, dtype=np.int64))
    shape = tp.shape
    tp, tm = tp.ravel(), tm.ravel()
    lf = _log_factorials(tj)
    jp_plus, jp_minus = (tj + tp) // 2, (tj - tp) // 2  # j + m', j - m'
    jm_plus, jm_minus = (tj + tm) // 2, (tj - tm) // 2  # j + m, j - m
    diff = (tp - tm) // 2  # m' - m
    s_min = np.maximum(0, -diff)
    count = np.minimum(jp_minus, jm_plus) - s_min + 1  # live terms of each entry
    pref = 0.5 * (lf[jm_plus] + lf[jm_minus] - lf[jp_plus] - lf[jp_minus])
    k = np.arange(tj + 1)  # the sine's exponent, diff + 2 s
    cos_pow, sin_pow = math.cos(theta / 2) ** (tj - k), math.sin(theta / 2) ** k
    ends = np.cumsum(count)
    total, magnitude = np.empty(len(count)), np.empty(len(count))
    lo = 0
    while lo < len(count):
        first = ends[lo] - count[lo]  # live terms before entry lo
        hi = max(lo + 1, int(np.searchsorted(ends, first + SUM_BLOCK, side="right")))
        per = count[lo:hi]
        e = np.repeat(np.arange(lo, hi), per)
        s = np.arange(first, ends[hi - 1]) - np.repeat(ends[lo:hi] - per - s_min[lo:hi], per)
        d, jpm = diff[e], jp_minus[e]
        lb1 = lf[jp_plus[e]] - lf[jm_plus[e] - s] - lf[d + s]
        lb2 = lf[jpm] - lf[s] - lf[jpm - s]
        k_sin = d + 2 * s
        sign = 1.0 - 2.0 * ((d + s) % 2)
        with np.errstate(over="raise"):
            try:
                size = np.exp(pref[e] + lb1 + lb2)
            except FloatingPointError:
                raise ComputationError(f"binomial sum overflows at j = {HalfInt(tj)}") from None
        terms = sign * size * cos_pow[k_sin] * sin_pow[k_sin]
        total[lo:hi] = np.bincount(e - lo, weights=terms, minlength=hi - lo)
        magnitude[lo:hi] = np.bincount(e - lo, weights=np.abs(terms), minlength=hi - lo)
        lo = hi
    error = 4 * tj * np.finfo(float).eps * float(np.max(magnitude))
    if error > 1e-8:
        raise ComputationError(
            f"binomial sum lost to cancellation at j = {HalfInt(tj)}: error estimate {error:.3g}"
        )
    return total.reshape(shape)


def wigner_d_sum(j, mprime, m, theta: float) -> float:
    """Wigner d-function d^j_{m',m}(theta) by the explicit binomial sum.

    Exact convention of the rotation e^{-i theta J_y}; trustworthy to full
    precision for j <= 15 (alternating-sum cancellation grows with j).  A
    term beyond the float range, or a cancellation estimate above 1e-8,
    raises ComputationError.  Summed in s order, so it is the
    `wigner_d_sum_matrix` entry bit for bit.  j, m' and m are anything
    `HalfInt.coerce` takes; a weight off the spin-j lattice, or a theta that
    is not finite, raises ContractError.
    """
    tj = HalfInt.coerce(j).twice
    rp, rm = _lattice_rows(tj, (mprime, m))
    return float(_wigner_sum(tj, tj - 2 * rp, tj - 2 * rm, theta))


def wigner_d_sum_matrix(rep: SpinRep, theta: float = math.pi / 2) -> np.ndarray:
    """The whole d^j(theta) matrix by the binomial sum, in descending weight
    order; the same j <= 15 caveat and errors as `wigner_d_sum` (a theta
    that is not finite too), and each entry bit for bit its value."""
    return _wigner_sum(rep.j.twice, rep.twice[:, None], rep.twice[None, :], theta)


def _fourier_entries(rep: SpinRep, rows, cols, theta: float) -> np.ndarray:
    """d^j(theta)[rows, cols] by the Fourier expansion, on broadcast row and
    column indices into the descending weight order.

    Entry (i', i) is Re(exp(i pi/4 (t_i - t_i')) sum_nu V[i', nu] V[i, nu]
    exp(-i nu theta)) for the twice-weights t and the J_x eigenvectors V of
    eigenvalues nu: products of two entries of one eigenvector, so the value
    does not depend on the sign of any eigenvector.  A non-finite theta
    raises ContractError.
    """
    finite("theta", theta)
    tw, left = _jx_rows(rep.n, rows)
    sums = (left * _jx_rows(rep.n, cols)[1]) @ np.exp(-1j * (tw / 2.0) * theta)
    return (np.exp(1j * (math.pi / 4) * (rep.twice[cols] - rep.twice[rows])) * sums).real


def wigner_d_pi_half(rep: SpinRep) -> np.ndarray:
    """Full d^j(pi/2) matrix via the eigenvector route.

    Row/column indices follow the descending weight order, so column mu holds
    the J_x eigenvector of eigenvalue mu in the z-basis.  Its top entry is
    d_{j,mu}(pi/2) = (-1)^(j-mu) 2^(-j) sqrt(C(2j, j+mu)), and every
    J_x eigenvector column starts positive, so column k (mu = j - k) is the
    eigenvector times (-1)^k: the signs are exact by construction.
    """
    _, v = _jx_vectors(rep.n)
    return v[:, ::-1] * np.where(np.arange(rep.n) % 2, -1.0, 1.0)


def _kept_vectors(rep: SpinRep, a: float, name: str, rows=None) -> np.ndarray:
    """J_x eigenvectors (columns) whose weights exceed a*(j+1/2); may have no
    columns.  The eigenvalues ascend and a >= 0, so these are the last
    columns of Q (see _jx_recurrence).  Without ``rows``: their top
    ceil(n/2) rows, a read-only view of the cached Q, not a copy (D's range
    in every SU(2) family lies there).  With ``rows`` (indices 0..n-1, any
    shape): those rows, a new array, the bottom ones mirrored from Q."""
    threshold(f"{name}: a", a)
    tw, q = _jx_eigensystem(rep.n)
    start = int(np.searchsorted(tw, _floor_scaled(a, rep.n), side="right"))
    return q[:, start:] if rows is None else _jx_rows(rep.n, rows, rep.n // 2 + start)[1]


def projection_x(rep: SpinRep, a: float) -> np.ndarray:
    """Matrix of the spectral projection of J_x onto (a*(j+1/2), infinity).

    Built from J_x eigenvectors whose eigenvalues are the exact weight
    lattice, compared with the threshold in exact rational arithmetic, so
    classification is exact even when a*(j+1/2) grazes an eigenvalue.
    """
    vs = _kept_vectors(rep, a, "projection_x", np.arange(rep.n))
    p = vs @ vs.T
    return (p + p.T) / 2


def projection_x_entries(rep: SpinRep, a: float, pairs) -> np.ndarray:
    """Selected entries P_{m',m} of projection_x without forming the matrix.

    ``pairs`` is an iterable of (m', m); useful at dimensions where the full
    n x n projection would be wasteful.  The weights become row indices
    through `_lattice_rows` (anything `HalfInt.coerce` takes; one off the
    lattice raises ContractError), and each entry is a dot product of two
    rows of the kept J_x eigenvectors.
    """
    flat = [x for pair in pairs for x in pair]
    idx = np.array(_lattice_rows(rep.j.twice, flat), dtype=np.int64).reshape(-1, 2)
    left, right = (_kept_vectors(rep, a, "projection_x_entries", idx[:, k]) for k in (0, 1))
    return np.einsum("ij,ij->i", left, right)


def z_interval_mask(rep: SpinRep, b: float) -> np.ndarray:
    """Bool mask of the weights in (0, b*(j+1/2)], in the descending order.

    Selects the b_j smallest positive weights, which sit at the bottom of the
    positive block.
    """
    width("z_interval_mask: b", b)
    return (rep.twice > 0) & weights_at_most(rep.twice, b, rep.n)


def projection_z_interval(rep: SpinRep, b: float) -> np.ndarray:
    """Diagonal 0/1 matrix of the J_z spectral projection onto (0, b*(j+1/2)]."""
    return np.diag(z_interval_mask(rep, b).astype(float))


def fourier_expansion_d(rep: SpinRep, mprime, m) -> dict:
    """Fourier data of d^j_{m',m}: map mu -> d_{m,mu}(pi/2) * d_{m',mu}(pi/2).

    The full 4*pi-periodic expansion is recovered as
    exp(i*pi/2*(m-m')) * sum_mu coeff(mu) * exp(-i*mu*theta).  Coefficients
    are products of two entries of the same eigenvector column, hence
    independent of any sign convention; stable at any dimension.  A weight
    off the lattice raises ContractError (`_lattice_rows`).
    """
    tw, (row_m, row_mp) = _jx_rows(rep.n, _lattice_rows(rep.j.twice, (m, mprime)))
    prods = row_m * row_mp
    order = np.argsort(tw)[::-1]
    return {HalfInt(int(tw[i])): float(prods[i]) for i in order}


def wigner_d_theta(rep: SpinRep, mprime, m, theta: float) -> float:
    """d^j_{m',m}(theta) evaluated through the Fourier expansion.

    Large-j-safe alternative to the binomial sum (same convention).  A weight
    off the lattice, or a theta that is not finite, raises ContractError.
    """
    return float(_fourier_entries(rep, *_lattice_rows(rep.j.twice, (mprime, m)), theta))


def wigner_d_matrix(rep: SpinRep, theta: float) -> np.ndarray:
    """The whole d^j(theta) matrix through the Fourier expansion.

    With F = V diag(exp(-i tw/2 theta)) V^T (one complex GEMM on the J_x
    eigenvectors), entry (i', i) is Re(exp(i pi/4 (t_i - t_i')) F[i', i])
    for the twice-weights t: what `_fourier_entries` sums entry by entry.
    A non-finite theta raises ContractError.
    """
    finite("theta", theta)
    tw, v = _jx_vectors(rep.n)
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
    tw, v = _jx_vectors(n)
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
    Valid for m - m' >= -1 and theta in (0, pi - 0.2].  j, m' and m are
    anything `HalfInt.coerce` takes; a weight off the spin-j lattice, an
    m - m' below -1 or a theta outside the window raises ContractError.
    """
    tj = HalfInt.coerce(j).twice
    rp, rm = _lattice_rows(tj, (mprime, m))  # j - m', j - m
    diff = rp - rm  # m - m'
    if diff < -1:
        raise ContractError(f"szego_approximation requires m - m' >= -1, got {diff}")
    if not 0.0 < theta <= math.pi - 0.2:
        raise ContractError(f"theta {theta} outside validity window (0, pi - 0.2]")
    lg = math.lgamma
    # paired differences so equal indices cancel exactly (C = 1 when m' = m)
    log_ratio = 0.5 * (
        (lg(rp + 1) - lg(rm + 1))
        + (lg(tj - rm + 1) - lg(tj - rp + 1))
    )
    c = math.exp(log_ratio) / ((tj + 1) / 2.0) ** diff
    approx = c * math.sqrt(theta / math.sin(theta)) * bessel_j(diff, (tj + 1) / 2.0 * theta)
    return approx, c

"""SU(2) representation core: exact half-integer bookkeeping, spin operators,
Wigner d-functions along three routes, and the x-axis spectral projections.

Half-integers are stored as twice their value so that weight-lattice logic
(m - m' parities, threshold comparisons against a*(j + 1/2)) runs on exact
integers and rationals, never on floats.

The d-matrix at theta = pi/2 is computed two ways: the explicit binomial sum
(reliable for j <= 15, cancellation grows after that) and the eigenvector
route (diagonalize the tridiagonal J_x, stable for any dimension).  Columns
of the eigenvector route carry an arbitrary sign, fixed by calibrating each
column against the sum formula on the topmost row where both the computed
entry and the predicted value are resolvable.  Projections never need the
calibration: they are sums of column outer products, which are sign-blind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._errors import ComputationError, ContractError
from .linalg import tridiag_eigh
from .specfun import bessel_j

SIGN_RESOLUTION = 1e-13


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
        self.weights = tuple(HalfInt(n - 1 - 2 * i) for i in range(n))
        self.twice = np.arange(n - 1, -n, -2, dtype=np.int64)  # twice each weight
        self.twice.setflags(write=False)

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


def _floor_scaled(x, n: int) -> int:
    """floor(x*n) in exact rational arithmetic.  For an integer t,
    t > x*n exactly when t > floor(x*n), and t <= x*n exactly when
    t <= floor(x*n), so one integer settles a whole array of weights."""
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
    m = np.array([w.value for w in rep.weights])
    return 0.5 * np.sqrt(j * (j + 1) - m[:-1] * m[1:])


def build_spin_operators(rep: SpinRep) -> SpinOperators:
    """Matrices of J_x, J_y, J_z in the descending J_z eigenbasis.

    J_z is diagonal with entries m; J_x is real symmetric tridiagonal;
    J_y is imaginary antisymmetric tridiagonal.  [J_x, J_y] = i J_z holds to
    roundoff.
    """
    n = rep.n
    m = np.array([w.value for w in rep.weights])
    off = jx_offdiagonal(rep)
    jz = np.diag(m)
    jx = np.zeros((n, n))
    jx[np.arange(n - 1), np.arange(1, n)] = off
    jx[np.arange(1, n), np.arange(n - 1)] = off
    jy = np.zeros((n, n), dtype=complex)
    jy[np.arange(n - 1), np.arange(1, n)] = -1j * off
    jy[np.arange(1, n), np.arange(n - 1)] = 1j * off
    return SpinOperators(jx, jy, jz)


@lru_cache(maxsize=64)
def _jx_eigensystem(n: int):
    """Eigendecomposition of tridiagonal J_x: (twice-eigenvalues asc, vectors).

    Eigenvalues are snapped to the exact weight lattice {j, ..., -j}.
    Cached; returned arrays are read-only.
    """
    rep = SpinRep(n)
    w, v = tridiag_eigh(np.zeros(n), jx_offdiagonal(rep))
    tw = np.rint(2.0 * w).astype(np.int64)
    drift = float(np.max(np.abs(2.0 * w - tw)))
    if drift > 0.45:  # pragma: no cover - the spectrum is the exact lattice
        raise ComputationError(f"J_x eigenvalues strayed from the lattice by {drift}")
    expected = np.arange(-(n - 1), n, 2, dtype=np.int64)
    if not np.array_equal(np.sort(tw), expected):  # pragma: no cover
        raise ComputationError("J_x spectrum does not match the weight lattice")
    tw.setflags(write=False)
    v.setflags(write=False)
    return tw, v


def wigner_d_sum(j, mprime, m, theta: float) -> float:
    """Wigner d-function d^j_{m',m}(theta) by the explicit binomial sum.

    Exact convention of the rotation e^{-i theta J_y}; trustworthy to full
    precision for j <= 15 (alternating-sum cancellation grows with j).
    """
    j = HalfInt.coerce(j)
    mp = HalfInt.coerce(mprime)
    m = HalfInt.coerce(m)
    tj, tp, tm = j.twice, mp.twice, m.twice
    if abs(tp) > tj or abs(tm) > tj or (tj - tp) % 2 or (tj - tm) % 2:
        raise ContractError(f"indices ({mprime}, {m}) outside spin-{j} lattice")
    lg = math.lgamma
    pref = 0.5 * (
        lg((tj + tm) / 2 + 1)
        + lg((tj - tm) / 2 + 1)
        - lg((tj + tp) / 2 + 1)
        - lg((tj - tp) / 2 + 1)
    )
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    s_min = max(0, (tm - tp) // 2)
    s_max = min((tj - tp) // 2, (tj + tm) // 2)
    total = 0.0
    for sidx in range(s_min, s_max + 1):
        lb1 = (
            lg((tj + tp) / 2 + 1)
            - lg((tj + tm) / 2 - sidx + 1)
            - lg((tj + tp) / 2 - (tj + tm) / 2 + sidx + 1)
        )
        lb2 = lg((tj - tp) / 2 + 1) - lg(sidx + 1) - lg((tj - tp) / 2 - sidx + 1)
        k_cos = (2 * tj + tm - tp) // 2 - 2 * sidx
        k_sin = (tp - tm) // 2 + 2 * sidx
        sign = -1.0 if ((tp - tm) // 2 + sidx) % 2 else 1.0
        total += sign * math.exp(pref + lb1 + lb2) * c**k_cos * s**k_sin
    return total


def wigner_d_pi_half(rep: SpinRep) -> np.ndarray:
    """Full d^j(pi/2) matrix via the eigenvector route with sign calibration.

    Row/column indices follow the descending weight order, so column mu holds
    the J_x eigenvector of eigenvalue mu in the z-basis.  Each column's sign
    is fixed against the binomial-sum value on the topmost row where both the
    computed entry and the sum prediction resolve above 1e-13; rows whose
    entries sit below that are skipped (their true values are exponentially
    small in j).
    """
    n = rep.n
    tw, v = _jx_eigensystem(n)
    d = v[:, ::-1].copy()          # columns reordered to mu = j, ..., -j
    tmu = tw[::-1]
    tj = rep.j.twice
    for col in range(n):
        fixed = False
        for row in range(n):
            if abs(d[row, col]) <= SIGN_RESOLUTION:
                continue
            ref = wigner_d_sum(rep.j, HalfInt(tj - 2 * row), HalfInt(int(tmu[col])), math.pi / 2)
            if abs(ref) <= SIGN_RESOLUTION:
                continue
            if (d[row, col] > 0) != (ref > 0):
                d[:, col] = -d[:, col]
            fixed = True
            break
        if not fixed:  # pragma: no cover - a unit column always has a big entry
            raise ComputationError(f"sign calibration ambiguous for column mu={HalfInt(int(tmu[col]))}")
    return d


def _kept_vectors(rep: SpinRep, a: float, name: str) -> np.ndarray:
    """J_x eigenvectors (columns) whose weights exceed a*(j+1/2); may be n x 0."""
    if not 0.0 <= a < 1.0:
        raise ContractError(f"{name}: a must lie in [0, 1), got {a}")
    tw, v = _jx_eigensystem(rep.n)
    return v[:, weights_exceeding(tw, a, rep.n)]


def projection_x(rep: SpinRep, a: float) -> np.ndarray:
    """Matrix of the spectral projection of J_x onto (a*(j+1/2), infinity).

    Built from J_x eigenvectors with eigenvalues snapped to the exact weight
    lattice before the strict threshold test, so classification is immune to
    float drift even when a*(j+1/2) grazes an eigenvalue.
    """
    vs = _kept_vectors(rep, a, "projection_x")
    p = vs @ vs.T
    return (p + p.T) / 2


def projection_x_entries(rep: SpinRep, a: float, pairs) -> np.ndarray:
    """Selected entries P_{m',m} of projection_x without forming the matrix.

    ``pairs`` is an iterable of (m', m); useful at dimensions where the full
    n x n projection would be wasteful.
    """
    vs = _kept_vectors(rep, a, "projection_x_entries")
    pairs = list(pairs)
    out = np.zeros(len(pairs))
    for i, (mp, m) in enumerate(pairs):
        out[i] = float(vs[rep.index_of(mp)] @ vs[rep.index_of(m)])
    return out


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
    mp = HalfInt.coerce(mprime)
    m = HalfInt.coerce(m)
    tw, v = _jx_eigensystem(rep.n)
    prods = v[rep.index_of(m)] * v[rep.index_of(mp)]
    phase = np.exp(1j * (math.pi / 4) * (m.twice - mp.twice))
    val = phase * np.sum(prods * np.exp(-1j * (tw / 2.0) * theta))
    return float(val.real)


def verify_hilbert_formula(rep: SpinRep) -> float:
    """Max residual between projection_x(rep, 0) and the case-split formula
    built from the zeroth Fourier coefficient and the periodic Hilbert
    transform of d^j_{m',m} at 0 (frequency mu -> -i sgn(mu) on the
    4*pi-periodic circle).
    """
    n = rep.n
    if n > 31:
        raise ContractError("verify_hilbert_formula: supported for n <= 31")
    p = projection_x(rep, 0.0)
    tw, v = _jx_eigensystem(n)
    sgn = np.sign(tw.astype(float))
    zero_cols = np.where(tw == 0)[0]
    worst = 0.0
    for i_mp, mp in enumerate(rep.weights):
        for i_m, m in enumerate(rep.weights):
            diff = mp.diff_int(m)
            phase = np.exp(1j * (math.pi / 2) * diff)
            prods = v[i_m] * v[i_mp]
            if diff % 2 == 0:
                # zeroth coefficient exists only on the integer lattice
                z00 = phase.conjugate() * (prods[zero_cols[0]] if len(zero_cols) else 0.0)
                rhs = 0.5 * phase * ((1.0 if i_m == i_mp else 0.0) - z00)
            else:
                hilbert0 = phase.conjugate() * 1j * np.sum(sgn * prods)
                rhs = -0.5j * phase * hilbert0
            worst = max(worst, abs(complex(rhs) - p[i_mp, i_m]))
    return float(worst)


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

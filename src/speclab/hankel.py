"""Hankel matrices of arc-indicator symbols on the Hardy space.

The symbol is the indicator of the arc E_a = {z on the unit circle with
Re z > a}, 0 <= a < 1.  Its Fourier coefficients are arccos(a)/pi at
frequency 0 and sin(p*arccos a)/(pi*p) elsewhere; the associated Hankel
matrix has entries h_{k,l} = coeff(1 - k - l), constant along
anti-diagonals.  Truncations are monotone in size and certified from above
by the Nehari witness and from below by the essential-spectrum radius for
piecewise-continuous symbols, both of which evaluate to 1/2 here.

For a = 0 fourier_coeff evaluates the coefficients by integer logic
(sin(pi*p/2) is exactly 0, +1 or -1), so entries that vanish do so exactly.
Then h_{k,l} = 0.0 unless k = l (mod 2), so the truncation is the direct
sum of its odd-index and even-index blocks, both sign-conjugated Cauchy
(generalized Hilbert) matrices, and the odd one carries the norm.
Every coefficient grid in the package is _coeff_grid, fourier_coeff's
formula on an array, so the Hankel truncations and the ring and SE(2)
matrices built from it agree bit for bit.

Norms are matrix-free: H[i, j] = c[i + j] is applied as a Toeplitz product
on the reversed vector, its eigenvalue of largest modulus comes from
Lanczos, and each norm comes with a certificate (truncated_norm_record).
hankel_truncation builds the dense matrix, which the tests and validate
solve as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import ContractError
from .linalg import NormRecord, lanczos_top, toeplitz_matvec


@dataclass(frozen=True)
class ArcSymbol:
    """Indicator symbol of the arc Re z > a; alpha = arccos(a)."""

    a: float = 0.0
    alpha: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ContractError(f"arc parameter must lie in [0, 1), got {self.a}")
        object.__setattr__(self, "alpha", math.acos(self.a))


HALF_CIRCLE = ArcSymbol(0.0)


def fourier_coeff(sym: ArcSymbol, p: int) -> float:
    """Fourier coefficient of the arc indicator at integer frequency p."""
    p = int(p)
    if sym.a == 0.0:
        # sin(pi*p/2) by integer logic: exact zeros on even frequencies
        if p == 0:
            return 0.5
        r = p % 4
        if r % 2 == 0:
            return 0.0
        return (1.0 if r == 1 else -1.0) / (math.pi * p)
    if p == 0:
        return sym.alpha / math.pi
    return math.sin(p * sym.alpha) / (math.pi * p)


def _coeff_grid(sym: ArcSymbol, p: np.ndarray) -> np.ndarray:
    """fourier_coeff over an integer array: tabulated once per frequency in
    [min p, max p] by array arithmetic, then gathered.

    The table is fourier_coeff's formula on the array, the same IEEE
    operations on the same operands: at a = 0 its integer logic, at a != 0
    np.sin(q alpha) / (pi q) with alpha/pi at q = 0.  The bits equal
    fourier_coeff's where np.sin rounds as the C library's sin does, which
    the tests check over every lag in +-2^19.
    """
    p = np.asarray(p, dtype=np.int64)
    lo = int(p.min())
    q = np.arange(lo, int(p.max()) + 1)
    if sym.a == 0.0:
        vals = np.zeros(len(q))
        odd = q % 2 == 1
        vals[odd] = np.where(q[odd] % 4 == 1, 1.0, -1.0) / (math.pi * q[odd])
        vals[q == 0] = 0.5
    else:
        vals = np.sin(q * sym.alpha) / (math.pi * np.where(q == 0, 1, q))
        vals[q == 0] = sym.alpha / math.pi
    return vals[p - lo]


def hankel_truncation(sym: ArcSymbol, n: int) -> np.ndarray:
    """N x N truncated Hankel matrix h_{k,l} = coeff(1 - k - l), 1-based k, l."""
    if n < 1:
        raise ContractError(f"truncation size must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=np.int64)
    return _coeff_grid(sym, 1 - np.add.outer(k, k))


def truncated_norm_record(sym: ArcSymbol, n: int) -> NormRecord:
    """Operator norm of the N x N truncation, with its certificate.

    At a = 0 only the ceil(N/2) x ceil(N/2) odd-index block is solved.  Up to
    diagonal signs it is the positive Hankel matrix C[i, j] = |coeff(-(2(i+j)
    + 1))| = 1/(pi(2(i+j) + 1)) (0-based i, j), which dominates the even
    block entrywise, so by Perron-Frobenius its norm, its top eigenvalue, is
    ||H_N||.  For any x > 0 the Collatz-Wielandt inequality min_i (Cx)_i/x_i
    <= ||C|| <= max_i (Cx)_i/x_i brackets it; x is the modulus of the Lanczos
    Ritz vector, and each ratio is widened by 2 eps max(Cx)/x_i for the FFT's
    rounding.  That is an allowance, not a proven bound: against a
    long-double evaluation the FFT product was off by at most 1.2 eps
    max|Hx| in any entry (N <= 16384, a = 0 and a != 0).  method "perron".

    At a != 0 the whole truncation is solved, and the norm is the modulus of
    the Ritz value theta of largest modulus.  With r = ||Hx - theta x|| some
    eigenvalue lies within r of theta, so |theta| - r <= ||H_N|| <= 1/2, the
    upper end being the Nehari certificate.  method "lanczos".
    """
    if n < 1:
        raise ContractError(f"truncation size must be >= 1, got {n}")
    if sym.a == 0.0:
        m = (n + 1) // 2
        c = np.abs(_coeff_grid(sym, -(2 * np.arange(2 * m - 1) + 1)))
    else:
        m = n
        c = _coeff_grid(sym, -np.arange(1, 2 * m))
    toeplitz = toeplitz_matvec(c, m)

    def matvec(x):  # c[i + j] is entry (i, m - 1 - j) of the Toeplitz matrix
        return toeplitz(x[..., ::-1])

    ritz = lanczos_top(matvec, m)
    value = abs(ritz.value)
    if sym.a == 0.0:
        x = np.abs(ritz.vector)
        cx = matvec(x)
        slack = 2.0 * np.finfo(float).eps * cx.max()
        lower, upper = np.min((cx - slack) / x), np.max((cx + slack) / x)
        return NormRecord(value, "perron", ritz.matvecs + 1, float(lower), float(upper))
    residual = float(np.linalg.norm(matvec(ritz.vector) - ritz.value * ritz.vector))
    return NormRecord(value, "lanczos", ritz.matvecs + 1, value - residual, nehari_bound(sym))


def truncated_norm(sym: ArcSymbol, n: int) -> float:
    """Operator norm of the N x N truncation (nondecreasing in N); the value
    of truncated_norm_record."""
    return truncated_norm_record(sym, n).value


def nehari_bound(sym: ArcSymbol) -> float:
    """Upper-bound certificate for the Hankel operator norm.

    The witness symbol conj(z) * (indicator - c) matches the prescribed
    coefficients for every constant c; the sup-norm max(|1 - c|, |c|) is
    minimized at c = 1/2, giving 1/2 for every arc.  This is a certificate,
    not a claim that the bound is attained when a > 0.
    """
    c = 0.5
    return max(abs(1.0 - c), abs(c))


def _indicator_at_angle(sym: ArcSymbol, theta: float) -> float:
    return 1.0 if math.cos(theta) > sym.a else 0.0


def power_essential_radius(sym: ArcSymbol) -> float:
    """Lower-bound certificate: radius of the essential spectrum.

    The arc indicator jumps at the two endpoints exp(+-i*alpha); the jump at
    angle t is half the difference of one-sided limits.  The endpoints form a
    conjugate pair contributing the segment [-sqrt(-j1*j2), sqrt(-j1*j2)],
    while z = +-1 are continuity points contributing nothing.
    """
    eps = 1e-8

    def jump(theta: float) -> float:
        return 0.5 * (
            _indicator_at_angle(sym, theta + eps) - _indicator_at_angle(sym, theta - eps)
        )

    j_plus = jump(sym.alpha)
    j_minus = jump(-sym.alpha)
    j_one = jump(0.0)
    j_minus_one = jump(math.pi)
    radius = max(abs(j_one), abs(j_minus_one))
    pair = -j_plus * j_minus
    if pair > 0:
        radius = max(radius, math.sqrt(pair))
    return radius

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
(generalized Hilbert) matrices, and the odd one carries the norm.  One
kernel, _odd_block_record, solves that block for the square truncations
and for the K x (K + 1) sections that are the SE(2) commutator's block.
Every coefficient grid in the package is _coeff_grid, fourier_coeff's
formula on an array, so the Hankel truncations and the ring and SE(2)
matrices built from it agree bit for bit.

Norms are matrix-free: H[i, j] = c[i + j] is applied as a Toeplitz product
on the reversed vector, and linalg.certified_norm gives each norm its
certificate (truncated_norm_record).
hankel_truncation builds the dense matrix, which the tests and validate
solve as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._errors import integer, integer_at_least, threshold
from .linalg import NormRecord, certified_norm, toeplitz_matvec


@dataclass(frozen=True)
class ArcSymbol:
    """Indicator symbol of the arc Re z > a; alpha = arccos(a)."""

    a: float = 0.0
    alpha: float = field(init=False)

    def __post_init__(self):
        threshold("arc parameter", self.a)
        object.__setattr__(self, "alpha", math.acos(self.a))


HALF_CIRCLE = ArcSymbol(0.0)


def fourier_coeff(sym: ArcSymbol, p: int) -> float:
    """Fourier coefficient of the arc indicator at integer frequency p (a
    Python or numpy integer, not a bool: 2.7 is refused, not read as 2)."""
    p = integer("fourier_coeff: p", p)
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
    n = integer_at_least("truncation size", n, 1)
    k = np.arange(1, n + 1, dtype=np.int64)
    return _coeff_grid(sym, 1 - np.add.outer(k, k))


def _hankel_apply(c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> H x for the m x m Hankel matrix H[i, j] = c[i + j], len(c) =
    2m - 1: c[i + j] is entry (i, m - 1 - j) of the Toeplitz matrix of c, so
    H x is its product with x reversed (each row of a 2-D block)."""
    toeplitz = toeplitz_matvec(c, (len(c) + 1) // 2)
    return lambda x: toeplitz(x[..., ::-1])


def _odd_block_record(rows: int, cols: int) -> NormRecord:
    """Norm of the rows x cols section of the half-circle Hankel matrix,
    cols = rows or rows + 1, with its Perron certificate (certified_norm).

    Up to diagonal signs the section's odd-index block is the positive
    Cauchy-like C[i, j] = |coeff(-(2(i+j) + 1))| = 1/(pi(2(i+j) + 1))
    (0-based), m x m' with m = ceil(rows/2), m' = ceil(cols/2).  Entries
    between indices of different parity are 0.0 and the even block is a
    submatrix of C, so ||C|| is the norm.  The kernel runs on C when m' = m,
    and on the Gram operator C C^T when m' = m + 1: C = G[:m] for the
    m' x m' kernel G, so C C^T x = (G G [x; 0])[:m].
    """
    m, wide = (rows + 1) // 2, (cols + 1) // 2
    matvec = _hankel_apply(np.abs(_coeff_grid(HALF_CIRCLE, -(2 * np.arange(2 * wide - 1) + 1))))
    if wide > m:
        square = matvec

        def matvec(x):
            y = np.zeros(x.shape[:-1] + (wide,))
            y[..., :m] = x
            return square(square(y))[..., :m]

    return certified_norm(matvec, m, gram=wide > m, perron=True)


def truncated_norm_record(sym: ArcSymbol, n: int) -> NormRecord:
    """Operator norm of the N x N truncation, with its certificate.

    At a = 0 the norm is that of the ceil(N/2) x ceil(N/2) odd-index block,
    solved with its Perron bracket by the kernel that also solves the SE(2)
    block, the K x (K + 1) section (_odd_block_record).  method "perron".
    At a != 0 certified_norm solves the whole truncation: the lower end is
    |theta| - ||Hx - theta x|| and the upper end Nehari's 1/2.  method
    "lanczos".
    """
    n = integer_at_least("truncation size", n, 1)
    if sym.a == 0.0:
        return _odd_block_record(n, n)
    return certified_norm(_hankel_apply(_coeff_grid(sym, -np.arange(1, 2 * n))), n)


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


def power_essential_radius(sym: ArcSymbol) -> float:
    """Lower-bound certificate: radius of the essential spectrum, 1/2 for
    every arc.

    The arc indicator jumps at the two endpoints exp(+-i*alpha); the jump at
    angle t is half the difference of one-sided limits, -1/2 at alpha and
    +1/2 at -alpha.  The endpoints form a conjugate pair contributing the
    segment [-sqrt(-j1*j2), sqrt(-j1*j2)] = [-1/2, 1/2].  ArcSymbol admits
    only 0 <= a < 1, so 0 < alpha <= pi/2: z = 1 lies inside the arc and
    z = -1 outside, continuity points contributing nothing.
    """
    return 0.5

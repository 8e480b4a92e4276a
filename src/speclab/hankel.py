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
(generalized Hilbert) matrices; the odd one carries the norm, and
truncated_norm solves it alone (an eighth of the flops of the full solve).
Every coefficient grid in the package is fourier_coeff tabulated once per
frequency and gathered, so the Hankel truncations and the ring and SE(2)
matrices built from them agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import ContractError
from .linalg import operator_norm


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
    [min p, max p], then gathered, so the values are fourier_coeff's bitwise."""
    p = np.asarray(p, dtype=np.int64)
    lo = int(p.min())
    vals = np.array([fourier_coeff(sym, q) for q in range(lo, int(p.max()) + 1)])
    return vals[p - lo]


def _hankel_block(sym: ArcSymbol, k: np.ndarray) -> np.ndarray:
    """Rows and columns k (1-based) of the Hankel matrix: coeff(1 - k_i - k_j)."""
    return _coeff_grid(sym, 1 - np.add.outer(k, k))


def hankel_truncation(sym: ArcSymbol, n: int) -> np.ndarray:
    """N x N truncated Hankel matrix h_{k,l} = coeff(1 - k - l), 1-based k, l."""
    if n < 1:
        raise ContractError(f"truncation size must be >= 1, got {n}")
    return _hankel_block(sym, np.arange(1, n + 1, dtype=np.int64))


def truncated_norm(sym: ArcSymbol, n: int) -> float:
    """Operator norm of the N x N truncation (nondecreasing in N).

    At a = 0 the truncation is the direct sum of its odd-index and even-index
    blocks, and the odd block carries the norm: up to diagonal signs it is the
    Cauchy matrix 1/(pi(2(i+j) - 3)), which dominates the even block's
    1/(pi(2(i+j) - 1)) entrywise, so by Perron-Frobenius its norm is the larger.
    Only the ceil(N/2) x ceil(N/2) odd block is built and solved.
    """
    if n < 1:
        raise ContractError(f"truncation size must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=np.int64)
    return operator_norm(_hankel_block(sym, k[0::2] if sym.a == 0.0 else k))


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

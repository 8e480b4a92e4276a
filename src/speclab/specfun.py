"""Special functions: Bessel J_p, Jacobi polynomials, closed-form Hilbert
transforms, and the arcsin-family integrals behind the shifted-symbol limits.

Bessel evaluation switches between two representations: the ascending series
(accumulated in extended precision via a term recurrence, no per-term lgamma
noise) for small arguments and for orders beyond the oscillatory regime, and
the integral representation (1/pi) * int_0^pi cos(p t - x sin t) dt on a
256-node trapezoid rule, which is spectrally accurate because the integrand
extends to a smooth 2*pi-periodic function.  The series crossover is |x| = 12;
above that the trapezoid owns the oscillatory band p <= x + 4 x^(1/3) and the
series owns the exponentially small tail where the integral's absolute floor
would dominate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import numpy.polynomial  # noqa: F401  (loaded at import, not on the first quadrature)

from ._errors import ContractError

MAX_ORDER = 64
SERIES_CROSSOVER = 12.0
TRAPEZOID_NODES = 256


def bessel_j(p: int, x: float) -> float:
    """Bessel function of the first kind, integer order.

    Orders are limited to |p| <= 64; accuracy is tuned for |x| <= 50.
    Negative orders and arguments reduce through J_{-p}(x) = (-1)^p J_p(x)
    = J_p(-x).
    """
    sign, p, x = _reduced(p, x)
    if not math.isfinite(x):
        raise ContractError("bessel_j: non-finite argument")
    if x == 0.0:
        return sign * (1.0 if p == 0 else 0.0)
    if x <= SERIES_CROSSOVER or p > x + 4.0 * x ** (1.0 / 3.0):
        return sign * _series(p, x)
    return sign * _integral(p, x)


def _reduced(p: int, x: float) -> tuple[int, int, float]:
    """(sign, |p|, |x|) with J_p(x) = sign * J_|p|(|x|), through
    J_{-p}(x) = (-1)^p J_p(x) = J_p(-x); refuses |p| > MAX_ORDER."""
    if abs(p) > MAX_ORDER:
        raise ContractError(f"order {p} outside supported range |p| <= {MAX_ORDER}")
    return (-1 if p % 2 and (p < 0) != (x < 0) else 1), abs(p), (-x if x < 0 else x)


def _series(p: int, x: float) -> float:
    # ascending series, term recurrence in extended precision
    half = np.longdouble(x) / 2
    h2 = half * half
    term = half**p / np.longdouble(math.factorial(p))
    total = term
    for k in range(1, 400):
        term = -term * h2 / (np.longdouble(k) * np.longdouble(k + p))
        total += term
        if abs(term) <= np.longdouble(1e-25) * max(abs(total), np.longdouble(1e-300)) and 2 * k > x:
            break
    return float(total)


# the trapezoid's nodes t_k = k pi / TRAPEZOID_NODES, k = 0..TRAPEZOID_NODES,
# and sin(t_k): built once, read-only
_NODES = np.arange(TRAPEZOID_NODES + 1) * (math.pi / TRAPEZOID_NODES)
_SIN_NODES = np.sin(_NODES)
_NODES.setflags(write=False)
_SIN_NODES.setflags(write=False)


def _integral(p: int, x: float) -> float:
    n = TRAPEZOID_NODES
    f = np.cos(p * _NODES - x * _SIN_NODES)
    return float((np.sum(f) - 0.5 * (f[0] + f[-1])) * (math.pi / n) / math.pi)


def bessel_j_integral(p: int, x: float) -> float:
    """Integral-representation evaluation, exposed for cross-checks."""
    sign, p, x = _reduced(p, x)
    return sign * _integral(p, x)


def bessel_j_series(p: int, x: float) -> float:
    """Series-representation evaluation, exposed for cross-checks."""
    sign, p, x = _reduced(p, x)
    if x == 0.0:
        return sign * (1.0 if p == 0 else 0.0)
    return sign * _series(p, x)


def jacobi_p(k: int, alpha: float, beta: float, x: float) -> float:
    """Jacobi polynomial P_k^(alpha, beta)(x) by the three-term recurrence.

    The recurrence is accumulated in extended precision; alpha > -1 and
    x in [-1, 1] are required.
    """
    if k < 0:
        raise ContractError("jacobi_p: degree must be nonnegative")
    if alpha <= -1:
        raise ContractError("jacobi_p: alpha must exceed -1")
    if not -1.0 <= x <= 1.0:
        raise ContractError("jacobi_p: x outside [-1, 1]")
    if k == 0:
        return 1.0
    a = np.longdouble(alpha)
    b = np.longdouble(beta)
    xx = np.longdouble(x)
    p_prev = np.longdouble(1.0)
    p_cur = (a + 1) + (a + b + 2) * (xx - 1) / 2
    for n in range(2, k + 1):
        nn = np.longdouble(n)
        c1 = 2 * nn * (nn + a + b) * (2 * nn + a + b - 2)
        c2 = (2 * nn + a + b - 1) * ((2 * nn + a + b) * (2 * nn + a + b - 2) * xx + a * a - b * b)
        c3 = 2 * (nn + a - 1) * (nn + b - 1) * (2 * nn + a + b)
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return float(p_cur)


def hilbert_bessel_at_zero(p: int) -> float:
    """Hilbert transform of J_p on the line, evaluated at zero.

    Closed form -(1 - (-1)^p) / (pi p): zero for even p, -2/(pi p) for odd p.
    Undefined at p = 0 (that case is handled separately upstream).
    """
    if p == 0:
        raise ContractError("hilbert_bessel_at_zero: p = 0 is excluded")
    if p % 2 == 0:
        return 0.0
    return -2.0 / (math.pi * p)


def cap_integral(a: float, p: int) -> float:
    """Arcsin-family integrals int_0^inf w(a x) J_p(x) / x dx.

    Returns arcsin(a) for p = 0 (sine weight), sin(p arcsin a)/p for even
    p != 0 (sine weight), and cos(p arcsin a)/p for odd p (cosine weight).
    """
    if not 0.0 <= a < 1.0:
        raise ContractError(f"cap_integral: a must lie in [0, 1), got {a}")
    if p == 0:
        return math.asin(a)
    if p % 2 == 0:
        return math.sin(p * math.asin(a)) / p
    return math.cos(p * math.asin(a)) / p


@lru_cache(maxsize=8)
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre nodes and weights of one order; cached, read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_quad(f, lo: float, hi: float, nodes: int = 64) -> float:
    """Gauss-Legendre quadrature of a callable on [lo, hi] (validation helper)."""
    x, w = _legendre_rule(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return float(half * np.sum(w * np.asarray([f(mid + half * xi) for xi in x])))

"""Special functions: Bessel J_p, closed-form Hilbert transforms, and the
arcsin-family integrals behind the shifted-symbol limits.

Bessel evaluation switches between two representations: the ascending series
(accumulated in extended precision via a term recurrence, no per-term lgamma
noise) for small arguments and for orders beyond the oscillatory regime, and
the integral representation (1/pi) * int_0^pi cos(p t - x sin t) dt on a
256-node trapezoid rule, which is spectrally accurate because the integrand
extends to a smooth 2*pi-periodic function.  The series crossover is |x| = 12;
above that the trapezoid owns the oscillatory band p <= x + 4 x^(1/3) and the
series owns the exponentially small tail where the integral's absolute floor
would dominate.  The Bessel entry points take arrays: one kernel evaluates a
whole (p, x) grid, a scalar included, each entry bit for bit what a
per-entry loop gives.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._errors import ContractError, threshold

MAX_ORDER = 64
SERIES_CROSSOVER = 12.0
TRAPEZOID_NODES = 256
SERIES_TERMS = 400  # a cap: every entry's own stopping test ends its series first
INTEGRAL_ROWS = 256  # entries per cosine grid of the trapezoid rule (0.5 MB of float64)


def bessel_j(p, x):
    """Bessel function of the first kind, integer order.

    The orders ``p`` (a Python int or an integer-dtype array) and the real
    arguments ``x`` broadcast against each other: scalars give a Python
    float, anything else a float64 array of the broadcast shape.  Orders
    are limited to |p| <= 64; accuracy is tuned for |x| <= 50.  Negative
    orders and arguments reduce through J_{-p}(x) = (-1)^p J_p(x) = J_p(-x).
    An order that is not an integer, or an argument that is not finite,
    anywhere in the input raises ContractError before anything is evaluated.
    """
    negate, p, x, shape = _reduced(p, x, "bessel_j")
    out = _at_zero(p, x)
    series = (x != 0.0) & (x <= SERIES_CROSSOVER)
    high = x > SERIES_CROSSOVER
    series[high] = _beyond_oscillatory_band(p[high], x[high])
    integral = high & ~series
    out[series] = _series(p[series], x[series])
    out[integral] = _integral(p[integral], x[integral])
    return _signed(negate, out, shape)


def bessel_j_integral(p, x):
    """Integral-representation evaluation, exposed for cross-checks; the
    arguments and contract of bessel_j."""
    negate, p, x, shape = _reduced(p, x, "bessel_j_integral")
    return _signed(negate, _integral(p, x), shape)


def bessel_j_series(p, x):
    """Series-representation evaluation, exposed for cross-checks; the
    arguments and contract of bessel_j."""
    negate, p, x, shape = _reduced(p, x, "bessel_j_series")
    out = _at_zero(p, x)
    live = x != 0.0
    out[live] = _series(p[live], x[live])
    return _signed(negate, out, shape)


def _reduced(p, x, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """(negate, |p|, |x|, shape): flat arrays over the broadcast shape of p
    and x, with J_p(x) = -J_|p|(|x|) where negate holds, through
    J_{-p}(x) = (-1)^p J_p(x) = J_p(-x).  Refuses an order that is not an
    integer or exceeds MAX_ORDER, and an argument that is not real or not
    finite."""
    if isinstance(p, int) and abs(p) > MAX_ORDER:  # before numpy sees a huge int
        raise ContractError(f"order {p} outside supported range |p| <= {MAX_ORDER}")
    orders, args = np.asarray(p), np.asarray(x)
    if orders.dtype.kind not in "iu":
        raise ContractError(f"{name}: orders must be integers, got {p!r}")
    if orders.size and (orders.min() < -MAX_ORDER or orders.max() > MAX_ORDER):
        bad = orders[np.abs(orders.astype(float)) > MAX_ORDER].flat[0]
        raise ContractError(f"order {bad} outside supported range |p| <= {MAX_ORDER}")
    if args.dtype.kind not in "iuf":
        raise ContractError(f"{name}: arguments must be real, got {x!r}")
    if not np.isfinite(args).all():
        raise ContractError(f"{name}: non-finite argument")
    shape = np.broadcast(orders, args).shape
    orders, args = (t if t.shape == shape else np.broadcast_to(t, shape) for t in (orders, args))
    orders, args = orders.astype(np.int64).ravel(), args.astype(float).ravel()
    negate = (orders % 2 == 1) & ((orders < 0) != (args < 0))
    return negate, np.abs(orders), np.abs(args), shape


def _signed(negate: np.ndarray, values: np.ndarray, shape: tuple):
    """J_p(x) from J_|p|(|x|): negated where ``negate`` holds, in the
    broadcast shape, a Python float for scalar inputs."""
    out = np.where(negate, -values, values).reshape(shape)
    return float(out) if shape == () else out


def _at_zero(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_p(0) where x = 0 (1 at p = 0, else 0), and 0 elsewhere."""
    return np.where((x == 0.0) & (p == 0), 1.0, 0.0)


def _beyond_oscillatory_band(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p > x + 4 x^(1/3) per entry, decided as Python floats decide it:
    numpy's power may round x^(1/3) other than the C library's pow does, by
    a few ulps, so an order within 1e-9 of its edge is decided again with
    Python floats."""
    edge = x + 4.0 * np.power(x, 1.0 / 3.0)
    beyond = p > edge
    for i in np.flatnonzero(np.abs(p - edge) <= 1e-9 * edge).tolist():
        y = float(x[i])
        beyond[i] = int(p[i]) > y + 4.0 * y ** (1.0 / 3.0)
    return beyond


# k! in extended precision, k = 0..MAX_ORDER: the series' leading denominators
_FACTORIALS = np.array([np.longdouble(math.factorial(k)) for k in range(MAX_ORDER + 1)])
_FACTORIALS.setflags(write=False)
_TINY_SUM = np.longdouble(1e-300)


def _series(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The ascending series at orders p >= 0 and arguments x > 0 (flat
    arrays): a term recurrence in extended precision, run on every entry
    whose series has not yet stopped.  An entry stops after the first term
    k with |term| <= 1e-25 max(|sum|, 1e-300) and 2k > x, so no entry's
    test is evaluated while 2k <= min x."""
    out = np.empty(len(x))
    rows = np.arange(len(x))
    half = x.astype(np.longdouble) / 2
    neg_h2 = -(half * half)  # -term * h2 = term * -h2: negation is exact
    orders = p.astype(np.longdouble)
    term = half**p / _FACTORIALS[p]
    total = term
    lowest = float(x.min(initial=math.inf))  # the smallest live argument
    for k in range(1, SERIES_TERMS):
        if not len(rows):
            break
        term = term * neg_h2 / ((orders + k) * k)  # k (k + p) is an exact integer
        total = total + term
        if not 2 * k > lowest:
            continue
        done = np.abs(term) <= np.longdouble(1e-25) * np.maximum(np.abs(total), _TINY_SUM)
        done &= 2 * k > x
        if done.any():
            out[rows[done]] = total[done]
            keep = ~done
            rows, x, orders, neg_h2, term, total = (
                t[keep] for t in (rows, x, orders, neg_h2, term, total))
            lowest = float(x.min(initial=math.inf))
    out[rows] = total
    return out


# the trapezoid's nodes t_k = k pi / TRAPEZOID_NODES, k = 0..TRAPEZOID_NODES,
# and sin(t_k): built once, read-only
_NODES = np.arange(TRAPEZOID_NODES + 1) * (math.pi / TRAPEZOID_NODES)
_SIN_NODES = np.sin(_NODES)
_NODES.setflags(write=False)
_SIN_NODES.setflags(write=False)


def _integral(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The trapezoid rule for (1/pi) int_0^pi cos(p t - x sin t) dt at flat
    arrays of orders and arguments: one cosine grid of INTEGRAL_ROWS
    entries by the nodes at a time, each row summed on its own."""
    out = np.empty(len(x))
    for lo in range(0, len(x), INTEGRAL_ROWS):
        rows = slice(lo, lo + INTEGRAL_ROWS)
        f = p[rows, None] * _NODES
        f -= x[rows, None] * _SIN_NODES
        np.cos(f, out=f)
        ends = 0.5 * (f[:, 0] + f[:, -1])
        out[rows] = (f.sum(axis=1) - ends) * (math.pi / TRAPEZOID_NODES) / math.pi
    return out


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
    threshold("cap_integral: a", a)
    if p == 0:
        return math.asin(a)
    if p % 2 == 0:
        return math.sin(p * math.asin(a)) / p
    return math.cos(p * math.asin(a)) / p


@lru_cache(maxsize=8)
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre nodes and weights of one order; cached, read-only.
    numpy.polynomial loads on the first call, as only validate integrates."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_quad(f, lo: float, hi: float, nodes: int = 64) -> float:
    """Gauss-Legendre quadrature of a callable on [lo, hi] (validation helper)."""
    x, w = _legendre_rule(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return float(half * np.sum(w * np.asarray([f(mid + half * xi) for xi in x])))

import math
import warnings

import numpy as np
import pytest
from scipy.special import jv

from speclab import ContractError, bessel_j, cap_integral, hilbert_bessel_at_zero
from speclab.specfun import (
    MAX_ORDER,
    SERIES_CROSSOVER,
    TRAPEZOID_NODES,
    _NODES,
    _SIN_NODES,
    _integral,
    bessel_j_integral,
    bessel_j_series,
    gauss_legendre_quad,
)


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


@pytest.mark.parametrize("x", [0.3, 1.0, 4.7, 13.2, 29.0])
def test_bessel_negative_order_parity(x):
    assert bessel_j(-1, x) == -bessel_j(1, x)
    assert bessel_j(-4, x) == bessel_j(4, x)
    assert bessel_j(2, -x) == bessel_j(2, x)
    assert bessel_j(3, -x) == -bessel_j(3, x)


def test_bessel_series_vs_integral_grid():
    for p in range(6):
        for x in (0.5, 1.0, 2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0):
            assert abs(bessel_j_series(p, x) - bessel_j_integral(p, x)) <= 1e-9


def test_bessel_accuracy_against_scipy():
    # relative accuracy away from zeros of J_p; near a zero only absolute
    # accuracy is meaningful
    for p in range(0, 65, 4):
        for x in (0.5, 3.0, 7.0, 10.0, 12.5, 20.0, 33.0, 50.0):
            ref = jv(p, x)
            got = bessel_j(p, x)
            if abs(ref) > 1e-12:
                assert abs(got - ref) <= 1e-10 * abs(ref), (p, x)
            else:
                assert abs(got - ref) <= 1e-14, (p, x)


def test_bessel_decay_bound():
    for p in range(6):
        for x in np.linspace(10.0, 50.0, 81):
            assert abs(bessel_j(p, float(x))) * math.sqrt(x) <= 1.0


def test_bessel_order_contract():
    with pytest.raises(ContractError):
        bessel_j(65, 1.0)
    with pytest.raises(ContractError):
        bessel_j(-70, 1.0)


def _bits(v):
    return np.float64(v).view(np.int64)


@pytest.mark.parametrize("f", [bessel_j, bessel_j_series, bessel_j_integral])
def test_negative_order_and_argument_reduce_bit_for_bit(f):
    # J_{-p}(x) = (-1)^p J_p(x) = J_p(-x), signed zeros included
    for p in range(9):
        sign = (-1) ** p
        assert _bits(f(-p, 0.0)) == _bits(sign * f(p, 0.0)), p
        for x in (0.7, 5.0, 12.5, 13.0, 30.0):
            base = f(p, x)
            for q, y, s in ((-p, x, sign), (p, -x, sign), (-p, -x, 1)):
                assert _bits(f(q, y)) == _bits(s * base), (q, y)


def test_trapezoid_nodes_are_read_only():
    for table in (_NODES, _SIN_NODES):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def _integral_per_call(p, x):
    n = TRAPEZOID_NODES
    t = np.arange(n + 1) * (math.pi / n)
    f = np.cos(p * t - x * np.sin(t))
    return float((np.sum(f) - 0.5 * (f[0] + f[-1])) * (math.pi / n) / math.pi)


def test_integral_on_shared_nodes_is_the_per_call_rule_bit_for_bit():
    # the (p, x) grids of validate's two Bessel suites, as one call
    xs = [0.5, 1.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0] + [float(x) for x in np.linspace(10.0, 50.0, 41)]
    p, x = (t.ravel() for t in np.meshgrid(np.arange(6), xs, indexing="ij"))
    want = [_integral_per_call(int(q), float(y)) for q, y in zip(p, x)]
    assert np.array_equal(_integral(p, x).view(np.int64), np.array(want).view(np.int64))


def test_hilbert_bessel_closed_form():
    assert hilbert_bessel_at_zero(2) == 0.0
    assert abs(hilbert_bessel_at_zero(1) + 2 / math.pi) <= 1e-15
    assert abs(hilbert_bessel_at_zero(-3) - 2 / (3 * math.pi)) <= 1e-15
    with pytest.raises(ContractError):
        hilbert_bessel_at_zero(0)


@pytest.mark.parametrize("p", [-7, -2, 1, 3, 8, 15])
def test_hilbert_bessel_vs_quadrature(p):
    # the x = 0 integral representation reduces to (1/pi) int_0^pi sin(-p t) dt
    quad = gauss_legendre_quad(lambda t: math.sin(-p * t) / math.pi, 0.0, math.pi, nodes=128)
    if p % 2 == 0:
        assert abs(quad) <= 1e-8
        assert hilbert_bessel_at_zero(p) == 0.0
    else:
        assert abs(hilbert_bessel_at_zero(p) - quad) <= 1e-8


# validate's Hilbert-quadrature suite at nodes = 64, p = 1, 3, ..., 15, as
# computed when numpy.polynomial was loaded at import; the integrand is odd
# in p, so -p gives the negated bits
HILBERT_QUADRATURE_64 = {
    1: "-0x1.45f306dc9c88bp-1", 3: "-0x1.b2995e7b7b60dp-3", 5: "-0x1.04c26be3b06dap-3",
    7: "-0x1.7483758e69bfap-4", 9: "-0x1.21bb9452523fdp-4", 11: "-0x1.da1bace3cc654p-5",
    13: "-0x1.912b1c2336c71p-5", 15: "-0x1.5bade52f95dc9p-5",
}


def test_gauss_legendre_quad_bit_for_bit_on_validate_orders():
    for p, bits in HILBERT_QUADRATURE_64.items():
        for sign in (1, -1):
            quad = gauss_legendre_quad(
                lambda t: math.sin(-sign * p * t) / math.pi, 0.0, math.pi, nodes=64
            )
            assert quad == sign * float.fromhex(bits), (sign * p, quad.hex())


def test_cap_integral_values():
    assert cap_integral(0.0, 0) == 0.0
    assert abs(cap_integral(1 / math.sqrt(2), 0) - math.pi / 4) <= 1e-15
    for a in (0.0, 0.2, 0.9):
        assert abs(cap_integral(a, 1) - math.sqrt(1 - a * a)) <= 1e-14
    assert cap_integral(0.0, 1) == 1.0


def test_cap_integral_even_case():
    for a in (0.1, 0.6):
        assert abs(cap_integral(a, 2) - math.sin(2 * math.asin(a)) / 2) <= 1e-15


def test_cap_integral_hilbert_consistency():
    # at a = 0 the odd-p value is 1/p while the Hilbert transform gives
    # -2/(pi p); the ratio -2/pi is exact for every odd p
    for p in range(1, 16, 2):
        ratio = hilbert_bessel_at_zero(p) / cap_integral(0.0, p)
        assert abs(ratio + 2 / math.pi) <= 1e-14


def test_cap_integral_contract():
    with pytest.raises(ContractError):
        cap_integral(1.0, 1)
    with pytest.raises(ContractError):
        cap_integral(-0.1, 1)


def _reduced_scalar(p, x):
    return (-1 if p % 2 and (p < 0) != (x < 0) else 1), abs(p), (-x if x < 0 else x)


def _series_scalar(p, x):
    """The per-entry series loop the array kernel replaced, kept as the
    bitwise reference: one longdouble term recurrence per (p, x)."""
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


def _bessel_j_scalar(p, x):
    """The per-entry bessel_j, its branch decided with Python floats."""
    sign, p, x = _reduced_scalar(p, x)
    if x == 0.0:
        return sign * (1.0 if p == 0 else 0.0)
    if x <= SERIES_CROSSOVER or p > x + 4.0 * x ** (1.0 / 3.0):
        return sign * _series_scalar(p, x)
    return sign * _integral_per_call(p, x)


def _bessel_j_series_scalar(p, x):
    sign, p, x = _reduced_scalar(p, x)
    if x == 0.0:
        return sign * (1.0 if p == 0 else 0.0)
    return sign * _series_scalar(p, x)


def _bessel_j_integral_scalar(p, x):
    sign, p, x = _reduced_scalar(p, x)
    return sign * _integral_per_call(p, x)


def _assert_kernel_is_the_scalar_loop(f, ref, p, x):
    # int64 views, so a signed zero would count
    p, x = np.broadcast_arrays(np.asarray(p), np.asarray(x, dtype=float))
    got = f(p, x)
    want = np.array([ref(int(q), float(y)) for q, y in zip(p.ravel(), x.ravel())]).reshape(p.shape)
    assert got.shape == p.shape
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), list(zip(p[differ], x[differ]))


def _branch_edges():
    """(p, x) at the x of each order's edge p = x + 4 x^(1/3) above the
    crossover and six ulps to either side, the edge found by bisection in
    Python floats.  numpy's power may round x^(1/3) other than Python's pow
    does (it would send p = 45, x = 32.26573597844316 to the other branch)."""
    ps, xs = [], []
    for p in range(22, MAX_ORDER + 1):
        lo, hi = SERIES_CROSSOVER, 64.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if mid + 4.0 * mid ** (1.0 / 3.0) < p else (lo, mid)
        x = lo
        for _ in range(6):
            x = np.nextafter(x, -np.inf)
        for _ in range(14):
            ps.append(p)
            xs.append(float(x))
            x = np.nextafter(x, np.inf)
    return np.array(ps), np.array(xs)


VALIDATE_GRIDS = (
    (np.arange(6)[:, None], np.array([0.5, 1.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0])),
    (np.arange(6)[:, None], np.linspace(10.0, 50.0, 41)),
)


def test_bessel_j_is_the_scalar_loop_bit_for_bit():
    orders = np.arange(-MAX_ORDER, MAX_ORDER + 1)[:, None]
    crossover = np.array([-SERIES_CROSSOVER, SERIES_CROSSOVER])
    near_crossover = np.concatenate([crossover, np.nextafter(crossover, 0.0),
                                     np.nextafter(crossover, 2 * crossover)])
    # every order at 201 arguments in [-50, 50], 0 included, and at +-12
    for x in (np.linspace(-50.0, 50.0, 201), near_crossover):
        _assert_kernel_is_the_scalar_loop(bessel_j, _bessel_j_scalar, orders, x)
    for p, x in (_branch_edges(),) + VALIDATE_GRIDS:
        _assert_kernel_is_the_scalar_loop(bessel_j, _bessel_j_scalar, p, x)


@pytest.mark.parametrize("f, ref", [(bessel_j_series, _bessel_j_series_scalar),
                                    (bessel_j_integral, _bessel_j_integral_scalar)])
def test_bessel_representations_are_the_scalar_loops_bit_for_bit(f, ref):
    _assert_kernel_is_the_scalar_loop(f, ref, np.arange(-MAX_ORDER, MAX_ORDER + 1, 3)[:, None],
                                      np.linspace(-50.0, 50.0, 51))
    for p, x in VALIDATE_GRIDS:
        _assert_kernel_is_the_scalar_loop(f, ref, p, x)


@pytest.mark.parametrize("f", [bessel_j, bessel_j_series, bessel_j_integral])
def test_bessel_scalars_give_floats_and_arrays_broadcast(f):
    value = f(3, 7.5)
    assert type(value) is float
    assert type(f(np.int64(3), np.float64(7.5))) is float
    assert _bits(f(np.array(3), np.array(7.5))) == _bits(value)
    grid = f(np.arange(4)[:, None], np.array([0.0, 7.5, -20.0]))
    assert grid.shape == (4, 3) and grid.dtype == np.float64
    assert _bits(grid[3, 1]) == _bits(value)
    assert f(np.arange(3), np.zeros((0, 1))).shape == (0, 3)


@pytest.mark.parametrize("f", [bessel_j, bessel_j_series, bessel_j_integral])
@pytest.mark.parametrize("p", [2.5, 2.0, np.float64(3.0), np.array([1, 2]) + 0.0, True, "2", None])
def test_bessel_refuses_non_integer_orders(f, p):
    # Bessel's integral is J_p only at integer p, and an order is never rounded
    with pytest.raises(ContractError, match="integer"):
        f(p, 20.0)


@pytest.mark.parametrize("f", [bessel_j, bessel_j_series, bessel_j_integral])
def test_bessel_refuses_orders_out_of_range_anywhere(f):
    for p in (65, -70, 10**30, np.array([3, 65]), np.array([-65, 0], dtype=np.int8),
              np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ContractError, match="outside supported range"):
            f(p, 1.0)


@pytest.mark.parametrize("f", [bessel_j, bessel_j_series, bessel_j_integral])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [1.0, math.nan, 2.0],
                               np.array([[1.0, 2.0], [3.0, np.inf]])])
def test_bessel_refuses_non_finite_arguments(f, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before anything is evaluated
        with pytest.raises(ContractError, match="non-finite"):
            f(2, x)


@pytest.mark.parametrize("f", [bessel_j, bessel_j_series, bessel_j_integral])
def test_bessel_refuses_complex_arguments(f):
    with pytest.raises(ContractError, match="real"):
        f(2, np.array([1.0 + 1.0j]))

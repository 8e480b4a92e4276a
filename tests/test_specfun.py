import math

import numpy as np
import pytest
from scipy.special import jv

from speclab import ContractError, bessel_j, cap_integral, hilbert_bessel_at_zero, jacobi_p
from speclab.specfun import (
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
    # the (p, x) grids of validate's two Bessel suites
    xs = [0.5, 1.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0] + [float(x) for x in np.linspace(10.0, 50.0, 41)]
    for p in range(6):
        for x in xs:
            assert _integral(p, x) == _integral_per_call(p, x), (p, x)


def test_jacobi_degree_zero_and_one():
    for alpha, beta, x in ((0.0, 0.0, 0.3), (1.5, -0.5, -0.9), (2.0, 3.0, 1.0)):
        assert jacobi_p(0, alpha, beta, x) == 1.0
    for x in (-1.0, -0.25, 0.0, 0.8, 1.0):
        assert abs(jacobi_p(1, 0.0, 0.0, x) - x) <= 1e-15


def test_jacobi_legendre_two_by_hand():
    # P_2 with both weights zero is the Legendre polynomial (3x^2 - 1)/2
    for x in (-0.9, 0.1, 0.77):
        assert abs(jacobi_p(2, 0.0, 0.0, x) - (3 * x * x - 1) / 2) <= 1e-14


def test_jacobi_orthogonality_by_quadrature():
    inner = gauss_legendre_quad(
        lambda x: jacobi_p(2, 0.0, 0.0, x) * jacobi_p(3, 0.0, 0.0, x), -1.0, 1.0, nodes=64
    )
    assert abs(inner) <= 1e-10


def test_jacobi_contracts():
    with pytest.raises(ContractError):
        jacobi_p(-1, 0.0, 0.0, 0.0)
    with pytest.raises(ContractError):
        jacobi_p(2, -1.5, 0.0, 0.0)
    with pytest.raises(ContractError):
        jacobi_p(2, 0.0, 0.0, 1.5)


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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    ArcSymbol,
    ContractError,
    HALF_CIRCLE,
    fourier_coeff,
    hankel_truncation,
    nehari_bound,
    operator_norm,
    power_essential_radius,
    truncated_norm,
    truncated_norm_record,
)
from speclab.hankel import _coeff_grid
from speclab.linalg import toeplitz_matvec


def test_arc_symbol_contract():
    with pytest.raises(ContractError):
        ArcSymbol(1.0)
    with pytest.raises(ContractError):
        ArcSymbol(-0.2)
    assert ArcSymbol(0.0).alpha == math.acos(0.0)


def test_half_circle_coefficients():
    assert fourier_coeff(HALF_CIRCLE, 0) == 0.5
    assert fourier_coeff(HALF_CIRCLE, 2) == 0.0
    assert fourier_coeff(HALF_CIRCLE, 1) == 1 / math.pi
    assert fourier_coeff(HALF_CIRCLE, -3) == -1 / (3 * math.pi)
    # even coefficients vanish exactly, not merely to roundoff
    for p in range(-40, 41, 2):
        if p != 0:
            assert fourier_coeff(HALF_CIRCLE, p) == 0.0


def test_coefficients_are_even_in_p():
    for sym in (HALF_CIRCLE, ArcSymbol(0.3), ArcSymbol(0.9)):
        for p in range(1, 9):
            assert fourier_coeff(sym, p) == fourier_coeff(sym, -p)


def test_quarter_arc_zero_coefficient():
    sym = ArcSymbol(1 / math.sqrt(2))
    assert abs(fourier_coeff(sym, 0) - 0.25) <= 1e-12


def test_truncation_small_cases():
    h1 = hankel_truncation(HALF_CIRCLE, 1)
    assert h1.shape == (1, 1) and h1[0, 0] == 1 / math.pi
    h2 = hankel_truncation(HALF_CIRCLE, 2)
    assert np.array_equal(h2, np.diag([1 / math.pi, -1 / (3 * math.pi)]))


@pytest.mark.parametrize("a", [0.0, 0.42])
def test_truncation_antidiagonal_structure(a):
    sym = ArcSymbol(a)
    h = hankel_truncation(sym, 9)
    for k in range(8):
        for l in range(1, 9):
            assert h[k, l] == h[k + 1, l - 1]
    # entries agree with the scalar coefficient evaluation bit for bit
    for k in range(9):
        for l in range(9):
            assert h[k, l] == fourier_coeff(sym, -(k + l) - 1)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.77])
def test_coeff_grid_bitwise_equals_per_entry_loop(a):
    sym = ArcSymbol(a)
    ks = np.arange(-23, 24, dtype=np.int64)
    for grid in (np.subtract.outer(ks, ks), 1 - np.add.outer(ks[23:], ks[23:])):
        loop = np.array([[fourier_coeff(sym, int(q)) for q in row] for row in grid])
        fast = _coeff_grid(sym, grid)
        assert fast.shape == grid.shape
        assert np.array_equal(fast.view(np.int64), loop.view(np.int64))


def test_coeff_grid_half_circle_is_fourier_coeff_over_every_lag():
    # the a = 0 table is array arithmetic, not one fourier_coeff call per lag
    lags = np.arange(-(1 << 19), (1 << 19) + 1, dtype=np.int64)
    loop = np.array([fourier_coeff(HALF_CIRCLE, int(p)) for p in lags])
    fast = _coeff_grid(HALF_CIRCLE, lags)
    assert np.array_equal(fast.view(np.int64), loop.view(np.int64))
    assert np.array_equal(_coeff_grid(HALF_CIRCLE, lags[::-3]), loop[::-3])


@pytest.mark.parametrize("a", [0.3, 1 / math.sqrt(2)])
def test_coeff_grid_off_half_circle_is_fourier_coeff_over_every_lag(a):
    # the a != 0 table is np.sin on the array; it must round as libm's sin
    sym = ArcSymbol(a)
    lags = np.arange(-(1 << 19), (1 << 19) + 1, dtype=np.int64)
    loop = np.array([fourier_coeff(sym, int(p)) for p in lags])
    fast = _coeff_grid(sym, lags)
    assert np.array_equal(fast.view(np.int64), loop.view(np.int64))


def test_truncation_even_antidiagonals_vanish_exactly():
    h = hankel_truncation(HALF_CIRCLE, 17)
    k = np.arange(1, 18)
    even = (np.add.outer(k, k) - 1) % 2 == 0
    assert np.all(h[even] == 0.0)


def test_truncated_norm_small():
    assert abs(truncated_norm(HALF_CIRCLE, 1) - 1 / math.pi) <= 1e-15
    assert abs(truncated_norm(HALF_CIRCLE, 2) - 1 / math.pi) <= 1e-15


def test_truncated_norm_monotone_bounded():
    prev = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
        v = truncated_norm(HALF_CIRCLE, n)
        assert v + 1e-13 >= prev
        assert v <= 0.5 + 1e-12
        prev = v
    assert prev > 0.43  # approaching 1/2 from below


def test_truncated_norm_contract():
    with pytest.raises(ContractError):
        hankel_truncation(HALF_CIRCLE, 0)


def test_truncated_norm_rejects_nonpositive_size():
    for n in (0, -3):
        with pytest.raises(ContractError):
            truncated_norm(HALF_CIRCLE, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(1, 600), a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_half_circle_norm_from_odd_block_matches_dense(n, a):
    h = hankel_truncation(HALF_CIRCLE, n)
    k = np.arange(1, n + 1)
    assert np.all(h[(k[:, None] - k[None, :]) % 2 == 1] == 0.0)  # two parity blocks
    dense = operator_norm(h)
    record = truncated_norm_record(HALF_CIRCLE, n)
    assert record.method == "perron" and record.value == truncated_norm(HALF_CIRCLE, n)
    if n > 1:
        assert record.value >= operator_norm(h[1::2, 1::2])  # the odd block carries the norm
    assert abs(record.value - dense) <= 1e-14
    assert record.lower <= dense <= record.upper
    # a != 0 has no parity split: Lanczos on the full truncation
    sym = ArcSymbol(a)
    assert abs(truncated_norm(sym, n) - operator_norm(hankel_truncation(sym, n))) <= 1e-14


@pytest.mark.parametrize("a", [0.0, 0.3])
def test_large_truncation_norm_is_bounded_certified_and_reproducible(a):
    sym = ArcSymbol(a)
    record = truncated_norm_record(sym, 2**16)
    assert truncated_norm(sym, 4096) <= record.value <= 0.5
    assert record.lower <= record.value <= record.upper
    if a == 0.0:
        assert record.upper - record.lower <= 1e-12
    else:
        assert record.upper == 0.5
    assert truncated_norm_record(sym, 2**16) == record  # floats compared bitwise


@pytest.mark.parametrize("a, n", [(0.0, 64), (0.0, 4096), (0.3, 777)])
def test_fft_matvec_within_the_rounding_allowance(a, n):
    # the Hankel matrix c[i + j] applied as the Toeplitz FFT product on the
    # reversed vector, against the same product in long double; the bracket
    # allows 2 eps max(Hx) per entry
    sym = ArcSymbol(a)
    m = (n + 1) // 2 if a == 0.0 else n
    lags = 2 * np.arange(2 * m - 1) + 1 if a == 0.0 else np.arange(1, 2 * m)
    c = _coeff_grid(sym, -lags)
    x = 1.0 / np.sqrt(np.arange(1.0, m + 1))
    fast = toeplitz_matvec(c, m)(x[::-1])
    exact = c.astype(np.longdouble)[np.add.outer(np.arange(m), np.arange(m))] @ x
    assert np.max(np.abs(fast - exact)) <= 2 * np.finfo(float).eps * np.max(np.abs(fast))


def test_nehari_bound():
    assert nehari_bound(HALF_CIRCLE) == 0.5
    for a in (0.1, 0.7, 0.99):
        assert nehari_bound(ArcSymbol(a)) == 0.5


def test_power_essential_radius():
    assert power_essential_radius(HALF_CIRCLE) == 0.5
    for a in (0.2, 1 / math.sqrt(2), 0.95):
        assert power_essential_radius(ArcSymbol(a)) == 0.5


def test_certificate_sandwich():
    # lower certificate <= upper certificate, truncations below the upper one
    for a in (0.0, 0.35):
        sym = ArcSymbol(a)
        assert power_essential_radius(sym) <= nehari_bound(sym)
        assert nehari_bound(sym) - truncated_norm(sym, 64) >= 0.0


def test_shifted_symbol_truncations_also_approach_half():
    sym = ArcSymbol(0.5)
    vals = [truncated_norm(sym, n) for n in (8, 32, 128)]
    assert vals[0] < vals[1] < vals[2] <= 0.5 + 1e-12

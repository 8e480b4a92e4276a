import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    ArcSymbol,
    ComputationError,
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
from speclab import hankel
from speclab.hankel import _coeff_grid
from speclab.linalg import FFT_ALLOWANCE, GRAM_ALLOWANCE, toeplitz_matvec


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


@pytest.mark.parametrize("a", [0.0, 0.3])  # the Perron kernel and a whole-truncation Lanczos run
def test_a_hankel_norm_past_the_half_bound_is_refused(monkeypatch, a):
    # coefficients 2.5 times too large give a norm past Nehari's 1/2 (about
    # 1.07 at a = 0.3), which no certificate with upper end 1/2 may hold
    grid = hankel._coeff_grid
    monkeypatch.setattr(hankel, "_coeff_grid", lambda sym, p: 2.5 * grid(sym, p))
    with pytest.raises(ComputationError, match="1/2 bound"):
        truncated_norm_record(ArcSymbol(a), 64)


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
        # the width is the Perron ratios' rounding allowance, about
        # 3.2e-13 per unit of FFT_ALLOWANCE at this N (1.6e-12 at 5)
        assert record.upper - record.lower <= FFT_ALLOWANCE * 4e-13
    else:
        assert record.upper == 0.5
    assert truncated_norm_record(sym, 2**16) == record  # floats compared bitwise


def _long_double_product(c, x):
    """H x for the m x m Hankel matrix H[i, j] = c[i + j] (len(c) = 2m - 1),
    as the Toeplitz product on the reversed x, by one rfft/irfft pair in long
    double of the power-of-two length >= 2m - 1."""
    m = len(x)
    size = 1 << (2 * m - 2).bit_length()
    c, x = c.astype(np.longdouble), x[::-1].astype(np.longdouble)
    return np.fft.irfft(np.fft.rfft(c, size) * np.fft.rfft(x, size), size)[m - 1 : 2 * m - 1]


@pytest.mark.parametrize("m", [33, 8000])
def test_long_double_product_matches_the_dense_long_double_product(m):
    # the reference of the allowance tests below, held to 1/20 eps max(Hx)
    # against the dense long-double product (0.010 eps at m = 8000)
    c = np.abs(_coeff_grid(HALF_CIRCLE, -(2 * np.arange(2 * m - 1) + 1)))
    x = 1.0 / np.sqrt(np.arange(1.0, m + 1))
    dense = sliding_window_view(c.astype(np.longdouble), m) @ x.astype(np.longdouble)
    fast = _long_double_product(c, x)
    assert np.max(np.abs(fast - dense)) <= 0.05 * np.finfo(float).eps * np.max(dense)


# the odd block's m = ceil(n/2) at a = 0 and m = n at a != 0; 2m - 1 just above
# a power of two (m = 33, 69, 321, 513, 643, 1025, 2049: lengths 2^a 5^c), with
# factors 3 (m = 1300: 3072 = 2^10 3; 2570: 5184 = 2^6 3^4), at powers of two
# (m = 32, 2048, 2^17) and at the largest m of the longest lengths with factors
# 3 and 5 below the cap's 2^18 (m = 20736: 41472 = 2^9 3^4; 51840: 103680 =
# 2^8 3^4 5; 82944: 165888 = 2^11 3^4; 86400: 172800 = 2^8 3^3 5^2; 103680:
# 207360 = 2^9 3^4 5), which read 1.63, 0.60, 1.70, 1.38 and 1.41 eps
@pytest.mark.parametrize("a, n", [
    (0.0, 64), (0.0, 65), (0.0, 137), (0.0, 641), (0.0, 1025), (0.0, 1285), (0.0, 2049),
    (0.0, 2599), (0.0, 4096), (0.0, 4097), (0.0, 5140), (0.3, 643), (0.3, 777), (0.3, 1300),
    (0.0, 41472), (0.0, 103680), (0.0, 165888), (0.0, 172800), (0.0, 207360), (0.0, 2**18),
])
def test_fft_matvec_within_the_rounding_allowance(a, n):
    # the Hankel matrix c[i + j] applied as the Toeplitz FFT product on the
    # reversed vector, against the same product in long double; the Perron
    # bracket allows FFT_ALLOWANCE eps max(Hx) per entry
    sym = ArcSymbol(a)
    m = (n + 1) // 2 if a == 0.0 else n
    lags = 2 * np.arange(2 * m - 1) + 1 if a == 0.0 else np.arange(1, 2 * m)
    c = _coeff_grid(sym, -lags)
    x = 1.0 / np.sqrt(np.arange(1.0, m + 1))
    fast = toeplitz_matvec(c, m)(x[::-1])
    exact = _long_double_product(c, x)
    assert np.max(np.abs(fast - exact)) <= FFT_ALLOWANCE * np.finfo(float).eps * np.max(np.abs(fast))


# the top m = K/2 of each length, wide = m + 1 (K = 41470 ... 207358 at the
# lengths above, 4.80, 2.05, 2.13, 2.45 and 2.91 eps; 2^18 - 2 at 2^18)
@pytest.mark.parametrize("k", [1286, 5138, 41470, 103678, 165886, 172798, 207358, 2**18 - 2])
def test_se2_gram_within_the_rounding_allowance(k):
    # the SE(2) block's Gram operator C C^T x = (G G [x; 0])[:m], two FFT
    # products (m = K/2 = 643: length 1600 = 2^6 5^2; 2569: 5184 = 2^6 3^4),
    # against long double; the bracket allows GRAM_ALLOWANCE eps max(C C^T x)
    m, wide = k // 2, k // 2 + 1
    c = np.abs(_coeff_grid(HALF_CIRCLE, -(2 * np.arange(2 * wide - 1) + 1)))
    square = hankel._hankel_apply(c)
    y = np.zeros(wide)
    y[:m] = 1.0 / np.sqrt(np.arange(1.0, m + 1))
    fast = square(square(y))[:m]
    exact = _long_double_product(c, _long_double_product(c, y))[:m]
    assert np.max(np.abs(fast - exact)) <= GRAM_ALLOWANCE * np.finfo(float).eps * np.max(fast)


def test_nehari_bound():
    assert nehari_bound(HALF_CIRCLE) == 0.5
    for a in (0.1, 0.7, 0.99):
        assert nehari_bound(ArcSymbol(a)) == 0.5


def test_power_essential_radius():
    assert power_essential_radius(HALF_CIRCLE) == 0.5
    for a in (0.2, 1 / math.sqrt(2), 0.95):
        assert power_essential_radius(ArcSymbol(a)) == 0.5


def _probed_essential_radius(sym):
    """The essential radius from the indicator's jumps, each found by
    evaluating the indicator 1e-8 either side of the endpoints and of z = +-1
    (the numerical probe the closed form replaced)."""
    def jump(theta):
        inside = [1.0 if math.cos(theta + s) > sym.a else 0.0 for s in (1e-8, -1e-8)]
        return 0.5 * (inside[0] - inside[1])

    radius = max(abs(jump(0.0)), abs(jump(math.pi)))
    pair = -jump(sym.alpha) * jump(-sym.alpha)
    return max(radius, math.sqrt(pair)) if pair > 0 else radius


def test_power_essential_radius_matches_probed_jumps():
    edges = [0.0, 5e-324, 2.0**-52, 0.3, 0.5, 1 / math.sqrt(2), 0.99, 1 - 2.0**-40, 1 - 2.0**-52]
    grid = edges + list(np.random.default_rng(0).uniform(0.0, 1.0, size=22000))
    for a in grid:
        sym = ArcSymbol(float(a))
        assert power_essential_radius(sym) == _probed_essential_radius(sym) == 0.5, a


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

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    ComputationError,
    ContractError,
    HalfInt,
    SpinRep,
    build_spin_operators,
    fourier_coeff,
    fourier_expansion_d,
    HALF_CIRCLE,
    ArcSymbol,
    projection_x,
    projection_x_entries,
    projection_z_interval,
    szego_approximation,
    verify_hilbert_formula,
    wigner_d_matrix,
    wigner_d_pi_half,
    wigner_d_sum,
    wigner_d_theta,
)
from speclab.models import _su2_norm
from speclab.spinrep import (
    _fourier_entries,
    _jx_eigensystem,
    jx_offdiagonal,
    jx_residual_bound,
    weight_at_most,
    weight_exceeds,
    weights_at_most,
    weights_exceeding,
    wigner_d_sum_matrix,
    z_interval_mask,
)
from speclab.validate import projection_from_sum, wigner_sum_matrix


# ---------------------------------------------------------------------------
# half-integer bookkeeping
# ---------------------------------------------------------------------------

def test_halfint_basics():
    h = HalfInt.coerce(1.5)
    assert h.twice == 3 and not h.is_integer and str(h) == "3/2"
    assert HalfInt.coerce(2).value == 2.0
    assert (h - HalfInt.coerce(0.5)).twice == 2
    assert h.diff_int(HalfInt.coerce(-0.5)) == 2
    with pytest.raises(ContractError):
        h.diff_int(HalfInt.coerce(1))
    with pytest.raises(ContractError):
        HalfInt.coerce(0.3)


def test_spinrep_lattice():
    rep = SpinRep(4)
    assert rep.j == HalfInt(3)
    assert [w.twice for w in rep.weights] == [3, 1, -1, -3]
    assert rep.index_of(HalfInt(-1)) == 2
    with pytest.raises(ContractError):
        rep.index_of(HalfInt(2))  # wrong parity
    with pytest.raises(ContractError):
        SpinRep(1)


def test_weight_threshold_is_exact():
    # the comparison treats the float a as the exact binary rational it is:
    # float 0.3 sits just below 3/10, so m = 3 still clears 0.3 * (j + 1/2) = 3-eps
    assert weight_exceeds(6, 0.3, 20)
    # a = 0.5 is exact: threshold 0.5 * 6 = 3 and the test is strict
    assert not weight_exceeds(6, 0.5, 12)
    assert weight_exceeds(8, 0.5, 12)
    # integer and Fraction thresholds work unchanged
    assert not weight_exceeds(6, 1, 6)


# thresholds that land exactly on a lattice point (a = 0.5 with n even puts
# a*n = n/2 on an integer) next to generic floats and small dyadics
_THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1 / 3, 0.3, 1 / 2**0.5]),
    st.floats(0.0, 1.0),
    st.integers(0, 64).map(lambda k: k / 64),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(2, 80), x=_THRESHOLDS)
def test_vector_thresholds_match_scalar_helpers(n, x):
    twice = SpinRep(n).twice
    assert [t.twice for t in SpinRep(n).weights] == twice.tolist()
    above = weights_exceeding(twice, x, n)
    at_most = weights_at_most(twice, x, n)
    assert above.tolist() == [weight_exceeds(int(t), x, n) for t in twice]
    assert at_most.tolist() == [weight_at_most(int(t), x, n) for t in twice]


def test_vector_thresholds_on_a_lattice_point():
    # a = 0.5, n = 10: a*n = 5 is twice the weight 5/2, which the strict
    # test excludes and the closed one includes
    twice = SpinRep(10).twice.tolist()
    on = twice.index(5)
    assert weights_exceeding(twice, 0.5, 10).tolist() == [t > 5 for t in twice]
    assert not weights_exceeding(twice, 0.5, 10)[on]
    assert weights_at_most(twice, 0.5, 10)[on]


# ---------------------------------------------------------------------------
# spin operators
# ---------------------------------------------------------------------------

def test_pauli_matrices():
    ops = build_spin_operators(SpinRep(2))
    assert np.allclose(ops.jz, np.diag([0.5, -0.5]), atol=0)
    assert np.allclose(ops.jx, [[0, 0.5], [0.5, 0]], atol=0)
    assert np.allclose(ops.jy, [[0, -0.5j], [0.5j, 0]], atol=0)


def test_spin_one_ladder_offdiagonal():
    ops = build_spin_operators(SpinRep(3))
    c = 1 / math.sqrt(2)
    assert np.allclose(np.diag(ops.jx, 1), [c, c], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 10, 47])
def test_commutation_relations(n):
    ops = build_spin_operators(SpinRep(n))
    assert np.max(np.abs(ops.jx @ ops.jy - ops.jy @ ops.jx - 1j * ops.jz)) <= 1e-12 * n
    assert np.max(np.abs(ops.jy @ ops.jz - ops.jz @ ops.jy - 1j * ops.jx)) <= 1e-12 * n


@pytest.mark.parametrize("n", [2, 5, 24, 101])
def test_jx_spectrum_is_weight_lattice(n):
    ops = build_spin_operators(SpinRep(n))
    w = np.linalg.eigvalsh(ops.jx)
    expected = np.array([-(n - 1) / 2 + i for i in range(n)])
    assert np.max(np.abs(w - expected)) <= 1e-10


# ---------------------------------------------------------------------------
# J_x eigensystem: the recurrence gated against the dense eigensolver
# ---------------------------------------------------------------------------

# (a, D's range) of the SU(2) families' Lanczos norms: plain,
# interval (a, b) = (0.3, 0.5), and caps either side of 1/sqrt(2)
def _angle_points(rep):
    return [
        (0.0, z_interval_mask(rep, 1.0)),
        (0.3, z_interval_mask(rep, 0.5)),
        (0.6, weights_exceeding(rep.twice, 0.6, rep.n)),
        (0.75, weights_exceeding(rep.twice, 0.75, rep.n)),
    ]


def _max_abs_diff(a, b):
    a -= b  # a is a fresh product, so it can hold the difference
    return float(np.max(np.abs(a, out=a)))


def _flip_block_eigh(off):
    """Dense LAPACK eigensystem (ascending) of the tridiagonal J_x with
    off-diagonal ``off``, from its flip-even and flip-odd blocks.

    J_x commutes with the flip i -> n-1-i (off is a palindrome), so in the
    basis (e_i +- e_{n-1-i})/sqrt(2), i < n/2 (and e_mid for odd n, which is
    even) it is two tridiagonal blocks of about n/2; their eigenvectors map
    back to v_i = u_i/sqrt(2), v_{n-1-i} = +-u_i/sqrt(2) (v_mid = u_mid)."""
    n = len(off) + 1
    h = n // 2
    odd = np.diag(off[: h - 1], 1) + np.diag(off[: h - 1], -1)
    if n % 2:
        even = np.pad(odd, (0, 1))
        even[h - 1, h] = even[h, h - 1] = math.sqrt(2.0) * off[h - 1]
    else:
        even = odd.copy()
        even[-1, -1], odd[-1, -1] = off[h - 1], -off[h - 1]
    vectors = []
    for block, sign in ((even, 1.0), (odd, -1.0)):
        w, u = np.linalg.eigh(block)
        v = np.zeros((n, len(w)))
        v[:h] = u[:h] / math.sqrt(2.0)
        v[n - h :] = sign * v[:h][::-1]
        if n % 2 and sign > 0:
            v[h] = u[h]
        vectors.append((w, v))
    w = np.concatenate([vectors[0][0], vectors[1][0]])
    order = np.argsort(w)
    return w[order], np.hstack([vectors[0][1], vectors[1][1]])[:, order]


def _check_jx_eigensystem_against_dense(n):
    rep = SpinRep(n)
    tw, v = _jx_eigensystem(n)
    assert not tw.flags.writeable and not v.flags.writeable
    off = jx_offdiagonal(rep)
    assert np.array_equal(off, off[::-1])
    w, dense = _flip_block_eigh(off)
    assert np.array_equal(tw, np.arange(-(n - 1), n, 2))
    assert np.max(np.abs(2 * w - tw)) <= 1e-9
    resid = -v * (tw / 2.0)
    resid[:-1] += off[:, None] * v[1:]
    resid[1:] += off[:, None] * v[:-1]
    assert np.max(np.abs(resid)) <= jx_residual_bound(n)
    del resid
    assert _max_abs_diff(v.T @ v, np.eye(n)) <= 1e-12
    for a, inside in _angle_points(rep):
        kept = weights_exceeding(tw, a, n)
        ds = dense[:, kept]
        assert _max_abs_diff(ds @ ds.T, projection_x(rep, a)) <= 1e-13, (n, a)
        fast = _su2_norm(v[:, kept], inside).value
        assert abs(fast - _su2_norm(ds, inside).value) <= 1e-13, (n, a)


def test_jx_eigensystem_matches_dense_at_every_size():
    for n in range(2, 301):
        _check_jx_eigensystem_against_dense(n)


@pytest.mark.parametrize("n", [1021, 2048, 2049, 4001])
def test_jx_eigensystem_matches_dense_at_large_sizes(n):
    try:
        _check_jx_eigensystem_against_dense(n)
    finally:
        _jx_eigensystem.cache_clear()  # do not hold the large eigenvectors


def test_jx_eigensystem_has_no_subnormals():
    # the recurrence's rescaled columns leave tiny entries behind; they are
    # flushed to 0 rather than left subnormal (slow in every later product)
    try:
        _, v = _jx_eigensystem(4096)
        for lo in range(0, 4096, 256):
            rows = np.abs(v[lo : lo + 256])
            assert not np.any((rows > 0.0) & (rows < np.finfo(float).tiny)), lo
        assert np.count_nonzero(v == 0.0) > 0  # the flush did act at this size
    finally:
        _jx_eigensystem.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 31, 101, 880, 1895, 2048])
def test_wigner_pi_half_signs_match_fourier_route(n):
    # each column's sign comes from the recurrence's positive start; the
    # Fourier route's entries do not depend on eigenvector signs.  Checked on
    # each column's largest entry (where a wrong sign shows as >= 2/sqrt(n)),
    # the top and bottom rows, the diagonal and an offset diagonal
    rep = SpinRep(n)
    d = wigner_d_pi_half(rep)
    cols = np.arange(n)
    for rows in (np.argmax(np.abs(d), axis=0), 0 * cols, 0 * cols + n - 1, cols, (cols + 7) % n):
        ref = _fourier_entries(rep, rows, cols, math.pi / 2)
        assert np.max(np.abs(d[rows, cols] - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# Wigner d-functions
# ---------------------------------------------------------------------------

def test_wigner_sum_half_spin():
    for theta in (0.1, math.pi / 2, 2.5):
        assert abs(wigner_d_sum(0.5, 0.5, 0.5, theta) - math.cos(theta / 2)) <= 1e-14
    assert abs(wigner_d_sum(0.5, 0.5, -0.5, math.pi / 2) + 1 / math.sqrt(2)) <= 1e-14


def test_wigner_sum_identity_rotation():
    rep = SpinRep(6)
    for mp in rep.weights:
        for m in rep.weights:
            expected = 1.0 if mp == m else 0.0
            assert abs(wigner_d_sum(rep.j, mp, m, 0.0) - expected) <= 1e-14


def test_wigner_sum_range_contract():
    with pytest.raises(ContractError):
        wigner_d_sum(1, 2, 0, 1.0)


def test_wigner_pi_half_two_dim():
    d = wigner_d_pi_half(SpinRep(2))
    c = 1 / math.sqrt(2)
    assert np.allclose(d, [[c, -c], [c, c]], atol=1e-14)


@pytest.mark.parametrize("n", list(range(2, 32)))
def test_wigner_pi_half_matches_sum(n):
    rep = SpinRep(n)
    assert np.max(np.abs(wigner_d_pi_half(rep) - wigner_sum_matrix(rep))) <= 1e-8


def _wigner_d_sum_per_entry(tj, tp, tm, theta):
    """The binomial sum one term at a time in Python (the scalar loop the
    array kernel replaced), on twice-indices."""
    lg = math.lgamma
    pref = 0.5 * (
        lg((tj + tm) / 2 + 1)
        + lg((tj - tm) / 2 + 1)
        - lg((tj + tp) / 2 + 1)
        - lg((tj - tp) / 2 + 1)
    )
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    total = 0.0
    for k in range(max(0, (tm - tp) // 2), min((tj - tp) // 2, (tj + tm) // 2) + 1):
        lb1 = lg((tj + tp) / 2 + 1) - lg((tj + tm) / 2 - k + 1) - lg((tp - tm) / 2 + k + 1)
        lb2 = lg((tj - tp) / 2 + 1) - lg(k + 1) - lg((tj - tp) / 2 - k + 1)
        k_cos = (2 * tj + tm - tp) // 2 - 2 * k
        k_sin = (tp - tm) // 2 + 2 * k
        sign = -1.0 if ((tp - tm) // 2 + k) % 2 else 1.0
        total += sign * math.exp(pref + lb1 + lb2) * c**k_cos * s**k_sin
    return total


def _pi_half_calibrated_per_column(rep):
    """wigner_d_pi_half with one per-entry binomial sum per row tried, column
    by column (the loop the batched calibration replaced)."""
    tw, v = _jx_eigensystem(rep.n)
    d = v[:, ::-1].copy()
    for col in range(rep.n):
        for row in range(rep.n):
            if abs(d[row, col]) <= 1e-13:
                continue
            tp, tm = int(rep.twice[row]), int(tw[::-1][col])
            ref = _wigner_d_sum_per_entry(rep.j.twice, tp, tm, math.pi / 2)
            if abs(ref) <= 1e-13:
                continue
            if (d[row, col] > 0) != (ref > 0):
                d[:, col] = -d[:, col]
            break
    return d


@pytest.mark.parametrize("n", list(range(2, 32)) + [101, 103, 388])
def test_wigner_pi_half_calibration_matches_per_column(n):
    # at n = 388 some column's topmost resolvable entry has a sum value below
    # the resolution, so the calibration needs a second round
    rep = SpinRep(n)
    assert np.array_equal(wigner_d_pi_half(rep), _pi_half_calibrated_per_column(rep))


def test_binomial_sum_overflow_raises():
    # a term of the sum beyond the float range is an error, never inf or nan
    with pytest.raises(ComputationError):
        wigner_d_sum(600, 0, 0, 1.0)


def test_binomial_sum_cancellation_raises():
    # unchecked, the sum's cancellation at large j gives -3.0e11 here and
    # 1.5e15 at n = 201
    with pytest.raises(ComputationError, match="cancellation"):
        wigner_d_sum(100, 0, 0, 1.0)
    with pytest.raises(ComputationError, match="cancellation"):
        wigner_d_sum_matrix(SpinRep(201))


def test_binomial_sum_memory_is_that_of_the_matrix():
    # one (n, n) term at a time: the whole (s, n, n) term array at n = 201
    # peaked at 563 MB before the cancellation check could fire
    rep = SpinRep(201)
    tracemalloc.start()
    try:
        with pytest.raises(ComputationError, match="cancellation"):
            wigner_d_sum_matrix(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_binomial_sum_refuses_before_losing_the_cross_path_tolerance():
    # the cancellation estimate first exceeds 1e-8 at n = 44, where the worst
    # true error is 6.7e-10; unchecked, the error itself passes 1e-8 at n = 51
    for n in (31, 43):
        rep = SpinRep(n)
        for theta in (math.pi / 2, 1.1):
            err = np.abs(wigner_d_sum_matrix(rep, theta) - wigner_d_matrix(rep, theta))
            assert np.max(err) <= 1e-8
    for n in (44, 51):
        with pytest.raises(ComputationError, match="cancellation"):
            wigner_d_sum_matrix(SpinRep(n))


@pytest.mark.parametrize("n", list(range(2, 32)) + [100, 101, 102, 103, 880, 1895])
def test_wigner_matrix_invariants(n):
    rep = SpinRep(n)
    d = wigner_d_pi_half(rep)
    # real orthogonal
    assert np.max(np.abs(d.T @ d - np.eye(n))) <= 1e-10
    # index reflection d_{-m',-m} = (-1)^{m'-m} d_{m',m}
    tj = rep.j.twice
    signs = np.array([(-1.0) ** ((tj - w.twice) // 2) for w in rep.weights])
    assert np.max(np.abs(d[::-1, ::-1] - signs[:, None] * signs[None, :] * d)) <= 1e-10
    # translation by pi: d(theta + pi)_{m',m} = (-1)^{j-m} d_{m',-m}(theta)
    d32 = wigner_d_matrix(rep, 3 * math.pi / 2)
    assert np.max(np.abs(d32 - signs[None, :] * d[:, ::-1])) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 12, 31, 101])
def test_wigner_d_matrix_matches_per_entry(n):
    rep = SpinRep(n)
    for theta in (0.0, 0.3, math.pi / 2, 3 * math.pi / 2, 5.9):
        per_entry = np.array(
            [[wigner_d_theta(rep, mp, m, theta) for m in rep.weights] for mp in rep.weights]
        )
        assert np.max(np.abs(wigner_d_matrix(rep, theta) - per_entry)) <= 1e-14


@pytest.mark.parametrize("n", list(range(2, 32)))
@pytest.mark.parametrize("theta", [math.pi / 2, 1.1])
def test_wigner_sum_matrix_matches_per_entry(n, theta):
    rep = SpinRep(n)
    tj = rep.j.twice
    per_entry = np.array(
        [
            [_wigner_d_sum_per_entry(tj, int(tp), int(tm), theta) for tm in rep.twice]
            for tp in rep.twice
        ]
    )
    tol = 1e-13 if n <= 16 else 1e-10
    assert np.max(np.abs(wigner_sum_matrix(rep, theta) - per_entry)) <= tol
    mp, m = rep.weights[n // 3], rep.weights[-1]
    assert abs(wigner_d_sum(rep.j, mp, m, theta) - per_entry[n // 3, -1]) <= tol


def test_wigner_theta_parity_in_angle():
    rep = SpinRep(9)
    for mp, m in ((HalfInt(4), HalfInt(2)), (HalfInt(2), HalfInt(-4))):
        diff = mp.diff_int(m)
        for theta in (0.3, 1.8):
            lhs = wigner_d_theta(rep, mp, m, -theta)
            rhs = (-1.0) ** diff * wigner_d_theta(rep, mp, m, theta)
            assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_x_two_dim():
    p = projection_x(SpinRep(2), 0.0)
    assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_projection_x_spin_one_by_hand():
    # spin-1 J_x eigenvector for eigenvalue 1 is (1/2, 1/sqrt2, 1/2)
    p = projection_x(SpinRep(3), 0.0)
    assert abs(p[0, 1] - 1 / (2 * math.sqrt(2))) <= 1e-14
    assert abs(p[0, 2] - 0.25) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 12, 31, 64])
@pytest.mark.parametrize("a", [0.0, 0.3, 0.7])
def test_projection_x_properties(n, a):
    rep = SpinRep(n)
    p = projection_x(rep, a)
    assert np.max(np.abs(p - p.T)) <= 1e-12
    assert np.max(np.abs(p @ p - p)) <= 1e-9
    expected_trace = sum(1 for w in rep.weights if weight_exceeds(w.twice, a, n))
    assert abs(np.trace(p) - expected_trace) <= 1e-9
    evals = np.linalg.eigvalsh(p)
    assert np.max(np.minimum(np.abs(evals), np.abs(evals - 1))) <= 1e-9


def test_projection_x_contract():
    with pytest.raises(ContractError):
        projection_x(SpinRep(4), 1.0)


@pytest.mark.parametrize("n", list(range(2, 32)))
@pytest.mark.parametrize("a", [0.0, 0.3, 0.7])
def test_projection_cross_path(n, a):
    rep = SpinRep(n)
    assert np.max(np.abs(projection_x(rep, a) - projection_from_sum(rep, a))) <= 1e-8


def test_projection_diagonal_tends_to_half():
    errs = [abs(projection_x_entries(SpinRep(n), 0.0, [(HalfInt(2), HalfInt(2))])[0] - 0.5)
            for n in (11, 51, 201)]
    assert errs[0] >= errs[1] - 1e-12 and errs[1] >= errs[2] - 1e-12
    assert errs[-1] <= 1e-2


def test_projection_z_block():
    assert np.array_equal(
        projection_z_interval(SpinRep(5), 1.0), np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    )
    assert np.array_equal(projection_z_interval(SpinRep(2), 1.0), np.diag([1.0, 0.0]))


def test_projection_z_floor_arithmetic():
    q = projection_z_interval(SpinRep(11), 0.5)
    assert np.trace(q) == 2.0  # floor(0.5 * 5.5) = 2
    # the selected weights are the smallest positive ones: m = 1, 2
    rep = SpinRep(11)
    sel = [rep.weights[i].twice for i in range(11) if q[i, i] == 1.0]
    assert sel == [4, 2]


def test_projection_z_contract():
    with pytest.raises(ContractError):
        projection_z_interval(SpinRep(3), 0.0)
    with pytest.raises(ContractError):
        projection_z_interval(SpinRep(3), 1.1)


# ---------------------------------------------------------------------------
# Fourier expansion and the integral-formula identity
# ---------------------------------------------------------------------------

def test_fourier_expansion_reconstructs_delta():
    rep = SpinRep(8)
    for mp in rep.weights:
        for m in rep.weights:
            coeffs = fourier_expansion_d(rep, mp, m)
            phase = np.exp(1j * math.pi / 2 * m.diff_int(mp))
            val = (phase * sum(coeffs.values())).real  # theta = 0
            expected = 1.0 if mp == m else 0.0
            assert abs(val - expected) <= 1e-12
            assert abs(wigner_d_theta(rep, mp, m, 0.0) - expected) <= 1e-12


def test_fourier_expansion_no_zero_frequency_for_half_integer_spin():
    rep = SpinRep(8)  # j = 7/2
    coeffs = fourier_expansion_d(rep, HalfInt(1), HalfInt(1))
    assert HalfInt(0) not in coeffs
    rep_int = SpinRep(9)  # j = 4
    assert HalfInt(0) in fourier_expansion_d(rep_int, HalfInt(2), HalfInt(2))


def test_fourier_expansion_positive_sum_is_projection_entry():
    rep = SpinRep(13)
    p = projection_x(rep, 0.0)
    for mp, m in ((HalfInt(4), HalfInt(0)), (HalfInt(2), HalfInt(-6))):
        coeffs = fourier_expansion_d(rep, mp, m)
        positive = sum(v for mu, v in coeffs.items() if mu.twice > 0)
        assert abs(positive - p[rep.index_of(mp), rep.index_of(m)]) <= 1e-12


@pytest.mark.parametrize("n", list(range(2, 32)))
def test_fourier_reconstruction_matches_sum(n):
    rep = SpinRep(n)
    rng = np.random.default_rng(n)
    thetas = rng.uniform(0, 2 * math.pi, size=3)
    for _ in range(4):
        i, k = rng.integers(0, n, size=2)
        mp, m = rep.weights[int(i)], rep.weights[int(k)]
        for theta in thetas:
            assert (
                abs(wigner_d_theta(rep, mp, m, theta) - wigner_d_sum(rep.j, mp, m, theta)) <= 1e-8
            )


def test_hilbert_formula_two_dim():
    assert verify_hilbert_formula(SpinRep(2)) <= 1e-12


@pytest.mark.parametrize("n", list(range(2, 32)))
def test_hilbert_formula_residual(n):
    assert verify_hilbert_formula(SpinRep(n)) <= 1e-9


def _hilbert_residual_per_entry(rep):
    """verify_hilbert_formula one (m', m) entry at a time (the loop the
    whole-matrix check replaced)."""
    p = projection_x(rep, 0.0)
    tw, v = _jx_eigensystem(rep.n)
    sgn = np.sign(tw.astype(float))
    zero_cols = np.where(tw == 0)[0]
    worst = 0.0
    for i_mp, mp in enumerate(rep.weights):
        for i_m, m in enumerate(rep.weights):
            diff = mp.diff_int(m)
            phase = np.exp(1j * (math.pi / 2) * diff)
            prods = v[i_m] * v[i_mp]
            if diff % 2 == 0:
                z00 = phase.conjugate() * (prods[zero_cols[0]] if len(zero_cols) else 0.0)
                rhs = 0.5 * phase * ((1.0 if i_m == i_mp else 0.0) - z00)
            else:
                rhs = -0.5j * phase * (phase.conjugate() * 1j * np.sum(sgn * prods))
            worst = max(worst, abs(complex(rhs) - p[i_mp, i_m]))
    return worst


@pytest.mark.parametrize("n", list(range(2, 32)))
def test_hilbert_formula_matches_per_entry(n):
    rep = SpinRep(n)
    assert abs(verify_hilbert_formula(rep) - _hilbert_residual_per_entry(rep)) <= 1e-15


def test_hilbert_formula_contract():
    with pytest.raises(ContractError):
        verify_hilbert_formula(SpinRep(32))


# ---------------------------------------------------------------------------
# central-element limits
# ---------------------------------------------------------------------------

# frozen by an oracle run: max observed final error ~1.3e-7 on the odd cases
CENTRAL_LIMIT_TOL = 0.02
MONOTONE_FLOOR = 1e-12


def _arc_coeff(p, a=0.0):
    return fourier_coeff(ArcSymbol(a), p)


def test_central_element_limits_half_integer_ladder():
    # lattice-matched ladder j = 25.5, 51.5, 103.5; all weight pairs up to |3|
    dims = (52, 104, 208)
    pairs = [
        (HalfInt(tp), HalfInt(tm))
        for tp in range(-5, 6, 2)
        for tm in range(-5, 6, 2)
    ]
    errors = {pair: [] for pair in pairs}
    for n in dims:
        rep = SpinRep(n)
        vals = projection_x_entries(rep, 0.0, pairs)
        for pair, val in zip(pairs, vals):
            mp, m = pair
            errors[pair].append(abs(val - _arc_coeff(m.diff_int(mp))))
    for pair, errs in errors.items():
        assert errs[0] >= errs[1] - MONOTONE_FLOOR, (pair, errs)
        assert errs[1] >= errs[2] - MONOTONE_FLOOR, (pair, errs)
        assert errs[-1] <= CENTRAL_LIMIT_TOL, (pair, errs)


def test_central_element_limits_shifted_symbol():
    # a = 0.5 keeps the threshold centered between lattice points on this ladder
    a = 0.5
    dims = (52, 104, 208)
    pairs = [
        (HalfInt(tp), HalfInt(tm))
        for tp in range(-5, 6, 2)
        for tm in range(-5, 6, 2)
    ]
    errors = {pair: [] for pair in pairs}
    for n in dims:
        rep = SpinRep(n)
        vals = projection_x_entries(rep, a, pairs)
        for pair, val in zip(pairs, vals):
            mp, m = pair
            errors[pair].append(abs(val - _arc_coeff(m.diff_int(mp), a)))
    for pair, errs in errors.items():
        assert errs[0] >= errs[1] - MONOTONE_FLOOR, (pair, errs)
        assert errs[1] >= errs[2] - MONOTONE_FLOOR, (pair, errs)
        assert errs[-1] <= CENTRAL_LIMIT_TOL, (pair, errs)


# ---------------------------------------------------------------------------
# Bessel approximation of d-functions
# ---------------------------------------------------------------------------

def test_szego_constant_is_one_on_diagonal_pairs():
    approx, c = szego_approximation(12, 3, 3, 0.7)
    assert c == 1.0
    approx, c = szego_approximation(HalfInt(25), HalfInt(5), HalfInt(5), 1.2)
    assert c == 1.0


def test_szego_theta_to_zero_limit():
    approx, _ = szego_approximation(10, 2, 2, 1e-9)
    assert abs(approx - 1.0) <= 1e-8


def test_szego_constant_tends_to_one():
    cs = [szego_approximation(j, 1, 0, 0.5)[1] for j in (10, 40, 160)]
    assert abs(cs[0] - 1) > abs(cs[1] - 1) > abs(cs[2] - 1)
    assert abs(cs[-1] - 1) <= 5e-3


def test_szego_contracts():
    with pytest.raises(ContractError):
        szego_approximation(10, 3, 0, 0.5)  # m - m' = -3 < -1
    with pytest.raises(ContractError):
        szego_approximation(10, 1, 0, math.pi)  # outside the theta window


@pytest.mark.parametrize("j", [20, 40, 80])
def test_szego_error_scaling(j):
    # sup-theta of |d - approx| / sqrt(theta) should scale like j^(-3/2),
    # so doubling j divides it by about 2*sqrt(2); 35 percent tolerance
    thetas = np.linspace(0.01, math.pi / 2, 120)

    def sup_error(jj):
        rep = SpinRep(2 * jj + 1)
        worst = 0.0
        for theta in thetas:
            approx, _ = szego_approximation(jj, 1, 0, float(theta))
            exact = wigner_d_theta(rep, HalfInt(2), HalfInt(0), float(theta))
            worst = max(worst, abs(exact - approx) / math.sqrt(theta))
        return worst

    ratio = sup_error(j) / sup_error(2 * j)
    assert abs(ratio / 2**1.5 - 1.0) <= 0.35

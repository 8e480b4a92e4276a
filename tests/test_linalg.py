import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    ComputationError,
    ContractError,
    commutator,
    lanczos_top,
    operator_norm,
)
from speclab.linalg import LANCZOS_STEPS, _exact_norm, toeplitz_matvec


def test_operator_norm_identity():
    assert operator_norm(np.eye(3)) == 1.0


def test_operator_norm_nilpotent_shift():
    assert abs(operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) <= 1e-12


def test_operator_norm_diagonal_fast_path():
    a = np.diag([1 / math.pi, -1 / (3 * math.pi)])
    assert operator_norm(a) == 1 / math.pi


def test_operator_norm_symmetries():
    rng = np.random.default_rng(1)
    for n in (2, 5, 11, 40):
        a = rng.standard_normal((n, n))
        base = operator_norm(a)
        assert abs(operator_norm(a.T) - base) <= 1e-12 * base
        assert abs(operator_norm(-a) - base) <= 1e-12 * base
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert abs(operator_norm(q1 @ a @ q2) - base) <= 1e-10 * base


@pytest.mark.parametrize("n,complex_", [(3, False), (8, False), (17, True), (60, True)])
def test_operator_norm_matches_lapack(n, complex_):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    ref = np.linalg.norm(a, 2)
    assert abs(operator_norm(a) - ref) <= 1e-12 * ref


def test_operator_norm_rectangular():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 3))
    ref = np.linalg.norm(a, 2)
    assert abs(operator_norm(a) - ref) <= 1e-12 * ref


def test_operator_norm_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 30))
    assert operator_norm(a) == operator_norm(a.copy())


def test_operator_norm_lapack_agreement():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((25, 25))
    ref = np.linalg.norm(a, 2)
    assert abs(operator_norm(a) - ref) <= 1e-12 * ref


def test_operator_norm_zero_and_contracts():
    assert operator_norm(np.zeros((4, 4))) == 0.0
    with pytest.raises(ContractError):
        operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ContractError):
        operator_norm(np.zeros((0, 3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(d=st.lists(st.tuples(st.floats(1e-100, 1e100), st.booleans()), min_size=1, max_size=40))
def test_operator_norm_exact_on_real_diagonal(d):
    # no fast path: the LAPACK solve itself returns max|d| exactly
    diag = np.array([-x if neg else x for x, neg in d])
    assert operator_norm(np.diag(diag)) == np.max(np.abs(diag))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24), dtype=st.sampled_from([float, complex]))
def test_operator_norm_exact_on_zero(rows, cols, dtype):
    assert operator_norm(np.zeros((rows, cols), dtype=dtype)) == 0.0


def test_exact_norm_hermitian_branch():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    assert abs(_exact_norm(a) - np.linalg.norm(a, 2)) <= 1e-12


def test_commutator_self_is_zero():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    assert np.max(np.abs(commutator(a, a))) == 0.0


def test_commutator_projection_pair_by_hand():
    # (I + sigma_x)/2 against (I + sigma_z)/2
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    q = np.array([[1.0, 0.0], [0.0, 0.0]])
    c = commutator(p, q)
    assert np.allclose(c, [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)
    assert abs(operator_norm(c) - 0.5) <= 1e-12


def test_commutator_diagonals_commute():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([-1.0, 5.0, 0.5])
    assert np.max(np.abs(commutator(a, b))) == 0.0


def test_commutator_size_mismatch():
    with pytest.raises(ContractError):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(ContractError):
        commutator(np.ones((2, 3)), np.ones((2, 3)))


def test_projection_commutator_bound():
    # ||[P, Q]|| <= 1/2 for any pair of orthogonal projections
    rng = np.random.default_rng(17)
    for n in (2, 5, 9, 16):
        for _ in range(5):
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            k1 = int(rng.integers(1, n))
            k2 = int(rng.integers(1, n))
            p = q1[:, :k1] @ q1[:, :k1].T
            q = q2[:, :k2] @ q2[:, :k2].T
            assert operator_norm(commutator(p, q)) <= 0.5 + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 512, 513, 1025])
def test_toeplitz_matvec_matches_long_double_dense(m):
    # a non-symmetric table, so that T[j, i] in place of T[i, j] fails (by
    # about 2% of max|Tx| at these sizes)
    rng = np.random.default_rng(m)
    table, x = rng.uniform(0.5, 1.5, 2 * m - 1), rng.uniform(0.5, 1.5, m)
    i = np.arange(m)
    exact = table.astype(np.longdouble)[np.subtract.outer(i, i) + m - 1] @ x
    fast = toeplitz_matvec(table, m)(x)
    assert fast.shape == (m,)
    assert np.max(np.abs(fast - exact)) <= 16 * np.finfo(float).eps * np.max(np.abs(exact))


def _diagonal(d):
    return lambda x: d * x


@pytest.mark.parametrize("m", [1, 2, 23, 24, 25, 300])
def test_lanczos_top_matches_dense_on_random_symmetric(m):
    a = np.random.default_rng(m).standard_normal((m, m))
    a = a + a.T
    top = lanczos_top(lambda x: a @ x, m)
    w = np.linalg.eigvalsh(a)
    want = w[0] if abs(w[0]) > abs(w[-1]) else w[-1]
    assert abs(top.value - want) <= 1e-12 * abs(want)
    assert abs(np.linalg.norm(top.vector) - 1.0) <= 1e-12
    assert np.linalg.norm(a @ top.vector - top.value * top.vector) <= 1e-10 * abs(want)


def test_lanczos_top_restarts_until_converged():
    # an evenly spaced spectrum needs several 24-step cycles
    d = np.linspace(-1.0, 0.5, 100)
    top = lanczos_top(_diagonal(d), 100)
    assert top.matvecs > 24
    assert abs(top.value + 1.0) <= 1e-14


def test_lanczos_top_invariant_start_takes_one_matvec():
    one = lanczos_top(_diagonal(np.array([0.25])), 1)
    assert (one.value, one.vector.tolist(), one.matvecs) == (0.25, [1.0], 1)
    m = LANCZOS_STEPS + 6  # above the one-shot solve
    zero = lanczos_top(lambda x: 0.0 * x, m)
    assert zero.value == 0.0 and zero.matvecs == 1
    d = np.linspace(1.0, 2.0, m)
    eigenvector = lanczos_top(_diagonal(d), m, np.eye(m)[-1])
    assert (eigenvector.value, eigenvector.matvecs) == (2.0, 1)


def _reflection_odd_top(m, seed):
    """A symmetric m x m matrix that commutes with x -> x[::-1], with its
    eigenvalue of largest modulus, 12, on a reflection-odd eigenvector
    (m >= 2; 10 on an even one at m = 1) and the even-sector top at 10, the
    rest of the spectrum in [-1, 1]."""
    b = np.random.default_rng(seed).standard_normal((m, m))
    b = b + b.T
    _, u = np.linalg.eigh(b + b[::-1, ::-1])  # each eigenvector even or odd
    odd = np.all(np.abs(u + u[::-1]) <= 1e-12, axis=0)
    w = np.linspace(-1.0, 1.0, m)
    w[np.flatnonzero(~odd)[0]] = 10.0
    if m >= 2:
        w[np.flatnonzero(odd)[0]] = 12.0
    a = (u * w) @ u.T
    a = (a + a.T) / 2
    return (a + a[::-1, ::-1]) / 2, w.max()  # exactly symmetric under the reflection


@pytest.mark.parametrize("m", range(1, LANCZOS_STEPS + 1))
def test_lanczos_top_one_shot_solve_at_small_m(m):
    # one product with the identity and one dense eigensolve: the default
    # start is reflection-even, yet the odd top is found
    a, top = _reflection_odd_top(m, m)
    calls = []

    def matvec(x):
        calls.append(x.shape)
        return x @ a

    found = lanczos_top(matvec, m)
    assert calls == [(m, m)] and found.matvecs == m
    assert abs(found.value - top) <= 1e-12 * abs(top)
    assert abs(np.linalg.norm(found.vector) - 1.0) <= 1e-12
    assert np.linalg.norm(a @ found.vector - found.value * found.vector) <= 1e-10 * abs(top)


def test_lanczos_top_raises_instead_of_returning_unconverged():
    d = np.linspace(0.0, 1.0, 200)
    d[-2] = 1.0 - 1e-13  # a pair Lanczos cannot separate in 20 cycles
    with pytest.raises(ComputationError):
        lanczos_top(_diagonal(d), 200)
    with pytest.raises(ContractError):
        lanczos_top(_diagonal(np.ones(1)), 0)


def test_lanczos_top_start_must_lie_in_the_top_sector():
    # an operator that commutes with the reflection x -> x[::-1], with its
    # eigenvalue of largest modulus on an odd eigenvector, at a size above
    # the one-shot solve
    m = LANCZOS_STEPS + 9
    a, top = _reflection_odd_top(m, 5)
    # from the default start, ones/sqrt(m), Lanczos never leaves the even
    # sector: it converges with a tiny residual to an eigenvalue that is not
    # the top
    even = lanczos_top(lambda x: a @ x, m)
    assert abs(even.value - top) > 1.0
    assert np.linalg.norm(a @ even.vector - even.value * even.vector) <= 1e-10 * abs(top)
    # a start inside the odd sector finds it
    x = np.arange(m) - (m - 1) / 2.0 + np.cos(np.arange(m))
    found = lanczos_top(lambda x: a @ x, m, x - x[::-1])
    assert abs(found.value - top) <= 1e-12 * abs(top)


def test_lanczos_top_start_contract():
    d = np.linspace(1.0, 2.0, 4)
    given, default = lanczos_top(_diagonal(d), 4, np.full(4, 3.0)), lanczos_top(_diagonal(d), 4)
    assert (given.value, given.matvecs) == (default.value, default.matvecs)
    assert np.array_equal(given.vector, default.vector)
    for bad in (np.zeros(4), np.ones(3), np.full(4, np.nan)):
        with pytest.raises(ContractError):
            lanczos_top(_diagonal(d), 4, bad)

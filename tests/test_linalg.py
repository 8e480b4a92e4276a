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
from speclab.linalg import _exact_norm


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
    zero = lanczos_top(lambda x: 0.0 * x, 5)
    assert zero.value == 0.0 and zero.matvecs == 1


def test_lanczos_top_raises_instead_of_returning_unconverged():
    d = np.linspace(0.0, 1.0, 200)
    d[-2] = 1.0 - 1e-13  # a pair Lanczos cannot separate in 20 cycles
    with pytest.raises(ComputationError):
        lanczos_top(_diagonal(d), 200)
    with pytest.raises(ContractError):
        lanczos_top(_diagonal(np.ones(1)), 0)


def test_lanczos_top_start_must_lie_in_the_top_sector():
    # an operator that commutes with the reflection x -> x[::-1], with its
    # eigenvalue of largest modulus on an odd eigenvector
    m = 9
    b = np.random.default_rng(5).standard_normal((m, m))
    a = b + b.T
    a = a + a[::-1, ::-1]
    a = a + 12.0 * (np.eye(m) - np.eye(m)[::-1]) / 2  # lifts the odd sector
    w, v = np.linalg.eigh(a)
    top = w[np.argmax(np.abs(w))]
    odd = v[:, np.argmax(np.abs(w))]
    assert np.allclose(odd, -odd[::-1])
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

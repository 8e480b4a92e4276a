import ast
import contextlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    ComputationError,
    ContractError,
    commutator,
    hankel,
    lanczos_top,
    linalg,
    models,
    operator_norm,
)
from speclab.linalg import (
    LANCZOS_CYCLES,
    LANCZOS_STEPS,
    LANCZOS_TOL,
    NormRecord,
    RitzPair,
    _exact_norm,
    certified_norm,
    fft_length,
    toeplitz_matvec,
)


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


def _two_norm_inputs():
    rng = np.random.default_rng(17)
    for shape in ((1, 1), (2, 2), (9, 9), (40, 40), (7, 3), (3, 7), (1, 12), (33, 20)):
        a = rng.standard_normal(shape)
        yield a
        yield a + 1j * rng.standard_normal(shape)
        yield np.zeros(shape)
        yield np.zeros(shape, dtype=complex)
        d = np.zeros(shape)
        np.fill_diagonal(d, rng.standard_normal(min(shape)))
        yield d
        yield d * np.exp(1j * rng.uniform(0.1, 3.0, shape))


def test_exact_norm_is_lapacks_two_norm_bit_for_bit():
    # gesdd's first singular value, whose max np.linalg.norm(a, 2) takes; the
    # exactly Hermitian zero and real diagonal squares take the eigvalsh branch
    for a in _two_norm_inputs():
        assert _exact_norm(a) == np.linalg.norm(a, 2), a.shape


def _exact_norm_one_matrix(a):
    """The one-matrix kernel the stacked one replaced, kept as the bitwise
    reference: eigvalsh on an exactly Hermitian square, else gesdd's first
    singular value."""
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T):
        w = np.linalg.eigvalsh(a)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _norm_stacks():
    rng = np.random.default_rng(29)
    for shape in ((1, 1), (2, 2), (9, 9), (31, 31), (7, 3), (3, 7)):
        real = rng.standard_normal((4,) + shape)
        cplx = real + 1j * rng.standard_normal((4,) + shape)
        yield real
        yield cplx
        yield np.zeros((3,) + shape)
        yield np.zeros((3,) + shape, dtype=complex)
        if shape[0] == shape[1]:
            yield real + real.swapaxes(1, 2)  # every matrix Hermitian
            yield cplx + cplx.conj().swapaxes(1, 2)
            # Hermitian, zero, general and diagonal matrices in one stack
            mixed = np.stack([real[0] + real[0].T, np.zeros(shape), real[1], np.diag(real[2, 0])])
            yield mixed
            yield mixed.reshape((2, 2) + shape)


def test_stacked_operator_norm_is_the_per_matrix_norm_bit_for_bit():
    for stack in _norm_stacks():
        got = operator_norm(stack)
        assert isinstance(got, np.ndarray) and got.shape == stack.shape[:-2], stack.shape
        for index in np.ndindex(stack.shape[:-2]):
            alone = operator_norm(stack[index])
            assert isinstance(alone, float)
            assert alone == _exact_norm_one_matrix(stack[index]), (stack.shape, index)
            assert np.float64(got[index]).view(np.int64) == np.float64(alone).view(np.int64)


def test_stacked_operator_norm_contracts():
    with pytest.raises(ContractError):
        operator_norm(np.zeros((0, 3, 3)))
    with pytest.raises(ContractError):
        operator_norm(np.zeros(3))
    stack = np.zeros((2, 3, 3))
    stack[1, 0, 2] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        operator_norm(stack)


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


# 2m - 1 just above a power of two (33, 69, 321, 513, 643, 1025, 2049: lengths
# 80, 160, 800, 1280, 1600, 2560, 5120 = 2^a 5^c), with a factor 3 (1300:
# 3072 = 2^10 3) and at a power of two (512: 1024)
@pytest.mark.parametrize("m", [1, 2, 3, 33, 69, 321, 512, 513, 643, 1025, 1300, 2049])
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


def test_fft_length_is_a_short_5_smooth_length_no_longer_than_the_power_of_two():
    for m in range(1, 2**14 + 1):
        n = 2 * m - 1
        size = odd = fft_length(n)
        for p in (2, 3, 5):
            while odd % p == 0:
                odd //= p
        assert odd == 1 and n <= size <= 1 << (n - 1).bit_length(), m
    # many factors 3 or 5 are slower than the power of two: 972 = 2^2 3^5
    # and 1000 = 2^3 5^3 are never taken for 1024
    assert [fft_length(n) for n in (961, 1000, 1025, 2049)] == [1024, 1024, 1280, 2560]


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


def _sector_gram(m, seed, even, odd):
    """A symmetric m x m operator >= 0 that commutes with x -> x[::-1] bit
    for bit, with the eigenvalue ``even`` on a reflection-even eigenvector,
    ``odd`` on an odd one and the rest of its spectrum in
    [0, min(even, odd) / 2] (m >= 2)."""
    b = np.random.default_rng(seed).standard_normal((m, m))
    b = b + b.T
    _, u = np.linalg.eigh(b + b[::-1, ::-1])  # each eigenvector even or odd
    is_odd = np.all(np.abs(u + u[::-1]) <= 1e-12, axis=0)
    w = np.linspace(0.0, min(even, odd) / 2, m)
    w[np.flatnonzero(~is_odd)[0]], w[np.flatnonzero(is_odd)[0]] = even, odd
    a = (u * w) @ u.T
    a = (a + a.T) / 2
    return (a + a[::-1, ::-1]) / 2


SECTOR_TOPS = {"odd top": (0.09, 0.16), "even top": (0.16, 0.09), "equal tops": (0.16, 0.16)}


@pytest.mark.parametrize("m", [LANCZOS_STEPS + 1, 30, 31, 120, 121])
@pytest.mark.parametrize("case", sorted(SECTOR_TOPS))
def test_mirror_norm_matches_dense_whichever_sector_holds_the_top(m, case):
    even, odd = SECTOR_TOPS[case]
    g = _sector_gram(m, m, even, odd)
    dense = math.sqrt(operator_norm(g))
    start = np.linspace(1.0, 2.0, m)  # a part in each sector
    record = certified_norm(lambda x: x @ g, m, start, gram=True, mirror=True)
    slack = 16 * np.finfo(float).eps * dense
    assert abs(record.value - dense) <= 1e-13 and abs(dense - 0.4) <= 1e-13
    assert record.lower - slack <= dense <= record.upper == 0.5
    plain = certified_norm(lambda x: x @ g, m, start, gram=True)
    assert abs(plain.value - dense) <= 1e-13


@pytest.mark.parametrize("m", [30, 31])
@pytest.mark.parametrize("scale", [1e-9, 0.09, 0.2025])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_mirror_sector_that_turns_invariant_leaves_the_product(m, scale, sector):
    # one sector of the operator is ``scale`` times the identity, so its row
    # stops on the first step, even at 1e-9, far below the other sector's
    # top 0.16: its test, and the Paige bound that may skip the eigensolve,
    # are held to the larger top of both rows, as the shared product's
    # rounding leaves it a floor near eps * 0.16.  Every later product is of
    # the other row's vector alone, put back into its sector on every step,
    # so its part in the stopped sector stays at rounding (at most 1.2e-16
    # here; 1.9e-12 and growing threefold per step without the projection),
    # where the stopped row's unit vector would add a part of order 1/sqrt(m).
    flip = 1.0 if sector == "even" else -1.0
    g = _sector_gram(m, m, 0.04, 0.16) if sector == "even" else _sector_gram(m, m, 0.16, 0.04)
    calls = []

    def op(x):
        calls.append(x.copy())
        return scale * ((x + flip * x[::-1]) * 0.5) + ((x - flip * x[::-1]) * 0.5) @ g

    dense = math.sqrt(max(scale, operator_norm(g)))
    record = certified_norm(op, m, np.linspace(1.0, 2.0, m), gram=True, mirror=True)
    assert abs(record.value - dense) <= 1e-13
    assert record.lower - 16 * np.finfo(float).eps <= dense
    assert len(calls) > 3
    # every product but the first and the certificate's, the last
    assert all(np.max(np.abs(x + flip * x[::-1])) <= 1e-14 for x in calls[1:-1])


def test_mirror_start_needs_a_part_in_each_sector():
    m = LANCZOS_STEPS + 6
    g = _sector_gram(m, 1, 0.09, 0.16)
    for start in (None, np.ones(m), np.arange(m) - (m - 1) / 2.0):
        with pytest.raises(ContractError, match="each reflection sector"):
            lanczos_top(lambda x: x @ g, m, start, mirror=True)


def test_mirror_takes_fewer_products_on_the_ring_and_heisenberg(monkeypatch):
    # the pairing must not switch off unnoticed: on each family's own Gram
    # operator one run from the same start with no mirror takes more products
    runs = []
    kernel = linalg.lanczos_top

    def spy(matvec, m, start=None, mirror=False):
        runs.append((matvec, m, start, mirror))
        return kernel(matvec, m, start, mirror)

    monkeypatch.setattr(linalg, "lanczos_top", spy)
    ring, heisenberg = models.ring_commutator(200, 200, 0.0), models.heisenberg_commutator(320)
    monkeypatch.undo()
    assert [mirror for *_, mirror in runs] == [True, True]
    for report, (matvec, m, start, _) in zip((ring, heisenberg), runs):
        plain = lanczos_top(matvec, m, start)
        assert abs(math.sqrt(plain.value) - report.norm) <= 1e-15
        assert report.record.matvecs - 1 < 0.8 * plain.matvecs, (report.family, plain.matvecs)


def _kernel_cases(m):
    """(matrix, gram, perron) for each branch of certified_norm, every norm
    scaled to 0.4, below the 1/2 a lanczos record's upper end assumes."""
    rng = np.random.default_rng(m)
    sym = rng.standard_normal((m, m))
    sym = sym + sym.T
    rect = rng.standard_normal((m + 3, m))
    pos = rng.random((m, m)) + 0.01
    pos = pos + pos.T
    sym, rect, pos = (0.4 / operator_norm(t) * t for t in (sym, rect, pos))
    return [(sym, False, False), (rect.T @ rect, True, False), (pos, False, True),
            (pos @ pos, True, True)]


@pytest.mark.parametrize("m", [1, 24, 25, 300])
def test_certified_norm_matches_dense_on_every_branch(m):
    for a, gram, perron in _kernel_cases(m):
        # the dense norm of the operator the kernel is given, square-rooted
        # for a Gram operator (its ends certify that matrix, rounding and all)
        dense = math.sqrt(operator_norm(a)) if gram else operator_norm(a)
        record = certified_norm(lambda x: x @ a, m, gram=gram, perron=perron)
        # the dense solve rounds too: eigh and eigvalsh differ by up to
        # 1.2e-15 on these matrices, so the ends are held to its error
        slack = 16 * np.finfo(float).eps * dense
        assert record.lower - slack <= dense <= record.upper + slack, (gram, perron)
        assert abs(record.value - dense) <= 1e-13, (gram, perron)
        assert record.method == ("perron" if perron else "lanczos")
        assert record.matvecs == lanczos_top(lambda x: x @ a, m).matvecs + 1
        if not perron:
            assert record.upper == 0.5
    for gram in (False, True):
        for perron in (False, True):
            zero = certified_norm(None, 0, gram=gram, perron=perron)
            assert zero == NormRecord(0.0, "lanczos", 0, 0.0, 0.5)
            assert all(type(t) is float for t in (zero.value, zero.lower, zero.upper))


def _calls_to(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_lanczos_top_is_called_only_from_certified_norm():
    src = Path(__file__).parents[1] / "src" / "speclab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    calls = {name: len(_calls_to(tree, "lanczos_top")) for name, tree in trees.items()}
    assert {name: k for name, k in calls.items() if k} == {"linalg.py": 1}
    kernel = next(node for node in ast.walk(trees["linalg.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "certified_norm")
    assert len(_calls_to(kernel, "lanczos_top")) == 1


def test_linalg_holds_one_lanczos_step_loop():
    # one recurrence serves one row and both reflection sectors; a second
    # copy of the step loop would carry its own Paige bound, stopping test,
    # restart and non-finite checks
    tree = ast.parse((Path(__file__).parents[1] / "src" / "speclab" / "linalg.py").read_text())
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call) and getattr(node.iter.func, "id", None) == "range"
             and [getattr(arg, "id", None) for arg in node.iter.args] == ["LANCZOS_STEPS"]]
    assert len(loops) == 1


def _lanczos_top_reference(matvec, m, start=None, trace=None, mirror=False):
    """lanczos_top with numpy's symmetric eigensolver on every step's
    tridiagonal, the loop the kernel ran before it skipped the steps Paige's
    bound rules out: one row, or with ``mirror`` the even and the odd row in
    lockstep on one product per step, reorthogonalised together, each solved
    on its own.  ``trace``
    collects (cycle, step, |beta s_j|, LANCZOS_TOL eps max_r |theta_r|) of
    each row and step."""
    if m <= LANCZOS_STEPS:
        theta, s = np.linalg.eigh(matvec(np.eye(m)), UPLO="L")
        top = int(np.argmax(np.abs(theta)))
        return RitzPair(float(theta[top]), s[:, top], m)
    start = np.full(m, 1.0 / math.sqrt(m)) if start is None else start / np.linalg.norm(start)
    starts = [start + start[::-1], start - start[::-1]] if mirror else [start]
    starts = [x / np.linalg.norm(x) for x in starts] if mirror else starts
    k = len(starts)
    eps = np.finfo(float).eps
    basis = np.empty((LANCZOS_STEPS, k, m))
    tri = np.zeros((k, LANCZOS_STEPS, LANCZOS_STEPS))
    best, live, matvecs = None, list(range(k)), 0
    for cycle in range(LANCZOS_CYCLES):
        for r in live:
            basis[0, r] = starts[r]
        for j in range(LANCZOS_STEPS):
            y = matvec(basis[j, live].sum(axis=0))
            matvecs += 1
            parts = [(y - y[::-1] if r else y + y[::-1]) * 0.5 for r in live] if mirror else [y]
            for r, w in zip(live, parts):
                tri[r, j, j] = basis[j, r] @ w
            # both live rows' new vectors against both rows' bases at once
            w = parts[0] if len(live) == 1 else np.array(parts)
            q = basis[: j + 1, live[0] : live[-1] + 1].reshape(-1, m)
            w = w - (w @ q.T) @ q
            w = w - (w @ q.T) @ q
            if mirror and len(live) == 1:  # a lone row's vector, back into its sector
                w = (w - w[::-1] if live[0] else w + w[::-1]) * 0.5
            steps = []
            for r, x in zip(live, [w] if len(live) == 1 else w):
                theta, s = np.linalg.eigh(tri[r, : j + 1, : j + 1], UPLO="L")
                steps.append((r, x, np.linalg.norm(x), theta, s, int(np.argmax(np.abs(theta)))))
            floor = LANCZOS_TOL * eps * max([abs(theta[top]) for *_, theta, s, top in steps]
                                            + ([abs(best[0])] if best else []))
            live = []
            for r, w, beta, theta, s, top in steps:
                residual = abs(beta * s[j, top])
                if trace is not None:
                    trace.append((cycle, j, residual, floor))
                if residual <= floor:  # the larger top so far; on a tie, the first
                    if best is None or abs(theta[top]) > abs(best[0]):
                        best = (float(theta[top]), s[:, top] @ basis[: j + 1, r])
                    continue
                live.append(r)
                if j + 1 < LANCZOS_STEPS:
                    basis[j + 1, r] = w / beta
                    tri[r, j + 1, j] = beta
                else:
                    starts[r] = s[:, top] @ basis[:, r]
                    starts[r] /= np.linalg.norm(starts[r])
            if not live:
                return RitzPair(*best, matvecs)
    raise ComputationError(f"no convergence after {matvecs} matvecs")


@contextlib.contextmanager
def _eigh_sizes():
    """Records the size of every np.linalg.eigh call made inside the block."""
    sizes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])  # the kernel solves a stack of k rows' blocks
        return eigh(a, *args, **kwargs)

    np.linalg.eigh = spy
    try:
        yield sizes
    finally:
        np.linalg.eigh = eigh


def _assert_same_ritz_pair(matvec, m, start=None, mirror=False):
    """lanczos_top against the reference, bit for bit; returns its result,
    its eigensolves and its Lanczos steps (0 and 0 on the one-shot solve)."""
    want = _lanczos_top_reference(matvec, m, start, mirror=mirror)
    with _eigh_sizes() as sizes:
        got = lanczos_top(matvec, m, start, mirror)
    assert got.value == want.value and got.matvecs == want.matvecs, m
    assert np.array_equal(got.vector, want.vector), m
    return (got, len(sizes), got.matvecs) if m > LANCZOS_STEPS else (got, 0, 0)


def _restart_diagonal():
    return _diagonal(np.linspace(-1.0, 0.5, 100)), 100, None


def _odd_top(m):
    a, _ = _reflection_odd_top(m, 5)
    x = np.arange(m) - (m - 1) / 2.0 + np.cos(np.arange(m))
    return (lambda v: v @ a), m, x - x[::-1]


def test_lanczos_top_is_the_every_step_eigensolve_bit_for_bit():
    cases = [_restart_diagonal(), _odd_top(LANCZOS_STEPS + 9), _odd_top(LANCZOS_STEPS + 1)]
    for m in (25, 40, 300):
        a = np.random.default_rng(m).standard_normal((m, m))
        a = a + a.T
        cases.append(((lambda x, a=a: x @ a), m, None))
    # started in the span of three eigenvectors, the Krylov space turns
    # invariant on the third step of the first cycle
    invariant = _diagonal(np.linspace(-1.0, 0.5, 40)), 40, np.eye(40)[[0, 17, 39]].sum(axis=0)
    cases = [case + (False,) for case in cases + [invariant]]
    # both reflection sectors in lockstep, from a start with a part in each
    a, _ = _reflection_odd_top(40, 7)
    cases.append(((lambda x: x @ a), 40, np.linspace(1.0, 2.0, 40), True))
    results = [_assert_same_ritz_pair(*case) for case in cases]
    invariant_top = results[-2][0]
    assert (invariant_top.value, invariant_top.matvecs) == (-1.0, 3)
    solves, steps = sum(k for _, k, _ in results), sum(n for *_, n in results)
    assert solves < steps


FAMILY_CALLS = {
    "ring": lambda n: [models.ring_commutator(n, n, a) for a in (0.0, 0.3)],
    "heisenberg": lambda n: [models.heisenberg_commutator(n, a) for a in (0.0, 0.3)],
    "se2": models.se2_commutator,
    "hankel a = 0": lambda n: hankel.truncated_norm_record(hankel.HALF_CIRCLE, n),
    "hankel a = 0.3": lambda n: hankel.truncated_norm_record(hankel.ArcSymbol(0.3), n),
    "su2": models.su2_commutator,
}


@pytest.mark.parametrize("sizes", [range(60, 64), range(1025, 1029)])
@pytest.mark.parametrize("family", sorted(FAMILY_CALLS))
def test_every_family_operator_is_solved_bit_for_bit(monkeypatch, family, sizes):
    # certified_norm's one lanczos_top call, on each family's real operator at
    # every n mod 4, checked against the every-step eigensolve
    counts = []

    def checked(matvec, m, start=None, mirror=False):
        got, k, n = _assert_same_ritz_pair(matvec, m, start, mirror)
        counts.append((k, n))
        return got

    monkeypatch.setattr(linalg, "lanczos_top", checked)
    for n in sizes:
        FAMILY_CALLS[family](n)
    solves, steps = map(sum, zip(*counts))
    assert steps and solves < steps, counts


def test_near_degenerate_pair_still_runs_every_cycle():
    d = np.linspace(0.0, 1.0, 200)
    d[-2] = 1.0 - 1e-13
    for solver in (lanczos_top, _lanczos_top_reference):
        products = []

        def matvec(x):
            products.append(1)
            return d * x

        with pytest.raises(ComputationError):
            solver(matvec, 200)
        assert len(products) == LANCZOS_CYCLES * LANCZOS_STEPS


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [5, 30])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_products_raise_computation_error(m, bad):
    # not numpy's LinAlgError from the eigensolver, and never at the skip test
    def poisoned(x):
        return np.where(np.arange(m) == m // 2, bad, 0.5 * x)

    for op in (poisoned, lambda x: x + bad):
        with pytest.raises(ComputationError, match=f"m = {m}"):
            lanczos_top(op, m)
        for gram in (False, True):
            for perron in (False, True):
                with pytest.raises(ComputationError, match=f"m = {m}"):
                    certified_norm(op, m, gram=gram, perron=perron)
        # both sectors in lockstep, from a start with a part in each
        with pytest.raises(ComputationError, match=f"m = {m}"):
            certified_norm(op, m, np.linspace(1.0, 2.0, m), gram=True, mirror=True)


def test_non_finite_product_names_its_step():
    calls = []

    def late_nan(x):
        calls.append(1)
        return np.full_like(x, np.nan) if len(calls) == 30 else np.linspace(0.0, 1.0, 40) * x

    with pytest.raises(ComputationError, match=r"step 5 of cycle 1 \(m = 40\)"):
        lanczos_top(late_nan, 40)


def _tridiagonal(alphas, decades):
    betas = 10.0 ** np.asarray(decades[: len(alphas) - 1])
    return np.diag(alphas) + np.diag(betas, -1) + np.diag(betas, 1), betas


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(alphas=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=LANCZOS_STEPS),
       decades=st.lists(st.floats(-6.0, 0.0), min_size=LANCZOS_STEPS, max_size=LANCZOS_STEPS),
       scale=st.floats(1e-3, 1e3))
def test_paige_identity_on_unreduced_tridiagonals(alphas, decades, scale):
    # |s_0i s_ki| prod_{l != i} |theta_i - theta_l| = prod beta_l, held to
    # 1e-10, or to the first-order rounding of the computed eigenpairs where
    # that is larger: a component near 1e-8 carries an absolute error of
    # order eps ||T|| / gap, up to 8e-8 of it relative on these matrices
    t, betas = _tridiagonal(alphas, decades)
    t, betas = scale * t, scale * betas
    theta, s = np.linalg.eigh(t)
    eps, norm = np.finfo(float).eps, np.max(np.abs(theta))
    for i in range(len(t)):
        first, last = abs(s[0, i]), abs(s[-1, i])
        if min(first, last) <= 1e-8:
            continue
        gaps = np.abs(theta[i] - np.delete(theta, i))
        if not gaps.min() > 0.0:
            continue
        error = abs(np.expm1(math.log(first * last) + np.log(gaps).sum() - np.log(betas).sum()))
        rounding = eps * norm * ((1 / first + 1 / last) / gaps.min() + np.sum(1 / gaps))
        assert error <= max(1e-10, 16 * rounding), (i, error, rounding)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(alphas=st.lists(st.floats(-1.0, 1.0), min_size=LANCZOS_STEPS + 1, max_size=48),
       decades=st.lists(st.floats(-3.0, 0.0), min_size=47, max_size=47),
       from_first=st.booleans())
def test_every_skipped_eigensolve_would_have_failed_the_test(alphas, decades, from_first):
    # Lanczos from e_0 on a tridiagonal retraces it, so each cycle's T_k
    # (k <= 24) is an unreduced tridiagonal of the draw; a step the kernel
    # solves no eigenproblem on must fail the stopping test by the dense solve
    t, _ = _tridiagonal(alphas, decades)
    m = len(t)
    start = np.eye(m)[0] if from_first else None
    trace = []
    try:
        want = _lanczos_top_reference(lambda x: t @ x, m, start, trace)
    except ComputationError:
        want = None
    with _eigh_sizes() as sizes:
        try:
            got = lanczos_top(lambda x: t @ x, m, start)
        except ComputationError:
            got = None
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.value, got.matvecs) == (want.value, want.matvecs)
        assert np.array_equal(got.vector, want.vector)
    # sizes grow within a cycle, whose last step always solves
    solved, cycle, last = set(), 0, 0
    for k in sizes:
        cycle, last = cycle + (k <= last), k
        solved.add((cycle, k - 1))
    assert len(solved) == len(sizes)
    for cycle, j, residual, floor in trace:
        if (cycle, j) not in solved:
            assert residual > floor, (cycle, j, residual, floor)


def test_hankel_solves_an_eigenproblem_on_at_most_half_the_steps():
    # the skip must not switch off unnoticed: an eigensolve per step would give 13 of 13
    with _eigh_sizes() as sizes:
        record = hankel.truncated_norm_record(hankel.ArcSymbol(0.3), 1025)
    steps = record.matvecs - 1  # certified_norm's one product after Lanczos
    assert steps > 1 and 2 * len(sizes) <= steps, (len(sizes), steps)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    ComputationError,
    ContractError,
    HALF_CIRCLE,
    HalfInt,
    SpinRep,
    commutator,
    extremal_vector,
    fourier_coeff,
    grid_in_arc,
    hankel_truncation,
    heisenberg_commutator,
    heisenberg_submatrix,
    operator_norm,
    projection_x,
    ring_commutator,
    ring_submatrix,
    se2_commutator,
    su2_caps_commutator,
    su2_commutator,
    su2_submatrix,
)
from speclab import models
from speclab.hankel import ArcSymbol, _coeff_grid
from speclab.models import _heis_pairing_table
from speclab.spinrep import _jx_eigensystem, weight_at_most, weight_exceeds

# frozen by oracle runs (see tests/test_acceptance.py for the committed values)
SU2_SUBMATRIX_TOL_N4001 = 2.5e-4
HEIS_SUBMATRIX_TOL_N2048 = 7.5e-4


# ---------------------------------------------------------------------------
# SU(2)
# ---------------------------------------------------------------------------

def test_su2_two_dim_exact_half():
    r = su2_commutator(2)
    assert abs(r.norm - 0.5) <= 1e-12
    assert r.family == "su2"
    assert np.allclose(r.matrix, [[0.0, -0.5], [0.5, 0.0]], atol=1e-14)


def test_su2_three_dim_hand_value():
    # spin-1 top eigenvector (1/2, 1/sqrt2, 1/2) gives the off-diagonal block
    # [1/(2 sqrt 2), 1/4], whose norm is sqrt(3)/4
    r = su2_commutator(3)
    assert abs(r.norm - math.sqrt(3) / 4) <= 1e-12


@pytest.mark.parametrize("n", [2, 6, 10, 58])
def test_su2_ladder_sample(n):
    assert abs(su2_commutator(n).norm - 0.5) <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 8, 31])
def test_su2_block_structure_exact(n):
    r = su2_commutator(n)
    assert r.block_check == 0.0
    n_pos = n // 2
    assert np.all(r.matrix[:n_pos, :n_pos] == 0.0)
    assert np.all(r.matrix[n_pos:, n_pos:] == 0.0)


def test_su2_interval_family_tag_and_norm():
    r = su2_commutator(24, 0.2, 0.7)
    assert r.family == "su2_interval"
    assert 0.0 <= r.norm <= 0.5 + 1e-10
    assert r.block_check is None
    # the commutator equals the direct product difference
    p = projection_x(SpinRep(24), 0.2)
    assert abs(r.norm - operator_norm(r.matrix)) <= 1e-12


def test_su2_interval_limit_trend():
    # C_{n,a,b} norms close in on 1/2 as n grows (with small oscillation)
    norms = [su2_commutator(n, 0.3, 0.6).norm for n in (24, 96, 384)]
    assert all(v <= 0.5 + 1e-10 for v in norms)
    assert 0.5 - norms[-1] <= 0.5 * (0.5 - norms[0])
    assert 0.5 - norms[-1] <= 0.01


def test_su2_contracts():
    with pytest.raises(ContractError):
        su2_commutator(4, a=1.0)
    with pytest.raises(ContractError):
        su2_commutator(4, b=0.0)
    with pytest.raises(ContractError):
        su2_commutator(1)


def test_su2_caps_reduces_to_plain_at_zero():
    for n in (5, 18):
        assert abs(su2_caps_commutator(n, 0.0).norm - su2_commutator(n).norm) <= 1e-12


def test_su2_caps_kills_both_projections_at_high_threshold():
    r = su2_caps_commutator(2, 0.9)
    assert r.norm == 0.0
    assert np.all(r.matrix == 0.0)


def test_su2_caps_transition_ordering():
    lo = su2_caps_commutator(101, 0.25).norm
    hi = su2_caps_commutator(101, 0.75).norm
    assert lo - hi >= 0.1


def test_su2_submatrix_converges_to_hankel():
    target = hankel_truncation(HALF_CIRCLE, 4)
    errs = []
    for n in (101, 401, 1601, 4001):
        errs.append(float(np.max(np.abs(su2_submatrix(n, 4) - target))))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[-1] <= SU2_SUBMATRIX_TOL_N4001


def test_su2_submatrix_corner_entry_tends_to_one_over_pi():
    vals = [su2_submatrix(n, 1)[0, 0] for n in (101, 401, 1601)]
    errs = [abs(v - 1 / math.pi) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-6


def test_su2_submatrix_antidiagonal_emerges():
    gaps = []
    for n in (101, 401, 1601):
        s = su2_submatrix(n, 2)
        gaps.append(abs(s[0, 1] - s[1, 0]))
    assert gaps[0] > gaps[1] > gaps[2]


def test_su2_submatrix_even_dimension_convention():
    # even n uses half-integer indices m' = k - 1/2, m = 1/2 - l
    n, size = 12, 3
    p = projection_x(SpinRep(n), 0.0)
    rep = SpinRep(n)
    s = su2_submatrix(n, size)
    for k in range(1, size + 1):
        for l in range(1, size + 1):
            i = rep.index_of(HalfInt(2 * k - 1))
            jdx = rep.index_of(HalfInt(1 - 2 * l))
            assert abs(s[k - 1, l - 1] - p[i, jdx]) <= 1e-13


@pytest.mark.parametrize("n, size", [(9, 3), (12, 5), (101, 20), (102, 20), (401, 7), (402, 7)])
def test_su2_submatrix_is_projection_x_at_the_designated_weights(n, size):
    # entry (k, l) is P[m', m] at m' = k, m = 1 - l (odd n) or m' = k - 1/2,
    # m = 1/2 - l (even n), read through index_of from the whole projection
    rep = SpinRep(n)
    p = projection_x(rep, 0.0)
    half = 1 - n % 2
    idx = range(1, size + 1)
    want = [[p[rep.index_of(HalfInt(2 * k - half)), rep.index_of(HalfInt(2 - 2 * l - half))]
             for l in idx] for k in idx]
    assert np.max(np.abs(su2_submatrix(n, size) - np.array(want))) <= 1e-13


def test_su2_submatrix_contract():
    with pytest.raises(ContractError):
        su2_submatrix(9, 4)  # j = 4 is not > N = 4


# ---------------------------------------------------------------------------
# grid membership
# ---------------------------------------------------------------------------

def test_grid_membership_quarter_points_excluded():
    assert grid_in_arc(0, 4) is True
    for k in (-2, -1, 1, 2):
        assert grid_in_arc(k, 4) is False  # cos is 0 or -1 exactly


def test_grid_membership_matches_cosine_generic():
    for n in (5, 7, 12, 30):
        for k in range(-n, n + 1):
            expected = math.cos(2 * math.pi * (k % n) / n) > 0
            if 4 * (k % n) % (4 * n) in (n, 3 * n):
                expected = False
            assert grid_in_arc(k, n) is expected


def test_arc_membership_array_is_grid_in_arc_bitwise():
    # at a != 0 the array test is np.cos, which must round as libm's cos
    for a in (0.0, 0.3, 0.3183, 0.5, 1 / math.sqrt(2), math.sqrt(3) / 2):
        for n in [*range(1, 513), 1021, 1024, 2047, 2048]:
            ks = range(-n, n + 1)
            expected = np.array([1.0 if grid_in_arc(k, n, a) else 0.0 for k in ks])
            got = models._arc_membership(ks, n, a)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), (n, a)
    assert models._arc_membership(range(0), 5, 0.0).shape == (0,)


def test_grid_membership_boundary_point_excluded_for_shift():
    a = math.cos(2 * math.pi / 8)
    assert grid_in_arc(1, 8, a) is False  # Re(lambda) equals a exactly
    assert grid_in_arc(0, 8, a) is True


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------

def test_ring_exact_identity_machine_equality():
    for n, size in ((64, 15), (101, 25)):
        sub = ring_submatrix(n, size)
        assert np.array_equal(-sub, hankel_truncation(HALF_CIRCLE, size))


def test_ring_extraction_agrees_with_full_window():
    n, size = 64, 7
    window = -(-n // 4) + size  # covers the designated indices
    full = ring_commutator(n, window).matrix
    q = -(-n // 4)
    ks = np.arange(-window, window + 1)
    sub = np.empty((size, size))
    for k in range(1, size + 1):
        for l in range(1, size + 1):
            row = np.where(ks == q - k)[0][0]
            col = np.where(ks == q + l - 1)[0][0]
            sub[k - 1, l - 1] = full[row, col]
    assert np.array_equal(sub, ring_submatrix(n, size))


def test_ring_same_side_entries_vanish():
    r = ring_commutator(16, 16)
    ks = np.arange(-16, 17)
    memb = np.array([grid_in_arc(int(k), 16) for k in ks])
    same = np.equal.outer(memb, memb)
    assert np.all(r.matrix[same] == 0.0)


def test_ring_norm_bounded_and_growing():
    norms = [ring_commutator(n, n).norm for n in (8, 32, 128)]
    assert norms[0] < norms[1] < norms[2] <= 0.5 + 1e-10


def test_ring_shifted_reduces_to_plain():
    plain = ring_commutator(24, 10)
    shifted = ring_commutator(24, 10, 0.0)
    assert np.array_equal(plain.matrix, shifted.matrix)


def test_ring_contracts():
    with pytest.raises(ContractError):
        ring_commutator(1, 4)
    with pytest.raises(ContractError):
        ring_commutator(8, 0)
    with pytest.raises(ContractError):
        ring_commutator(8, 4, 1.0)
    with pytest.raises(ContractError):
        ring_submatrix(16, 4)
    for size in (0, -1):
        with pytest.raises(ContractError):
            ring_submatrix(10, size)
    for n in (0, -4):
        with pytest.raises(ContractError):
            grid_in_arc(3, n)


# ---------------------------------------------------------------------------
# finite Heisenberg
# ---------------------------------------------------------------------------

def test_heisenberg_two_dim_by_hand():
    r = heisenberg_commutator(2)
    assert abs(r.norm - 0.5) <= 1e-12
    # DFT conjugation of diag(1, 0) is the rank-one averaging projection
    memb = np.array([1.0, 0.0])
    f = np.exp(-2j * math.pi * np.outer(np.arange(2), np.arange(2)) / 2) / math.sqrt(2)
    p1 = (f.conj().T * memb[None, :]) @ f
    assert np.allclose(p1, 0.5 * np.ones((2, 2)), atol=1e-15)


@pytest.mark.parametrize("n", [2, 6, 10, 102])
def test_heisenberg_ladder(n):
    assert abs(heisenberg_commutator(n).norm - 0.5) <= 1e-10


def test_heisenberg_closed_form_residual():
    # 1/sqrt(2) at n = 64: the unreduced cosine test would break the arc's symmetry
    for n, a in [(n, 0.0) for n in (5, 12, 33, 64)] + [(33, 0.3), (64, 1 / math.sqrt(2))]:
        r = heisenberg_commutator(n, a)
        # the whole matrix in the shift eigenbasis, and the operator the solver applies
        assert models.heisenberg_closed_form_residual(r) <= 1e-12
        assert r.diagnostics["closed_form_residual"] <= 1e-12


def test_heisenberg_riemann_rate():
    # |pairing - coeff| must at least halve (25 percent slack) when n doubles;
    # on this grid family the decay is in fact quadratic
    for p in (1, 3):
        errs = [
            abs(_pairings(n, 0.0)[p + n - 1] - fourier_coeff(HALF_CIRCLE, p))
            for n in (64, 128, 256)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] <= 0.625 * errs[0]
        assert errs[2] <= 0.625 * errs[1]


def _pairings(n, a, ps=None):
    """_heis_pairing_table on the arc membership of the n sites at threshold a."""
    return _heis_pairing_table(models._arc_membership(range(n), n, a), ps)


def _direct_pairings(n, a, ps):
    """(1/n) * sum over arc grid points m of exp(-2*pi*i*p*m/n) for each p
    in ps, summed term by term in long double."""
    ms = np.flatnonzero([grid_in_arc(k, n, a) for k in range(n)])
    angle = 8 * np.arctan(np.longdouble(1)) * (np.outer(ps, ms) % n).astype(np.longdouble) / n
    re, im = (f(angle).sum(axis=1) / n for f in (np.cos, np.sin))
    return re.astype(float) - 1j * im.astype(float)


@pytest.mark.parametrize("a", [0.0, 0.3, 1 / math.sqrt(2), 0.9])
def test_heisenberg_pairing_sums_match_direct_sum(a):
    for n in list(range(2, 41)) + [97, 320, 1024]:
        got = _pairings(n, a)
        assert got.dtype == float
        assert np.max(np.abs(got - _direct_pairings(n, a, np.arange(-(n - 1), n)))) <= 1e-14, n
        lags = np.array([[-(n - 1), 0], [n - 1, 1]])
        assert np.array_equal(_pairings(n, a, lags), got[lags + n - 1])
    # lags near +-n, where sin(pi q/n) is small and q/n is near 1
    n = 4096
    ps = np.r_[-(n - 1) : -(n - 33), -32:33, n - 32 : n]
    assert np.max(np.abs(_pairings(n, a, ps) - _direct_pairings(n, a, ps))) <= 1e-14


def test_heisenberg_pairing_needs_one_run():
    # two runs, and one run that is not centred on site 0
    for memb in ([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0]):
        with pytest.raises(ComputationError, match="one run"):
            _heis_pairing_table(np.array(memb))


def test_heisenberg_submatrix_converges():
    target = hankel_truncation(HALF_CIRCLE, 4)
    errs = [
        float(np.max(np.abs(heisenberg_submatrix(n, 4) - target)))
        for n in (128, 512, 2048)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= HEIS_SUBMATRIX_TOL_N2048


def test_heisenberg_submatrix_corner_entry():
    vals = [heisenberg_submatrix(n, 1)[0, 0] for n in (64, 256, 1024)]
    errs = [abs(v - 1 / math.pi) for v in vals]
    assert errs[0] > errs[1] > errs[2]


def test_heisenberg_submatrix_nesting():
    small = heisenberg_submatrix(256, 3)
    large = heisenberg_submatrix(256, 4)
    assert np.array_equal(large[:3, :3], small)


def test_heisenberg_shifted():
    plain = heisenberg_commutator(12)
    shifted = heisenberg_commutator(12, 0.0)
    assert np.array_equal(plain.matrix, shifted.matrix)
    # quarter-arc occupancy tends to alpha/pi = 1/4
    n = 2048
    a = 1 / math.sqrt(2)
    count = sum(grid_in_arc(k, n, a) for k in range(n))
    assert abs(count / n - 0.25) <= 2e-3
    assert abs(_pairings(n, a)[n - 1] - 0.25) <= 2e-3


def test_heisenberg_contracts():
    with pytest.raises(ContractError):
        heisenberg_commutator(1)
    with pytest.raises(ContractError):
        heisenberg_submatrix(16, 4)
    with pytest.raises(ContractError):
        heisenberg_commutator(8, 1.0)
    for a in (1.5, -0.5):
        with pytest.raises(ContractError):
            heisenberg_submatrix(64, 2, a)
    with pytest.raises(ContractError):
        heisenberg_submatrix(10, 0)


@pytest.mark.parametrize(
    "n, a", [(64, 1 / math.sqrt(2)), (18, 0.5), (12, math.sqrt(3) / 2), (12, 0.0), (256, 0.3)]
)
def test_heisenberg_projection_is_real_at_rounded_thresholds(n, a):
    # an unreduced cosine test splits a mirror pair at the first three points,
    # which makes P complex (imaginary parts 0.0156, 0.048 and 0.083); P is
    # built real, from the closed-form row
    assert heisenberg_commutator(n, a).matrix.dtype == np.float64


# ---------------------------------------------------------------------------
# SE(2) / line
# ---------------------------------------------------------------------------

def test_se2_one_mode_norm():
    r = se2_commutator(1)
    assert abs(r.norm - 1 / math.pi) <= 1e-15


@pytest.mark.parametrize("window", [8, 64])
def test_se2_block_identity(window):
    r = se2_commutator(window)
    assert r.block_check <= 1e-12
    target = hankel_truncation(HALF_CIRCLE, window + 1)[:window, :]
    assert np.array_equal(r.submatrix, target)


def test_se2_norm_monotone_toward_half():
    norms = [se2_commutator(k).norm for k in (1, 4, 16, 64)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 0.5 + 1e-12


def test_se2_contract():
    with pytest.raises(ContractError):
        se2_commutator(0)


# ---------------------------------------------------------------------------
# extremal vectors
# ---------------------------------------------------------------------------

def test_extremal_vector_achieves_norm():
    for report in (su2_commutator(9), heisenberg_commutator(7), se2_commutator(6)):
        for which in ("max", "min"):
            vec = extremal_vector(report, which)
            assert abs(np.linalg.norm(vec.coefficients) - 1.0) <= 1e-12
            attained = np.linalg.norm(report.matrix @ vec.coefficients)
            assert abs(attained - report.norm) <= 1e-9


def test_extremal_vector_two_dim_equal_moduli():
    vec = extremal_vector(su2_commutator(2), "max")
    assert np.allclose(np.abs(vec.coefficients), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert not vec.degenerate


def test_extremal_vector_max_min_differ():
    report = su2_commutator(11)
    vmax = extremal_vector(report, "max")
    vmin = extremal_vector(report, "min")
    overlap = abs(np.vdot(vmax.coefficients, vmin.coefficients))
    assert overlap <= 1e-8
    assert abs(vmax.value - vmin.value) <= 1e-12


def test_extremal_vector_degenerate_flag():
    vec = extremal_vector(su2_caps_commutator(2, 0.9), "max")  # zero commutator
    assert vec.degenerate
    assert vec.value == 0.0


def test_extremal_vector_contracts():
    with pytest.raises(ContractError):
        extremal_vector(su2_commutator(4), "median")
    with pytest.raises(ContractError):
        extremal_vector(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not skew-adjoint
    with pytest.raises(ContractError):
        extremal_vector(np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# universal bound
# ---------------------------------------------------------------------------

def test_submatrix_sandwich_consistency():
    # the commutator norm dominates every truncation norm it converges onto
    from speclab import truncated_norm

    big = su2_commutator(301).norm
    for size in (2, 4, 8):
        assert big >= truncated_norm(HALF_CIRCLE, size) - 1e-9


def test_every_family_respects_the_half_bound():
    reports = [
        su2_commutator(13),
        su2_commutator(14, 0.25, 0.75),
        su2_caps_commutator(21, 0.4),
        ring_commutator(20, 14),
        heisenberg_commutator(11),
        se2_commutator(9),
        ring_commutator(18, 12, 0.5),
        heisenberg_commutator(13, 0.5),
    ]
    for r in reports:
        assert 0.0 <= r.norm <= 0.5 + 1e-10, r.family


# ---------------------------------------------------------------------------
# gathered blocks against the dense path
# ---------------------------------------------------------------------------

# the families whose norm comes from Lanczos on the block P[in, out] with P
# applied by FFT, checked against a dense solve of the gathered block; the
# SU(2) families never form P and are checked by the property below
FOURIER_FAMILIES = ["heisenberg", "ring", "se2"]
SU2_FAMILIES = ["su2", "su2_caps", "su2_interval"]


def test_family_split_covers_the_table():
    assert sorted(FOURIER_FAMILIES + SU2_FAMILIES) == sorted(models.FAMILIES)


def _fourier_dense(family, n, a):
    """The whole P and the 0/1 membership d of a Fourier family at sweep
    size n, formed densely: the Toeplitz coefficient matrix on the modes
    -n..n, or the DFT-conjugated arc projection of the n-site Heisenberg
    pair."""
    if family == "heisenberg":
        grid = np.arange(n)
        d = np.array([grid_in_arc(k, n, a) for k in grid], dtype=float)
        return (np.fft.fft(d) / n)[-np.subtract.outer(grid, grid) % n], d
    ks = np.arange(-n, n + 1)
    if family == "se2":
        return _coeff_grid(HALF_CIRCLE, np.subtract.outer(ks, ks)), (ks >= 0).astype(float)
    d = np.array([grid_in_arc(k, n, a) for k in ks], dtype=float)
    return _coeff_grid(ArcSymbol(a), np.subtract.outer(ks, ks)), d


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    family=st.sampled_from(FOURIER_FAMILIES),
    n=st.integers(2, 64),
    a=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    b=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
)
def test_projection_pair_matches_dense_path(family, n, a, b):
    report = models.FAMILIES[family].build(n, a, b)
    p, d = _fourier_dense(family, n, a)
    assert report.record.method == "lanczos"
    assert abs(report.norm - np.linalg.norm(report.matrix, 2)) <= 1e-12
    dense = commutator(p, np.diag(d))
    assert np.max(np.abs(report.matrix - dense)) <= 1e-15
    assert report.norm <= 0.5 + 1e-12
    # the matrix-free norm agrees with a dense solve of the dense P's block
    inside = d != 0.0
    block = p[np.ix_(inside, ~inside)]
    assert abs(report.norm - (operator_norm(block) if block.size else 0.0)) <= 1e-12


# Every size, not a sample: a Lanczos start that cannot see an odd top
# singular vector misses the norm at sizes that follow n mod 4.
GATE_SIZES = {"heisenberg": range(2, 401), "ring": range(2, 261), "se2": range(1, 201)}
GATE_A = (0.0, 0.3, 0.3183)
# thresholds at which the unreduced test cos(2*pi*(k mod n)/n) > a disagrees
# across a mirror pair k, -k for some n (n = 8, 16, ... at 1/sqrt(2));
# grid_in_arc decides each pair once, from the reduced index
ROUNDED_A = (0.5, 1 / math.sqrt(2), math.sqrt(3) / 2)


def _mirror(family, d):
    """d on the family's grid reflected by k -> -k (Heisenberg's sites mod n)."""
    return d[-np.arange(len(d)) % len(d)] if family == "heisenberg" else d[::-1]


def _mirror_broken(family, n, a):
    """Whether the unreduced cosine test disagrees across a mirror pair of
    the family's grid at sweep size n."""
    ks = range(n) if family == "heisenberg" else range(-n, n + 1)
    unreduced = np.array([math.cos(2 * math.pi * (k % n) / n) > a for k in ks])
    return not np.array_equal(unreduced, _mirror(family, unreduced))


@pytest.mark.parametrize("a", ROUNDED_A)
def test_arc_membership_is_mirror_symmetric(a):
    for n in range(2, 2049):
        d = models._arc_membership(range(n), n, a)
        assert np.array_equal(d, _mirror("heisenberg", d)), n


@pytest.mark.parametrize(
    "family, a",
    [(f, a) for f in ("heisenberg", "ring") for a in GATE_A + ROUNDED_A] + [("se2", 0.0)],
)
def test_fourier_norms_match_dense_at_every_size(family, a):
    sizes = GATE_SIZES[family]
    if a in ROUNDED_A:
        sizes = [n for n in sizes if _mirror_broken(family, n, a)]
        assert len(sizes) >= 5
    for n in sizes:
        record = models.FAMILIES[family].build(n, a, 1.0).record
        p, d = _fourier_dense(family, n, a)
        if family != "se2":
            assert np.array_equal(d, _mirror(family, d)), n
        inside = d != 0.0
        block = p[np.ix_(inside, ~inside)]
        dense = operator_norm(block) if block.size else 0.0
        assert abs(record.value - dense) <= 1e-12, (n, record, dense)
        assert record.method == "lanczos"
        assert record.lower <= record.value <= record.upper == 0.5


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize(
    "family, n", [("heisenberg", 2047), ("heisenberg", 2048), ("ring", 1023), ("ring", 1024)]
)
def test_fourier_norms_match_dense_at_large_sizes(family, n, a):
    record = models.FAMILIES[family].build(n, a, 1.0).record
    p, d = _fourier_dense(family, n, a)
    inside = d != 0.0
    dense = operator_norm(p[np.ix_(inside, ~inside)])
    assert abs(record.value - dense) <= 1e-12, (n, record, dense)
    assert record.lower <= record.value <= record.upper == 0.5


def test_heisenberg_point_memory_is_linear_in_n():
    # the closed-form check once held an n x |arc| complex table: over 128 MB
    # at n = 4096
    tracemalloc.start()
    try:
        heisenberg_commutator(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 0.6)])
def test_su2_point_memory_reads_the_cached_eigenvectors(a, b):
    # the norm reads V_in as a view of the cached J_x eigenvectors; copying
    # the kept columns and forming their Gram once took 33.6 MB at n = 2048
    _jx_eigensystem(2048)
    tracemalloc.start()
    try:
        su2_commutator(2048, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _jx_eigensystem.cache_clear()  # do not hold the large eigenvectors
    assert peak <= 2e6


def _su2_dense(family, n, a, b):
    """[P_x, D] formed densely from projection_x and the J_z membership."""
    rep = SpinRep(n)
    if family == "su2_caps":
        d = [weight_exceeds(w.twice, a, n) for w in rep.weights]
    else:
        d = [w.twice > 0 and weight_at_most(w.twice, b, n) for w in rep.weights]
    return commutator(projection_x(rep, a), np.diag(np.array(d, dtype=float)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    family=st.sampled_from(SU2_FAMILIES),
    n=st.integers(2, 64),
    a=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    b=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
)
def test_su2_principal_angles_match_dense_path(family, n, a, b):
    report = models.FAMILIES[family].build(n, a, b)
    dense = _su2_dense(family, n, a, b)
    record = report.record
    assert record.method == "lanczos"
    assert record.lower <= record.value <= record.upper == 0.5
    assert abs(report.norm - np.linalg.norm(dense, 2)) <= 1e-12
    assert np.max(np.abs(report.matrix - dense)) <= 1e-15
    assert report.norm <= 0.5 + 1e-12


@pytest.mark.parametrize(
    "family, n, a, b",
    [
        ("su2", 401, 0.0, 1.0),
        ("su2", 1021, 0.0, 1.0),
        ("su2_interval", 401, 0.3, 0.6),
        ("su2_caps", 401, 0.8, 0.8),
        ("su2_caps", 1021, 0.6, 0.6),
    ],
)
def test_su2_principal_angles_match_dense_at_large_n(family, n, a, b):
    report = models.FAMILIES[family].build(n, a, b)
    assert abs(report.norm - operator_norm(_su2_dense(family, n, a, b))) <= 1e-12


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(models.FAMILIES))
def test_family_table_labels_and_thresholds(name):
    family = models.FAMILIES[name]
    n = 10
    base = family.build(n, 0.0, 1.0)
    assert len(family.labels(n)) == base.matrix.shape[0]
    # a threshold counts as read exactly when the report records it
    assert ("a" in family.reads) == (family.build(n, 0.4, 1.0).params.get("a") == 0.4)
    assert ("b" in family.reads) == (family.build(n, 0.0, 0.5).params.get("b") == 0.5)
    for flag in {"a", "b"} - set(family.reads):
        other = family.build(n, 0.4 if flag == "a" else 0.0, 0.5 if flag == "b" else 1.0)
        assert np.array_equal(other.matrix, base.matrix)


# ---------------------------------------------------------------------------
# exact identities under random sizes
# ---------------------------------------------------------------------------

@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(size=st.integers(1, 32), extra=st.integers(1, 200))
def test_ring_identity_is_bitwise_at_random_sizes(size, extra):
    sub = ring_submatrix(4 * size + extra, size)
    target = -hankel_truncation(HALF_CIRCLE, size)
    assert np.array_equal(sub.view(np.int64), target.view(np.int64))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(window=st.integers(1, 64))
def test_se2_block_identity_is_bitwise_at_random_sizes(window):
    r = se2_commutator(window)
    assert r.block_check == 0.0
    target = hankel_truncation(HALF_CIRCLE, window + 1)[:window]
    assert np.array_equal(r.submatrix.view(np.int64), target.view(np.int64))

"""Cross-path and identity suites, runnable as a machine-readable report.

Each suite computes a residual and compares it to a fixed tolerance; the
`validate` CLI subcommand serializes the outcome as JSON.  The sign-flip
injection hook deliberately corrupts one column of the eigenvector-route
d-matrix so that mutation tests can confirm the cross-path suite has teeth.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import numpy.random  # noqa: F401  (loaded at import, not on the first validate call)

from . import hankel, models, specfun, spinrep
from .linalg import commutator, operator_norm

SCHEMA_VERSION = 1


wigner_sum_matrix = spinrep.wigner_d_sum_matrix  # the full d-matrix from the binomial sum


def projection_from_sum(rep: spinrep.SpinRep, a: float) -> np.ndarray:
    """Assemble projection_x from the binomial-sum d-matrix (oracle route)."""
    return _sum_projection(wigner_sum_matrix(rep), rep, a)


def _sum_projection(d: np.ndarray, rep: spinrep.SpinRep, a: float) -> np.ndarray:
    """projection_from_sum from the binomial-sum d-matrix d of rep."""
    ds = d[:, spinrep.weights_exceeding(rep.twice, a, rep.n)]
    return ds @ ds.T


def _suite_operator_norm_symmetries():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (3, 7, 16):
        a = rng.standard_normal((n, n))
        base = operator_norm(a)
        worst = max(worst, abs(operator_norm(a.T) - base) / base)
        worst = max(worst, abs(operator_norm(-a) - base) / base)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        worst = max(worst, abs(operator_norm(q1 @ a @ q2) - base) / base)
    return worst, 1e-10


def _suite_projection_commutator_bound():
    rng = np.random.default_rng(13)
    worst = 0.0
    for n in (4, 9, 17):
        for _ in range(3):
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            k1, k2 = rng.integers(1, n, size=2)
            p = q1[:, :k1] @ q1[:, :k1].T
            q = q2[:, :k2] @ q2[:, :k2].T
            worst = max(worst, operator_norm(commutator(p, q)) - 0.5)
    return worst, 1e-12


def _suite_bessel_series_vs_integral():
    worst = 0.0
    for p in range(6):
        for x in (0.5, 1.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0):
            worst = max(
                worst,
                abs(specfun.bessel_j_series(p, x) - specfun.bessel_j_integral(p, x)),
            )
    return worst, 1e-9


def _suite_bessel_decay():
    worst = 0.0
    for p in range(6):
        for x in np.linspace(10.0, 50.0, 41):
            worst = max(worst, abs(specfun.bessel_j(p, float(x))) * math.sqrt(x))
    return worst, 1.0  # sqrt(x)-scaled amplitude stays O(1)


def _suite_hilbert_quadrature():
    worst = 0.0
    for p in range(-15, 16):
        if p == 0 or p % 2 == 0:
            continue
        quad = specfun.gauss_legendre_quad(
            lambda t, p=p: math.sin(-p * t) / math.pi, 0.0, math.pi, nodes=64
        )
        worst = max(worst, abs(specfun.hilbert_bessel_at_zero(p) - quad))
    return worst, 1e-8


def _suite_cap_consistency():
    worst = 0.0
    for p in range(1, 16, 2):
        ratio = specfun.hilbert_bessel_at_zero(p) / specfun.cap_integral(0.0, p)
        worst = max(worst, abs(ratio + 2.0 / math.pi))
    return worst, 1e-14


def _suite_wigner_cross_path(sums: dict, inject_sign_flip: bool = False):
    worst = 0.0
    for n, d_sum in sums.items():
        d_eig = spinrep.wigner_d_pi_half(spinrep.SpinRep(n))
        if inject_sign_flip:
            d_eig = d_eig.copy()
            d_eig[:, min(1, n - 1)] *= -1.0
        worst = max(worst, float(np.max(np.abs(d_eig - d_sum))))
    return worst, 1e-8


def _suite_wigner_matrix_invariants():
    worst = 0.0
    for n in (2, 3, 12, 31, 101, 103):
        rep = spinrep.SpinRep(n)
        d = spinrep.wigner_d_pi_half(rep)
        worst = max(worst, float(np.max(np.abs(d.T @ d - np.eye(n)))))
        signs = (-1.0) ** ((rep.j.twice - rep.twice) // 2)  # (-1)^(j - m)
        # d_{-m',-m}(theta) = (-1)^{m'-m} d_{m',m}(theta)
        parity = signs[:, None] * signs[None, :] * d
        worst = max(worst, float(np.max(np.abs(d[::-1, ::-1] - parity))))
        # d_{m',m}(theta + pi) = (-1)^{j-m} d_{m',-m}(theta) at theta = pi/2
        d32 = spinrep.wigner_d_matrix(rep, 3 * math.pi / 2)
        worst = max(worst, float(np.max(np.abs(d32 - signs[None, :] * d[:, ::-1]))))
    return worst, 1e-10


def _suite_projection_properties():
    worst = 0.0
    for n in (2, 3, 10, 31, 64):
        rep = spinrep.SpinRep(n)
        for a in (0.0, 0.3, 0.7):
            p = spinrep.projection_x(rep, a)
            worst = max(worst, float(np.max(np.abs(p - p.T))))
            worst = max(worst, float(np.max(np.abs(p @ p - p))))
            expected = sum(1 for t in rep.twice if spinrep.weight_exceeds(t, a, n))
            worst = max(worst, abs(float(np.trace(p)) - expected))
    return worst, 1e-9


def _suite_projection_cross_path(sums: dict):
    worst = 0.0
    for n, d in sums.items():
        rep = spinrep.SpinRep(n)
        for a in (0.0, 0.3, 0.7):
            diff = spinrep.projection_x(rep, a) - _sum_projection(d, rep, a)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 1e-8


def _suite_hilbert_formula():
    worst = 0.0
    for n in range(2, 32):
        worst = max(worst, spinrep.verify_hilbert_formula(spinrep.SpinRep(n)))
    return worst, 1e-9


def _suite_hankel_truncations():
    worst = 0.0
    prev = 0.0
    for n in (1, 2, 3, 4, 8, 16, 32, 64, 128):
        v = hankel.truncated_norm(hankel.HALF_CIRCLE, n)
        worst = max(worst, prev - v)          # monotone
        worst = max(worst, v - (0.5 + 1e-12))  # bounded by the certificate
        prev = v
    h = hankel.hankel_truncation(hankel.HALF_CIRCLE, 32)
    k = np.arange(1, 33)
    even_antidiag = (np.add.outer(k, k) - 1) % 2 == 0
    worst = max(worst, float(np.max(np.abs(h[even_antidiag]))))  # exact zeros
    return worst, 0.0


def _suite_hankel_odd_block():
    worst = 0.0
    for a in (0.0, 0.3):  # matrix-free norm vs the dense truncation's
        sym = hankel.ArcSymbol(a)
        for n in (1, 2, 3, 4, 8, 16, 32, 64, 128):
            dense = operator_norm(hankel.hankel_truncation(sym, n))
            record = hankel.truncated_norm_record(sym, n)
            worst = max(worst, abs(record.value - dense))
            if a == 0.0:  # the Collatz-Wielandt bracket holds the dense norm
                worst = max(worst, record.lower - dense, dense - record.upper)
    return worst, 1e-14


def _suite_certificates():
    worst = abs(hankel.nehari_bound(hankel.HALF_CIRCLE) - 0.5)
    worst = max(worst, abs(hankel.power_essential_radius(hankel.HALF_CIRCLE) - 0.5))
    for a in (0.3, 1 / math.sqrt(2), 0.9):
        sym = hankel.ArcSymbol(a)
        worst = max(worst, hankel.power_essential_radius(sym) - hankel.nehari_bound(sym))
    return worst, 0.0


def _suite_universal_bound():
    reports = [
        models.su2_commutator(9),
        models.su2_commutator(12, 0.3, 0.6),
        models.su2_caps_commutator(17, 0.5),
        models.ring_commutator(24, 16),
        models.heisenberg_commutator(14),
        models.se2_commutator(12),
    ]
    worst = max(r.norm - (0.5 + 1e-10) for r in reports)
    return max(worst, 0.0), 0.0


def _suite_su2_block_structure():
    worst = max(models.su2_commutator(n).block_check for n in (2, 5, 8, 31))
    return worst, 0.0


def _suite_su2_angles_match_dense():
    worst = 0.0
    for n in range(2, 32):  # the Lanczos norm vs the dense solve of the matrix
        for a in (0.0, 0.3, 0.7):
            for b in (0.5, 1.0):
                r = models.su2_commutator(n, a, b)
                worst = max(worst, abs(r.norm - operator_norm(r.matrix)))
    return worst, 1e-12


def _suite_ring_exact_identity():
    worst = 0.0
    for n, size in ((64, 15), (101, 25)):
        sub = models.ring_submatrix(n, size)
        target = hankel.hankel_truncation(hankel.HALF_CIRCLE, size)
        if not np.array_equal(-sub, target):
            worst = max(worst, float(np.max(np.abs(-sub - target))), np.inf)
    return worst, 0.0


def _suite_heisenberg_closed_form():
    worst = 0.0
    for n in (2, 5, 12, 33):
        r = models.heisenberg_commutator(n)
        # the whole matrix in the shift eigenbasis, and the operator the solver applies
        worst = max(worst, models.heisenberg_closed_form_residual(r),
                    r.diagnostics["closed_form_residual"])
    return worst, 1e-12


def _suite_se2_block_identity():
    worst = 0.0
    for window in (8, 64):
        r = models.se2_commutator(window)
        worst = max(worst, r.block_check)
        target = hankel.hankel_truncation(hankel.HALF_CIRCLE, window + 1)[:window, :]
        if not np.array_equal(r.submatrix, target):
            worst = max(worst, np.inf)
    return worst, 1e-12


def run_validation(inject_sign_flip: bool = False) -> tuple[dict, list[int]]:
    """Run every suite; returns a JSON-ready report and each suite's wall
    time in whole milliseconds, in report order.

    Timings never enter the report, so the report of a rerun is
    byte-identical.  The binomial-sum d^j(pi/2) matrices (n = 2..31), the
    oracle of both cross-path suites, are built once per call, by the first
    suite that reads them.
    """
    sums = functools.cache(
        lambda: {n: wigner_sum_matrix(spinrep.SpinRep(n)) for n in range(2, 32)}
    )
    suites = [
        ("linalg.operator_norm_symmetries", _suite_operator_norm_symmetries),
        ("linalg.projection_commutator_bound", _suite_projection_commutator_bound),
        ("specfun.bessel_series_vs_integral", _suite_bessel_series_vs_integral),
        ("specfun.bessel_decay", _suite_bessel_decay),
        ("specfun.hilbert_quadrature", _suite_hilbert_quadrature),
        ("specfun.cap_consistency", _suite_cap_consistency),
        ("spinrep.wigner_cross_path", lambda: _suite_wigner_cross_path(sums(), inject_sign_flip)),
        ("spinrep.wigner_matrix_invariants", _suite_wigner_matrix_invariants),
        ("spinrep.projection_properties", _suite_projection_properties),
        ("spinrep.projection_cross_path", lambda: _suite_projection_cross_path(sums())),
        ("spinrep.hilbert_formula", _suite_hilbert_formula),
        ("hankel.truncation_monotone_bounded", _suite_hankel_truncations),
        ("hankel.odd_block_matches_dense", _suite_hankel_odd_block),
        ("hankel.certificates", _suite_certificates),
        ("models.universal_bound", _suite_universal_bound),
        ("models.su2_block_structure", _suite_su2_block_structure),
        ("models.su2_angles_match_dense", _suite_su2_angles_match_dense),
        ("models.ring_exact_identity", _suite_ring_exact_identity),
        ("models.heisenberg_closed_form", _suite_heisenberg_closed_form),
        ("models.se2_block_identity", _suite_se2_block_identity),
    ]
    results, wall_ms = [], []
    for name, fn in suites:
        t0 = time.perf_counter()
        try:
            residual, tolerance = fn()
            status = "pass" if residual <= tolerance else "fail"
            results.append(
                {
                    "name": name,
                    "status": status,
                    "residual": float(residual),
                    "tolerance": float(tolerance),
                }
            )
        except Exception as exc:  # a crashed suite is a failed suite
            results.append(
                {
                    "name": name,
                    "status": "fail",
                    "residual": float("inf"),
                    "tolerance": 0.0,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        wall_ms.append(int(round(1000 * (time.perf_counter() - t0))))
    report = {
        "schema_version": SCHEMA_VERSION,
        "all_pass": all(r["status"] == "pass" for r in results),
        "suites": results,
    }
    return report, wall_ms

"""The array-call suites of `validate` against the per-entry loops they
replaced, and a guard on how many kernel calls one `validate` run makes."""

import math
from collections import Counter

import numpy as np

from speclab import models, specfun, validate
from speclab.linalg import commutator, operator_norm


def _operator_norm_symmetries_per_matrix():
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


def _projection_commutator_bound_per_matrix():
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


def _bessel_series_vs_integral_per_entry():
    worst = 0.0
    for p in range(6):
        for x in (0.5, 1.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0):
            worst = max(
                worst,
                abs(specfun.bessel_j_series(p, x) - specfun.bessel_j_integral(p, x)),
            )
    return worst, 1e-9


def _bessel_decay_per_entry():
    worst = 0.0
    for p in range(6):
        for x in np.linspace(10.0, 50.0, 41):
            worst = max(worst, abs(specfun.bessel_j(p, float(x))) * math.sqrt(x))
    return worst, 1.0


def _su2_angles_match_dense_per_matrix():
    worst = 0.0
    for n in range(2, 32):
        for a in (0.0, 0.3, 0.7):
            for b in (0.5, 1.0):
                r = models.su2_commutator(n, a, b)
                worst = max(worst, abs(r.norm - operator_norm(r.matrix)))
    return worst, 1e-12


def test_array_call_suites_are_the_per_entry_loops_bit_for_bit():
    pairs = [
        (validate._suite_operator_norm_symmetries, _operator_norm_symmetries_per_matrix),
        (validate._suite_projection_commutator_bound, _projection_commutator_bound_per_matrix),
        (validate._suite_bessel_series_vs_integral, _bessel_series_vs_integral_per_entry),
        (validate._suite_bessel_decay, _bessel_decay_per_entry),
        (validate._suite_su2_angles_match_dense, _su2_angles_match_dense_per_matrix),
    ]
    for suite, loop in pairs:
        (got, got_tol), (want, want_tol) = suite(), loop()
        assert type(got) is float and got_tol == want_tol, suite.__name__
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), suite.__name__


def test_validate_makes_array_calls_not_per_entry_calls(monkeypatch):
    # a return to one call per entry or per matrix fails here: counts of the
    # calls into the Bessel kernel and into operator_norm, per suite, in one
    # validate run
    calls, suite = Counter(), [None]

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[suite[0], name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(validate, "operator_norm", spy("operator_norm", operator_norm))
    for name in ("bessel_j", "bessel_j_series", "bessel_j_integral", "_series", "_integral"):
        monkeypatch.setattr(specfun, name, spy(name, getattr(specfun, name)))
    for attr in [a for a in vars(validate) if a.startswith("_suite_")]:
        fn = getattr(validate, attr)

        def entered(*args, _fn=fn, _name=attr[len("_suite_"):], **kwargs):
            suite[0] = _name
            return _fn(*args, **kwargs)

        monkeypatch.setattr(validate, attr, entered)
    report, _ = validate.run_validation()
    assert report["all_pass"]
    bessel = {
        "bessel_series_vs_integral": {"bessel_j_series": 1, "bessel_j_integral": 1,
                                      "_series": 1, "_integral": 1},
        "bessel_decay": {"bessel_j": 1, "_series": 1, "_integral": 1},
    }
    for name, want in bessel.items():
        assert {k: c for (s, k), c in calls.items() if s == name} == want, name
    assert not [k for k in calls if k[0] not in bessel and k[1] != "operator_norm"]
    norms = {s: c for (s, k), c in calls.items() if k == "operator_norm"}
    assert norms["su2_angles_match_dense"] <= 30  # 180 matrices, one stack per n
    assert norms["operator_norm_symmetries"] <= 3  # 12 matrices, one stack per n
    assert norms["projection_commutator_bound"] <= 3  # 9 matrices, one stack per n

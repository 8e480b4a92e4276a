"""Gate self-test: corrupted outputs must count as failed points.

    python3 perfbench/selftest.py

Feeds the gate and the dense oracle a clean `norms` CSV, a clean `hankel`
CSV and a clean `validate` report (each must pass), then one corruption of
each kind: a perturbed norm, a norm above 1/2, a non-monotone `hankel` row,
a failing `validate` report and a `validate` exit code of 3.  No speclab
code runs; the clean rows were computed by the oracle itself.  run.py runs
this before every measurement.
"""

from __future__ import annotations

import json
import sys

import gate
import oracle


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _norms_csv(rows) -> str:
    lines = [gate.NORMS_HEADER] + [
        f"{fam},{n},{_fmt(a)},{_fmt(b)},{_fmt(v)},{n % 4},0" for fam, n, a, b, v in rows]
    return "\n".join(lines) + "\n"


def _hankel_csv(a: float, sizes, values) -> str:
    lines = [gate.HANKEL_HEADER] + [
        f"{_fmt(a)},{n},{_fmt(v)},0.5,0.5" for n, v in zip(sizes, values)]
    return "\n".join(lines) + "\n"


def _failed(kind: str, text: str, code=0, expected: int = 0) -> int:
    """Failed points reported by the gate, then by the oracle on every row."""
    _, problems = gate.check_output(kind, text, code, expected)
    if problems or kind == "validate":
        return len(problems)
    return len(oracle.check_all(kind, text))


def run() -> list[str]:
    """Returns a description of each case the gate got wrong (empty if none)."""
    norms = [(fam, n, a, b, oracle.row_value("norms", [fam, str(n), str(a), str(b)]))
             for fam, n, a, b in (("su2", 9, 0.0, 1.0), ("su2_caps", 12, 0.75, 0.75),
                                  ("ring", 10, 0.3, 0.0), ("heisenberg", 14, 0.0, 0.0),
                                  ("se2", 6, 0.0, 0.0))]
    sizes = [2, 4, 8, 16]
    hank = [oracle.hankel_norm(0.3, n) for n in sizes]
    suites = [{"name": f"s{i}", "status": "pass", "residual": 0.0, "tolerance": 0.0}
              for i in range(3)]
    report = {"schema_version": 1, "all_pass": True, "suites": suites}
    failing = json.loads(json.dumps(report))
    failing["all_pass"] = False
    failing["suites"][1]["status"] = "fail"

    def perturbed(i: int, value: float):
        rows = list(norms)
        rows[i] = rows[i][:4] + (value,)
        return _norms_csv(rows)

    cases = [
        ("clean norms", 0, _failed("norms", _norms_csv(norms), expected=len(norms))),
        ("clean hankel", 0, _failed("hankel", _hankel_csv(0.3, sizes, hank), expected=4)),
        ("clean validate", 0, _failed("validate", json.dumps(report))),
        ("perturbed norm", 1, _failed("norms", perturbed(3, norms[3][4] + 1e-8), expected=5)),
        ("norm above 1/2", 1, _failed("norms", perturbed(0, 0.5 + 1e-6), expected=5)),
        ("non-monotone hankel", 1, _failed(
            "hankel", _hankel_csv(0.3, sizes, hank[:2] + [hank[1] - 1e-6] + hank[3:]), expected=4)),
        ("failing validate", 1, _failed("validate", json.dumps(failing), code=3)),
        ("validate exit 3", 1, _failed("validate", json.dumps(report), code=3)),
        ("norms call exit 1", 5, _failed("norms", None, code=1, expected=5)),
    ]
    return [f"{name}: {got} failed points, expected {want}"
            for name, want, got in cases if got != want]


if __name__ == "__main__":
    faults = run()
    for fault in faults:
        print(f"FAIL {fault}")
    print("gate self-test: " + ("FAIL" if faults else "all corrupted cases counted as failed"))
    sys.exit(1 if faults else 0)

"""Correctness gate for the outputs of one sweep.

Every check returns the number of points it looked at and the list of
problems found, one per failed point.  A point is one CSV row or one
`validate` suite; a call that exits non-zero or raises fails all of its
points.  The gate only reads output text, so it can be fed corrupted files
(see selftest.py) without running the program.
"""

from __future__ import annotations

import json
import math

NORMS_HEADER = "family,n,a,b,norm,n_mod_4,wall_ms"
HANKEL_HEADER = "a,N,truncated_norm,nehari_upper,power_lower"
HALF_CAP = 0.5 + 1e-9    # a commutator of two projections has norm <= 1/2
MONOTONE_SLACK = 1e-12   # roundoff allowed when a truncation row repeats the last


def _rows(text: str, header: str, width: int):
    lines = text.split("\n")
    if not lines or lines[0] != header or lines[-1] != "":
        return None
    rows = [line.split(",") for line in lines[1:-1]]
    return rows if all(len(r) == width for r in rows) else None


def _norm_ok(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= HALF_CAP


def check_norms(text: str, expected: int) -> tuple[int, list[str]]:
    """Rows of a `norms` CSV: finite, 0 <= norm <= 1/2, n_mod_4 consistent."""
    rows = _rows(text, NORMS_HEADER, 7)
    if rows is None:
        return expected, [f"norms: malformed CSV ({expected} points lost)"] * expected
    problems = []
    for family, n, _a, _b, norm, mod4, _wall in rows:
        if not _norm_ok(float(norm)) or int(mod4) != int(n) % 4:
            problems.append(f"norms: {family} n={n} norm={norm} out of range")
    problems += ["norms: row missing"] * max(0, expected - len(rows))
    return max(expected, len(rows)), problems


def check_hankel(text: str, expected: int) -> tuple[int, list[str]]:
    """Rows of a `hankel` CSV: bounded by 1/2 and by the Nehari certificate,
    and nondecreasing in N for each threshold a."""
    rows = _rows(text, HANKEL_HEADER, 5)
    if rows is None:
        return expected, [f"hankel: malformed CSV ({expected} points lost)"] * expected
    problems = []
    last: dict[str, tuple[int, float]] = {}
    for a, size, norm, upper, _lower in rows:
        value, n = float(norm), int(size)
        prev = last.get(a)
        if not _norm_ok(value) or value > float(upper):
            problems.append(f"hankel: a={a} N={size} norm={norm} above its bound")
        elif prev is not None and (n <= prev[0] or value < prev[1] - MONOTONE_SLACK):
            problems.append(f"hankel: a={a} N={size} norm={norm} decreases in N")
        last[a] = (n, value)
    problems += ["hankel: row missing"] * max(0, expected - len(rows))
    return max(expected, len(rows)), problems


def check_validate(text: str, exit_code) -> tuple[int, list[str]]:
    """A `validate` report: exit code 0, all_pass, and every suite passing."""
    try:
        report = json.loads(text)
        suites = report["suites"]
    except (ValueError, KeyError, TypeError):
        return 1, [f"validate: unreadable report (exit {exit_code})"]
    problems = [f"validate: suite {s.get('name')} {s.get('status')}"
                for s in suites if s.get("status") != "pass"]
    if (exit_code != 0 or report.get("all_pass") is not True) and not problems:
        problems.append(f"validate: exit {exit_code}, all_pass={report.get('all_pass')}")
    return max(len(suites), 1), problems


def check_output(kind: str, text: str | None, exit_code, expected: int) -> tuple[int, list[str]]:
    """Gate one CLI call's output; a failed call loses every point it owed."""
    if kind == "validate" and text is not None:
        return check_validate(text, exit_code)
    if exit_code != 0 or text is None:
        return expected, [f"{kind}: call failed with exit {exit_code}"] * expected
    if kind == "norms":
        return check_norms(text, expected)
    return check_hankel(text, expected)

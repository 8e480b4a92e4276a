"""Independent dense oracle for sampled sweep points.

Rebuilds each commutator from its definition with plain numpy (dense `eigh`
for J_x, an inverse FFT for the Heisenberg shift projection, `svd` or
`eigvalsh` for the norm) and shares no code with speclab.  It runs outside
the timed region, on a seeded sample of rows chosen by the runner.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

TOLERANCE = 1e-10


def _top_singular(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0])


@lru_cache(maxsize=8)
def _jx_eigh(n: int):
    # J_x in the descending J_z basis m = j, ..., -j; twice_m = n - 1 - 2i
    j = (n - 1) / 2.0
    m = j - np.arange(n)
    off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * m[1:])
    jx = np.diag(off, 1) + np.diag(off, -1)
    w, v = np.linalg.eigh(jx)
    return np.rint(2.0 * w).astype(np.int64), v


def _above(twice: int, thr: float, n: int) -> bool:
    # m > thr * (j + 1/2) in exact arithmetic on the float's binary value
    return Fraction(int(twice)) > Fraction(thr) * n


def su2_norm(family: str, n: int, a: float, b: float) -> float:
    tw, v = _jx_eigh(n)
    keep = [i for i, t in enumerate(tw) if _above(t, a, n)]
    p = v[:, keep] @ v[:, keep].T
    twice_m = n - 1 - 2 * np.arange(n)
    if family == "su2_caps":
        q = np.array([1.0 if _above(t, a, n) else 0.0 for t in twice_m])
    else:
        q = np.array([1.0 if 0 < t and Fraction(int(t)) <= Fraction(b) * n else 0.0
                      for t in twice_m])
    return _top_singular(p * q[None, :] - q[:, None] * p)


def _in_arc(k: np.ndarray, n: int, a: float) -> np.ndarray:
    if a == 0.0:
        r = (4 * k) % (4 * n)
        return ((r < n) | (r > 3 * n)).astype(float)
    return np.array([1.0 if math.cos(2 * math.pi * (int(x) % n) / n) > a else 0.0 for x in k])


def arc_coeff(a: float, p: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the indicator of the arc Re z > a."""
    p = np.asarray(p, dtype=np.int64)
    if a == 0.0:
        sign = np.where(p % 4 == 1, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(p % 2 == 0, 0.0, sign / (math.pi * p))
        return np.where(p == 0, 0.5, vals)
    alpha = math.acos(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin(p * alpha) / (math.pi * p)
    return np.where(p == 0, alpha / math.pi, vals)


def ring_norm(n: int, a: float) -> float:
    ks = np.arange(-n, n + 1, dtype=np.int64)
    memb = _in_arc(ks, n, a)
    t = arc_coeff(a, np.subtract.outer(ks, ks))
    return _top_singular((memb[None, :] - memb[:, None]) * t)


def heisenberg_norm(n: int, a: float) -> float:
    grid = np.arange(n, dtype=np.int64)
    memb = _in_arc(grid, n, a)
    # shift-side projection: circulant with entries (1/n) sum_m memb_m e^{2 pi i m d / n}
    g = np.fft.ifft(memb)
    p1 = g[np.subtract.outer(grid, grid) % n]
    return _top_singular(p1 * (memb[None, :] - memb[:, None]))


def se2_norm(window: int) -> float:
    ks = np.arange(-window, window + 1, dtype=np.int64)
    t = arc_coeff(0.0, np.subtract.outer(ks, ks))
    hardy = (ks >= 0).astype(float)
    return _top_singular(t * hardy[None, :] - hardy[:, None] * t)


def hankel_norm(a: float, size: int) -> float:
    k = np.arange(1, size + 1, dtype=np.int64)
    w = np.linalg.eigvalsh(arc_coeff(a, 1 - np.add.outer(k, k)))
    return float(max(abs(w[0]), abs(w[-1])))


def row_value(kind: str, row: list[str]) -> float:
    """Oracle norm for one row of a `norms` or `hankel` CSV."""
    if kind == "hankel":
        return hankel_norm(float(row[0]), int(row[1]))
    family, n, a, b = row[0], int(row[1]), float(row[2]), float(row[3])
    if family in ("su2", "su2_interval", "su2_caps"):
        return su2_norm(family, n, a, b)
    if family == "ring":
        return ring_norm(n, a)
    if family == "heisenberg":
        return heisenberg_norm(n, a)
    if family == "se2":
        return se2_norm(n)
    raise ValueError(f"no oracle for family {family!r}")


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.split("\n")[1:-1]]


def _compare(kind: str, rows: list[list[str]]) -> list[str]:
    col = 4 if kind == "norms" else 2
    problems = []
    for row in rows:
        want = row_value(kind, row)
        if not abs(float(row[col]) - want) <= TOLERANCE:
            problems.append(f"oracle: {kind} row {','.join(row)} disagrees with dense {want!r}")
    return problems


def check_top(kind: str, text: str) -> list[str]:
    """Check every row at the largest n (or N) of a CSV the gate accepted."""
    rows = _rows(text)
    top = max((int(r[1]) for r in rows), default=None)
    return _compare(kind, [r for r in rows if int(r[1]) == top])


def check_random_row(kind: str, text: str, rng: random.Random) -> list[str]:
    """Check one seeded row of a CSV the gate accepted."""
    rows = _rows(text)
    return _compare(kind, [rng.choice(rows)] if rows else [])


def check_all(kind: str, text: str) -> list[str]:
    """Check every row of a CSV the gate accepted."""
    return _compare(kind, _rows(text))

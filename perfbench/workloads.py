"""Workload definitions: each workload turns a seed into the list of CLI calls
that make up one sweep.

A sweep is what a user waits for: a handful of `speclab` invocations whose
outputs together answer one question.  The seed and the sweep's index within
the run shift the n/N grid by a small offset and pick the thresholds; the
program itself only ever sees argv.  Whether `operator_norm`'s power
iteration converges early (cheap) or falls back to a dense solve (dear)
changes with n and the threshold, so one grid's cost is a random draw; a
timing run therefore gives each sweep its own grid and reports the median.
"""

from __future__ import annotations

import random

WORKLOADS = ("spin_sweep", "fourier_sweep", "hankel_table", "validate")

# The offset stays below 8 so that the top of each grid, where the O(n^3)
# dense solves dominate the cost, moves by at most a few percent.  Each
# family's n values are a block of consecutive integers: the cost of
# operator_norm depends on n mod 8 (heisenberg_commutator at n = 4 mod 8
# takes 3-5 times as long as its neighbours), and a block of 4 or 8 holds
# the slow residues at the same share whatever the offset.
MAX_OFFSET = 8


def _thr(rng: random.Random, lo: float, hi: float) -> float:
    # three decimals keep the CSV columns short and exactly reproducible
    return round(rng.uniform(lo, hi), 3)


def _norms(family: str, start: int, count: int, a=None, b=None) -> dict:
    """`norms` on the consecutive n = start .. start + count - 1."""
    argv = ["norms", "--family", family, "--n-start", str(start),
            "--n-stop", str(start + count - 1), "--n-step", "1", "--jobs", "1"]
    points = count
    if a is not None:
        argv += ["--a", ",".join(repr(x) for x in a)]
        points *= len(a)
    if b is not None:
        argv += ["--b", ",".join(repr(x) for x in b)]
        points *= len(b)
    return {"kind": "norms", "argv": argv, "points": points}


def _hankel(sizes, a: float) -> dict:
    argv = ["hankel", "--N", ",".join(str(n) for n in sizes), "--a", repr(a)]
    return {"kind": "hankel", "argv": argv, "points": len(sizes)}


def calls_for(workload: str, seed: int, sweep: int = 0) -> list[dict]:
    """CLI calls of one sweep, without the --out argument.

    Each call carries its kind (norms, hankel, validate) and the number of
    points (CSV rows or validate suites) it must produce.
    """
    rng = random.Random(f"{workload}:{seed}:{sweep}")
    off = rng.randrange(MAX_OFFSET)
    if workload == "spin_sweep":
        # su2_caps changes character at a = 1/sqrt(2): two thresholds each side
        caps = [_thr(rng, 0.55, 0.66), _thr(rng, 0.55, 0.66),
                _thr(rng, 0.75, 0.85), _thr(rng, 0.75, 0.85)]
        a_int = [_thr(rng, 0.2, 0.4), _thr(rng, 0.2, 0.4)]
        b_int = [_thr(rng, 0.5, 0.8)]
        return [
            _norms("su2", 1020 + off, 4, a=[0.0]),
            _norms("su2_interval", 400 + off, 4, a=a_int, b=b_int),
            _norms("su2_caps", 400 + off, 4, a=caps),
        ]
    if workload == "fourier_sweep":
        a = [_thr(rng, 0.2, 0.4), _thr(rng, 0.2, 0.4)]
        return [
            _norms("ring", 200 + off, 8, a=[0.0]),
            # a != 0 takes the per-entry coefficient path, so its grid is smaller
            _norms("ring", 100 + off, 4, a=a),
            _norms("heisenberg", 320 + off, 8, a=[0.0]),
            _norms("heisenberg", 200 + off, 4, a=a),
            _norms("se2", 320 + off, 4),
        ]
    if workload == "hankel_table":
        a = _thr(rng, 0.25, 0.35)
        return [
            _hankel([n + off for n in (64, 256, 512, 1024, 2048)], 0.0),
            _hankel([n + off for n in (64, 128, 256, 512, 1024)], a),
        ]
    if workload == "validate":
        # validate takes no input, so the seed changes nothing here; two calls
        # per sweep show a fixed per-call cost next to the cold first call
        return [{"kind": "validate", "argv": ["validate"], "points": 19}] * 2
    raise ValueError(f"unknown workload {workload!r}")

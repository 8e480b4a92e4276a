"""speclab benchmark: time the CLI end to end and per layer on one workload.

    python3 perfbench/run.py --workload spin_sweep --seed 1 --seconds 28 --trace 0

Run from the repository root (or any checkout holding `src/speclab` next to
`perfbench/`).  One client, closed loop: sweeps run one after another, each in
a fresh interpreter (`sweep.py`) with `--jobs 1` and one BLAS thread, until
`--seconds` is spent (at least MIN_SWEEPS per phase).  With --trace 0 sweep k
runs grid k of the seed (see workloads.py); with --trace 1 every sweep runs
grid 0.

--trace 0 prints the end-to-end metrics (medians over the sweeps):
  wall_ref_s   the CLI calls of a sweep, each to its gated output
  setup_s      interpreter start until `speclab.cli` is imported
  peak_rss_mb  peak resident memory of the sweep process
Both times are rescaled to a reference machine speed with the probe in
speed.py, because the speed a process gets on a shared host drifts by a
fifth or more; the unscaled medians are printed as comments.
--trace 1 spends half the time on untraced sweeps and half on traced ones
and prints the per-layer metrics of the traced sweeps (see README.md),
including trace.overhead_frac, the traced over the untraced median
wall_ref_s minus one.

Every run also checks correctness: the gate self-test, the per-row gate in
each sweep, byte-identical outputs across sweeps of the same grid (traced or
not), and a dense oracle on a seeded sample of rows (outside the timed
region).  `failed` counts points (CSV rows or validate suites) that failed
any of these.  The last stdout line is the JSON result; details, the machine
description and every sample go to .perfbench_out/<workload>-trace<t>/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import selftest
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SWEEPS = 3
SWEEP_TIMEOUT_S = 60  # a sweep takes seconds; this bounds a hung one

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "elems": "count", "hits": "count", "misses": "count",
               "busy_s": "s", "self_s": "s", "overhead_frac": "ratio"}


# One BLAS thread: a multi-threaded BLAS waits at every barrier for its
# slowest thread, so one busy core stalls every dense solve.  On a 2-core
# machine with one other busy process, 2 threads turned 0.3 s solves into
# 20 s ones.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # setup_s is measured with speclab's bytecode cached, as after an install;
    # the warm-up import writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def sweep(spec: dict, out_dir: Path, traced: bool, env: dict) -> dict:
    """Run one sweep process on `spec` (its grid and calls); returns its report."""
    out_dir.mkdir(parents=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), str(spec_path), str(out_dir),
         repr(time.perf_counter()), "1" if traced else "0"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=SWEEP_TIMEOUT_S)
    result_path = out_dir / "sweep.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"sweep process in {out_dir} exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result.update(dir=out_dir, grid=spec["grid"], calls=spec["calls"], traced=traced)
    return result


def run_phase(args, out_root, traced, env, until, results):
    """Closed loop: start the next sweep only if it should end before `until`.

    Sweep k of the phase runs grid k, or grid 0 for every sweep with --trace 1,
    so that traced and untraced outputs must match byte for byte and the
    counts repeat exactly.
    """
    first = len(results)
    while True:
        done = results[first:]
        if len(done) >= MIN_SWEEPS:
            typical = statistics.median(r["elapsed"] for r in done)
            if time.perf_counter() + typical > until:
                return
        grid = 0 if args.trace else len(done)
        spec = {"src": str(SRC), "run_id": f"{args.run_id}/sweep-{len(results):02d}",
                "grid": grid, "calls": workloads.calls_for(args.workload, args.seed, grid)}
        t = time.perf_counter()
        r = sweep(spec, out_root / f"sweep-{len(results):02d}", traced, env)
        r["elapsed"] = time.perf_counter() - t
        results.append(r)


def _differing_rows(a: Path, b: Path) -> int:
    rows_a = a.read_text().split("\n") if a.is_file() else []
    rows_b = b.read_text().split("\n") if b.is_file() else []
    return max(1, sum(x != y for x, y in zip(rows_a, rows_b)) + abs(len(rows_a) - len(rows_b)))


def cross_checks(results: list[dict], rng: random.Random) -> list[str]:
    """Byte-identical outputs among sweeps of one grid (traced or not), then
    the dense oracle: every row at the largest size in the first sweep's
    files and one seeded row from each distinct grid."""
    problems = []
    first_of: dict[int, dict] = {}
    for r in results:
        ref = first_of.setdefault(r["grid"], r)
        for name in ref["files"] if ref is not r else ():
            a, b = ref["dir"] / name, r["dir"] / name
            if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
                problems += [f"determinism: {r['dir'].name}/{name} differs"] * _differing_rows(a, b)
    if any(r["problems"] for r in results):
        return problems  # the oracle needs outputs the gate accepted
    for k, r in enumerate(first_of.values()):
        files = [(c["kind"], (r["dir"] / name).read_text())
                 for name, c in zip(r["files"], r["calls"]) if c["kind"] != "validate"]
        if not files:
            continue
        if k == 0:
            for kind, text in files:
                problems += oracle.check_top(kind, text)
        kind, text = files[rng.randrange(len(files))]
        problems += oracle.check_random_row(kind, text, rng)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "speclab" / "cli.py").is_file():
        print(f"no speclab sources under {SRC}", file=sys.stderr)
        return 2
    gate_faults = selftest.run()
    if gate_faults:
        print("gate self-test failed: " + "; ".join(gate_faults), file=sys.stderr)
        return 3

    out_root = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    args.run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    env = child_env()

    # compile bytecode and fill the file cache so the first sweep's set-up
    # time is like every later one
    warm = subprocess.run([sys.executable, "-c", "import speclab.cli"], env=env, cwd=ROOT,
                          timeout=SWEEP_TIMEOUT_S)
    if warm.returncode != 0:
        print("speclab.cli does not import", file=sys.stderr)
        return 2

    start = time.perf_counter()
    results: list[dict] = []
    try:
        if args.trace:
            run_phase(args, out_root, False, env, start + args.seconds / 2, results)
            run_phase(args, out_root, True, env, start + args.seconds, results)
        else:
            run_phase(args, out_root, False, env, start + args.seconds, results)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 4
    measured_s = time.perf_counter() - start

    problems = [p for r in results for p in r["problems"]]
    problems += cross_checks(results, random.Random(f"oracle:{args.seed}"))
    attempted = sum(r["attempted"] for r in results)
    plain = [r for r in results if not r["traced"]]
    wall = statistics.median(r["wall_ref_s"] for r in plain)
    if args.trace:
        traced = [r for r in results if r["traced"]]
        # layer times at the reference speed, like wall_ref_s (counts unscaled)
        values = {k: statistics.median_low(
                      r["layers"][k] * (r["wall_ref_s"] / r["wall_s"] if k.endswith("_s") else 1)
                      for r in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead_frac"] = statistics.median(r["wall_ref_s"] for r in traced) / wall - 1.0
        units = {k: LAYER_UNITS[k.rpartition(".")[2]] for k in values}
    else:
        values = {
            "wall_ref_s": wall,
            "setup_s": statistics.median(r["setup_ref_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": metrics,
    }

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_id": args.run_id, "measured_s": measured_s,
        "machine": machine(), "problems": problems,
        "unscaled": {"wall_s": statistics.median(r["wall_s"] for r in plain),
                     "setup_s": statistics.median(r["setup_s"] for r in results)},
        "samples": [{k: r[k] for k in ("grid", "traced", "setup_s", "setup_ref_s", "wall_s",
                                       "wall_ref_s", "call_s", "probes", "peak_rss_mb",
                                       "elapsed", "calls")}
                    for r in results],
        "summary": summary,
    }
    (out_root / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} sweeps={len(results)} "
          f"machine={json.dumps(details['machine'])}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, v in details["unscaled"].items():
        print(f"# unscaled {name} = {v:.6g} s (median, not rescaled to the reference speed)")
    for p in problems[:20]:
        print(f"# FAILED {p}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

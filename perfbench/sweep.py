"""One sweep in a fresh interpreter: import speclab, run the workload's CLI
calls through `speclab.cli.main(argv)`, gate each output, report timings.

Usage (started by run.py):
    python sweep.py SPEC_JSON OUT_DIR SPAWN_TIME TRACE

SPAWN_TIME is the parent's `time.perf_counter()` just before it started this
process; on Linux that clock is system-wide, so the difference measured after
`import speclab.cli` is the set-up time from interpreter start.  The speed
probe (speed.py) runs before the first call and after each call; each call's
time is rescaled by the probes on either side of it, and the set-up time by
the median probe of the sweep.  The result goes to OUT_DIR/sweep.json; with
TRACE=1 the spans go to OUT_DIR/spans.json.
"""

import sys
import time

SPAWN_TIME = float(sys.argv[3])

import speclab.cli  # noqa: E402  (numpy, scipy and every speclab layer)

SETUP_S = time.perf_counter() - SPAWN_TIME

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def run_call(call: dict, out: Path):
    """Run one CLI call; returns (exit code, output text or None)."""
    try:
        code = speclab.cli.main(call["argv"] + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects its argv
        code = exc.code
    except Exception:  # a raising call is a failed call; keep sweeping
        traceback.print_exc()
        code = "exception"
    text = out.read_text() if out.exists() else None
    return code, text


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out_dir = Path(sys.argv[2])
    traced = sys.argv[4] == "1"
    src = Path(spec["src"]).resolve()
    if src not in Path(speclab.cli.__file__).resolve().parents:
        print(f"speclab imported from {speclab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracing.install(tracer)

    attempted, problems, files, call_s = 0, [], [], []
    probes = [speed.probe()]
    t0 = time.perf_counter()
    for i, call in enumerate(spec["calls"]):
        out = out_dir / f"{i}-{call['kind']}.{'json' if call['kind'] == 'validate' else 'csv'}"
        t = time.perf_counter()
        code, text = run_call(call, out)
        points, bad = gate.check_output(call["kind"], text, code, call["points"])
        call_s.append(time.perf_counter() - t)
        probes.append(speed.probe())
        attempted += points
        problems += bad
        files.append(out.name)
    # each call at the mean speed of the probes before and after it
    scale = [2 * speed.REF_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]

    result = {
        "setup_s": SETUP_S,
        "setup_ref_s": SETUP_S * speed.REF_PROBE_S / statistics.median(probes),
        "wall_s": sum(call_s),
        "wall_ref_s": sum(t * k for t, k in zip(call_s, scale)),
        "call_s": call_s,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "problems": problems,
        "files": files,
    }
    if tracer is not None:
        jx_cache = speclab.spinrep._jx_eigensystem.cache_info()
        result["layers"] = tracing.layer_metrics(tracer.aggregate(), tracer.norm_elems, jx_cache)
        (out_dir / "spans.json").write_text(json.dumps(
            {"run_id": spec["run_id"], "fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans(t0)}))
    (out_dir / "sweep.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

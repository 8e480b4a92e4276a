"""Command-line front end: parameter sweeps, truncation tables, regression,
eigenvector export, and the validation report.

Data files are byte-reproducible: rows are computed (possibly in parallel),
sorted canonically, and written with floats at 17 significant digits and LF
line endings.  The wall_ms column is therefore a fixed 0 placeholder; real
timings and timestamps live in the ``<out>.meta.json`` sidecar, which is the
only file allowed to differ between identical runs.

Exit codes: 0 ok, 1 contract error, 2 I/O error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time

import numpy as np

from ._errors import ComputationError, ContractError, integer_at_least, threshold, width
from .hankel import ArcSymbol, nehari_bound, power_essential_radius, truncated_norm_record
from .models import FAMILIES, extremal_vector
from .spinrep import jx_cache_info

NORMS_HEADER = "family,n,a,b,norm,n_mod_4,wall_ms"
HANKEL_HEADER = "a,N,truncated_norm,nehari_upper,power_lower"
HALF_SLACK = 1e-10  # rows this close to 1/2 count as exactly half in regression


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _sidecar(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = 1
    payload["created_utc"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _write_text(path + ".meta.json", json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# norms sweep
# ---------------------------------------------------------------------------

def _family_args(args) -> tuple:
    """The family of a norms or vectors call and the a and b values to build
    it with (defaults 0 and 1); a threshold it does not read, an a outside
    [0, 1) and a b outside (0, 1] are contract errors."""
    if args.family not in FAMILIES:
        raise ContractError(f"unknown family {args.family!r}")
    family = FAMILIES[args.family]
    for flag in ("a", "b"):
        if getattr(args, flag) and flag not in family.reads:
            raise ContractError(f"family {args.family} reads no --{flag}")
    a_list, b_list = args.a or [0.0], args.b or [1.0]
    for a in a_list:
        threshold("--a", a)
    for b in b_list:
        width("--b", b)
    return family, a_list, b_list


# Keeps desk-scale runtimes.  No point makes an O(n^3) solve: each is one
# Lanczos run on an operator of the commutator's block.  An SU(2) matvec is
# four O(n^2) GEMVs on a view of the stored J_x eigensystem (the top-half
# rows of the mu >= 0 columns, about n^2/4 doubles, built in O(n^2) time).
# A sweep runs every point of one n in turn, so spinrep's store, bounded by
# bytes, holds one eigensystem this large at a time; spinrep refuses
# n > 2^14 itself.  A ring or Heisenberg matvec is O(n log n) FFTs in O(n)
# memory, Heisenberg's closed-form cross-check included; SE(2)'s block is a
# Hankel section, solved by the Hankel odd-block kernel with FFT products of
# about half that length.  The cap stays until it is lifted per family,
# once a benchmark workload measures the large sizes.
MAX_SWEEP_N = 2048


def _check_sizes(name: str, lo: int, hi: int) -> None:
    """Sizes lo..hi lie between family name's smallest n and the sweep cap."""
    integer_at_least(f"family {name}: n", lo, FAMILIES[name].min_n)
    if hi > MAX_SWEEP_N:
        raise ContractError(f"sweep cap is n <= {MAX_SWEEP_N}, got {hi}")


def _norm_point(task):
    """Worker for one sweep point; returns (csv key, csv row, wall ms, norm
    record as a dict, the J_x store's (hits, misses) it caused)."""
    family, n, a, b = task
    before = jx_cache_info()
    t0 = time.perf_counter()
    report = FAMILIES[family].build(n, a, b)
    wall_ms = int(round(1000 * (time.perf_counter() - t0)))
    after = jx_cache_info()
    a_out, b_out = report.params.get("a", 0.0), report.params.get("b", 0.0)
    cells = [report.family, str(n), _fmt(a_out), _fmt(b_out), _fmt(report.norm), str(n % 4), "0"]
    jx = (after.hits - before.hits, after.misses - before.misses)
    return (n, a_out, b_out), ",".join(cells), wall_ms, report.record._asdict(), jx


def _sweep_tasks(args) -> list:
    step = integer_at_least("--n-step", args.n_step, 1)
    if args.n_stop < args.n_start:
        raise ContractError("empty n range")
    _, a_list, b_list = _family_args(args)
    # the first and the last n of the range, checked before any task is built
    _check_sizes(args.family, args.n_start,
                 args.n_start + (args.n_stop - args.n_start) // step * step)
    ns = list(range(args.n_start, args.n_stop + 1, step))
    return [(args.family, n, a, b) for n in ns for a in a_list for b in b_list]


def _worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes for a sweep: the requested count, but never more than
    there are tasks or CPUs."""
    integer_at_least("--jobs", jobs, 1)
    return min(jobs, tasks, cpus)


def cmd_norms(args) -> int:
    tasks = _sweep_tasks(args)
    workers = _worker_count(args.jobs, len(tasks), os.cpu_count() or 1)
    t0 = time.perf_counter()
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing cost a serial
        # sweep about 10 ms of import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_norm_point, tasks, chunksize=1))
    else:
        results = [_norm_point(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    lines = [NORMS_HEADER] + [r[1] for r in results]
    _write_text(args.out, "\n".join(lines) + "\n")
    _sidecar(
        args.out,
        {
            "command": "norms",
            "family": args.family,
            "jobs": args.jobs,
            "workers": workers,
            "wall_ms_total": int(round(1000 * (time.perf_counter() - t0))),
            "wall_ms_points": [r[2] for r in results],
            "norm_records": [r[3] for r in results],
            "jx_cache": {"hits": sum(r[4][0] for r in results),
                         "misses": sum(r[4][1] for r in results)},
        },
    )
    return 0


# ---------------------------------------------------------------------------
# hankel table
# ---------------------------------------------------------------------------

# Each row is matrix-free: O(N) memory and O(N log N) per matvec.  The cap
# keeps a row under a second: at N = 2^18 the a = 0 row took 0.18-0.29 s and
# the a = 0.3 row 0.59-0.69 s, peak RSS 100 MB for both rows in one process
# (`speclab hankel --N 262144 --a 0,0.3`, 2-core VM, 1 BLAS thread).
MAX_HANKEL_N = 2**18


def _distinct(flag: str, values: list) -> list:
    """values sorted; a repeated value, which would compute and write its
    rows twice, is a contract error."""
    if len(set(values)) < len(values):
        raise ContractError(f"--{flag} repeats a value: {values}")
    return sorted(values)


def cmd_hankel(args) -> int:
    sizes = _distinct("N", args.N or [1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
    a_list = _distinct("a", args.a or [0.0])
    integer_at_least("truncation size", sizes[0], 1)
    if sizes[-1] > MAX_HANKEL_N:
        raise ContractError(f"hankel cap is N <= {MAX_HANKEL_N}, got {sizes[-1]}")
    symbols = [ArcSymbol(a) for a in a_list]
    t0 = time.perf_counter()
    lines, wall_ms, records = [HANKEL_HEADER], [], []
    for sym in symbols:
        upper = nehari_bound(sym)
        lower = power_essential_radius(sym)
        for n in sizes:
            t1 = time.perf_counter()
            record = truncated_norm_record(sym, n)
            wall_ms.append(int(round(1000 * (time.perf_counter() - t1))))
            records.append(record._asdict())
            lines.append(
                ",".join([_fmt(sym.a), str(n), _fmt(record.value), _fmt(upper), _fmt(lower)])
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    _sidecar(
        args.out,
        {
            "command": "hankel",
            "wall_ms_total": int(round(1000 * (time.perf_counter() - t0))),
            "wall_ms_points": wall_ms,
            "norm_records": records,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

def regress_rows(rows, residue: int) -> dict:
    """Least squares of ln(1/2 - norm) against ln(n) on an n mod 4 class."""
    picked = [(n, norm) for n, norm in rows if n % 4 == residue]
    if not picked:
        raise ContractError(f"no rows with n = {residue} mod 4")
    usable = [(n, norm) for n, norm in picked if 0.5 - norm > HALF_SLACK]
    if not usable:
        return {
            "schema_version": 1,
            "degenerate": True,
            "reason": "exact half",
            "points_used": 0,
        }
    if len({n for n, _ in usable}) < 2:
        raise ContractError("need rows below 1/2 at 2 or more distinct n to regress")
    x = np.log([n for n, _ in usable])
    y = np.log([0.5 - norm for _, norm in usable])
    design = np.vstack([x, np.ones(len(x))]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ [slope, intercept]
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {
        "schema_version": 1,
        "degenerate": False,
        "slope": float(slope),
        "intercept": float(intercept),
        "r2": float(min(max(r2, 0.0), 1.0)),
        "points_used": len(usable),
    }


def _read_norms_csv(path: str):
    """(n, norm) rows of a norms CSV that holds one (family, a, b) group."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != NORMS_HEADER:
            raise ContractError(f"unexpected CSV header {header!r}")
        rows, groups = [], set()
        for line in fh:
            try:
                family, n, a, b, norm, _, _ = line.strip().split(",")
                groups.add((family, float(a), float(b)))
                rows.append((int(n), float(norm)))
            except ValueError:
                raise ContractError(f"malformed CSV row: {line!r}") from None
    if len(groups) > 1:
        names = ", ".join(f"{f} a={a!r} b={b!r}" for f, a, b in sorted(groups))
        raise ContractError(f"regress fits one (family, a, b) group; the CSV holds {names}")
    return rows


def cmd_regress(args) -> int:
    result = regress_rows(_read_norms_csv(args.csv), args.mod_residue)
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# extremal vectors
# ---------------------------------------------------------------------------

def cmd_vectors(args) -> int:
    family, a_list, b_list = _family_args(args)
    _check_sizes(args.family, args.n, args.n)
    if len(a_list) > 1 or len(b_list) > 1:
        raise ContractError("vectors takes one value of --a and of --b")
    report = family.build(args.n, a_list[0], b_list[0])
    vec = extremal_vector(report, args.which)
    labels = family.labels(args.n)
    moduli = np.abs(vec.coefficients)
    lines = ["m,modulus"]
    for label, mod in zip(labels, moduli):
        lines.append(f"{_fmt(label)},{_fmt(mod)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    _sidecar(
        args.out,
        {
            "command": "vectors",
            "family": args.family,
            "n": args.n,
            "which": args.which,
            "norm": report.norm,
            "norm_record": report.record._asdict(),
            "extremal_value": vec.value,
            "degenerate_gap": vec.degenerate,
        },
    )
    if args.svg:
        _write_text(args.svg, _svg_bars(labels, moduli, f"{args.family} n={args.n} {args.which}"))
    return 0


def _svg_bars(labels, heights, title: str) -> str:
    """Minimal dependency-free bar rendering of |coefficient| against index."""
    width, height, pad = 900, 300, 40
    n = len(heights)
    top = max(float(max(heights)), 1e-12)
    bar_w = (width - 2 * pad) / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{pad}" y="20" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i, h in enumerate(heights):
        hh = (height - 2 * pad) * float(h) / top
        x = pad + i * bar_w
        parts.append(
            f'<rect x="{x:.2f}" y="{height - pad - hh:.2f}" width="{max(bar_w - 1, 0.5):.2f}" '
            f'height="{hh:.2f}" fill="steelblue"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11">{_fmt(labels[0])}</text>'
    )
    parts.append(
        f'<text x="{width - pad - 30}" y="{height - pad + 16}" font-size="11">{_fmt(labels[-1])}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    # imported here, inside wall_ms_total: validate and the numpy.random it
    # draws from cost every other subcommand about 14 ms of start-up
    from .validate import run_validation

    report, wall_ms = run_validation(inject_sign_flip=args.inject_sign_flip)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
        _sidecar(
            args.out,
            {
                "command": "validate",
                "wall_ms_total": int(round(1000 * (time.perf_counter() - t0))),
                "suites": [s["name"] for s in report["suites"]],
                "wall_ms_suites": wall_ms,
            },
        )
    else:
        sys.stdout.write(text)
    return 0 if report["all_pass"] else 3


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _float_list(text: str):
    """The numbers of a comma list, -0 read as 0.0 (+ 0.0), so that --a=-0
    writes the bytes --a 0 does, from a flag or a config alike."""
    return [float(tok) + 0.0 for tok in text.split(",") if tok != ""]


def _int_list(text: str):
    return [int(tok) for tok in text.split(",") if tok != ""]


def _config_keys(parser: argparse.ArgumentParser) -> dict:
    """The dests a config file may set, each with its option's declared
    argparse type: the subcommand's own options but --help, --config and the
    required ones (argparse keeps no public list of them).  A required option
    such as --out is always on the command line, which wins over the config,
    so a config value for it would never be read."""
    return {action.dest: action.type for action in parser._actions
            if not action.required and action.dest not in ("help", "config")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    norms = sub.add_parser("norms", help="sweep commutator norms to CSV")
    norms.add_argument("--family", choices=FAMILIES, default=None)
    norms.add_argument("--n-start", type=int, default=None)
    norms.add_argument("--n-stop", type=int, default=None)
    norms.add_argument("--n-step", type=int, default=None)
    norms.add_argument("--a", type=_float_list, default=None, help="comma list of thresholds")
    norms.add_argument("--b", type=_float_list, default=None, help="comma list of z-side widths")
    norms.add_argument("--out", required=True)
    norms.add_argument("--jobs", type=int, default=None)
    norms.add_argument("--config", default=None, help="JSON config supplying defaults")
    norms.set_defaults(
        func=cmd_norms,
        _fallbacks={"family": "su2", "n_start": 2, "n_stop": 32, "n_step": 1, "jobs": 1},
        _options=_config_keys(norms),
    )

    hank = sub.add_parser("hankel", help="truncated Hankel norms and certificates")
    hank.add_argument("--N", type=_int_list, default=None, help="comma list of truncation sizes")
    hank.add_argument("--a", type=_float_list, default=None)
    hank.add_argument("--out", required=True)
    hank.add_argument("--config", default=None)
    hank.set_defaults(func=cmd_hankel, _options=_config_keys(hank))

    reg = sub.add_parser("regress", help="fit ln(1/2 - norm) against ln(n) on an n mod 4 class")
    reg.add_argument("--csv", required=True, help="CSV produced by the norms command")
    reg.add_argument("--mod-residue", type=int, choices=(0, 1, 2, 3), required=True)
    reg.add_argument("--out", default=None)
    reg.set_defaults(func=cmd_regress)

    vec = sub.add_parser("vectors", help="export extremal-vector coefficient moduli")
    vec.add_argument("--family", choices=FAMILIES, default="su2")
    vec.add_argument("--n", type=int, required=True)
    vec.add_argument("--a", type=_float_list, default=None)
    vec.add_argument("--b", type=_float_list, default=None)
    vec.add_argument("--which", choices=("max", "min"), default="max",
                     help="top or bottom eigenvalue of i*C; C is real and skew, so the two "
                     "vectors are complex conjugates: the same moduli for every family")
    vec.add_argument("--out", required=True)
    vec.add_argument("--svg", default=None)
    vec.set_defaults(func=cmd_vectors)

    val = sub.add_parser("validate", help="run invariant suites, emit JSON report")
    val.add_argument("--out", default=None)
    val.add_argument(
        "--inject-sign-flip",
        action="store_true",
        help="testing hook: corrupt one d-matrix column to prove the suite bites",
    )
    val.set_defaults(func=cmd_validate)
    return parser


def _numbers(items, kind) -> bool:
    """Whether every JSON value is an integer (kind int) or a number (kind float)."""
    allowed = int if kind is int else (int, float)
    return all(isinstance(x, allowed) and not isinstance(x, bool) for x in items)


def _config_value(key: str, kind, value):
    """A config value checked against its option's declared argparse type
    and read by it: a list of numbers for `_float_list` (of integers for
    `_int_list`), read as the comma list it would be on the command line (so
    an integer past the float range reads as inf, as it would there), an
    integer for int, and a string for an untyped option."""
    if kind in (_float_list, _int_list):
        if isinstance(value, list) and _numbers(value, float if kind is _float_list else int):
            return kind(",".join(map(str, value)))
    elif (kind is int and _numbers([value], int)) or (kind is None and isinstance(value, str)):
        return value
    wanted = getattr(kind, "__name__", "str").strip("_").replace("_", " ")
    raise ContractError(f"config key {key!r} needs a JSON value of type {wanted}, got {value!r}")


def _apply_config(args) -> None:
    """Merge a JSON config under explicit flags, then fill hard defaults."""
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:
                raise ContractError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict) or cfg.get("schema_version") != 1:
            raise ContractError("config must carry schema_version 1")
        for key, value in cfg.items():
            if key == "schema_version":
                continue
            attr = key.replace("-", "_")
            if attr not in args._options:
                raise ContractError(f"config key {key!r} is not a recognized option")
            # checked even where a flag wins
            value = _config_value(key, args._options[attr], value)
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    for attr, value in getattr(args, "_fallbacks", {}).items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)


# built on the first main call, so its defaults bind the cmd_* the module then
# holds; every parse shares them (the _fallbacks dict too), so nothing mutates them
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

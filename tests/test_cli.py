import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from speclab import ContractError, cli, hankel, linalg, models, validate
from speclab.cli import _worker_count, main, regress_rows
from speclab.models import FAMILIES
from speclab.spinrep import _jx_eigensystem

HEADER = "family,n,a,b,norm,n_mod_4,wall_ms"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(list(args))


def test_norms_header_and_format(tmp_path):
    out = tmp_path / "norms.csv"
    assert run(["norms", "--family", "su2", "--n-start", "2", "--n-stop", "8", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 8
    for line in lines[1:]:
        family, n, a, b, norm, mod4, wall = line.split(",")
        assert family == "su2"
        assert int(mod4) == int(n) % 4
        assert wall == "0"
        assert float(norm) <= 0.5 + 1e-9
    # norms carry 17 significant digits
    norm_field = lines[2].split(",")[4]
    assert len(norm_field.replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_norms_exact_half_rows(tmp_path):
    out = tmp_path / "ladder.csv"
    run(["norms", "--family", "su2", "--n-start", "2", "--n-stop", "12", "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        parts = line.split(",")
        if int(parts[1]) % 4 == 2:
            assert abs(float(parts[4]) - 0.5) <= 1e-10


def test_norms_heisenberg_half_rows(tmp_path):
    out = tmp_path / "heis.csv"
    run(["norms", "--family", "heisenberg", "--n-start", "2", "--n-stop", "12", "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        parts = line.split(",")
        if int(parts[1]) % 4 == 2:
            assert abs(float(parts[4]) - 0.5) <= 1e-10


def test_norms_idempotent_and_sidecar(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["norms", "--family", "su2", "--n-start", "2", "--n-stop", "20", "--n-step", "3"]
    run(args + ["--out", str(out1)])
    run(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["schema_version"] == 1
    assert "created_utc" in meta and "wall_ms_total" in meta


@pytest.mark.parametrize("family", ["su2", "su2_interval", "su2_caps"])
def test_su2_norms_never_form_the_projection(tmp_path, monkeypatch, family):
    def forbidden(*args, **kwargs):
        raise AssertionError("an SU(2) norm must not form P_x or call a dense solve")

    monkeypatch.setattr(models, "projection_x", forbidden)
    monkeypatch.setattr(linalg, "operator_norm", forbidden)
    out = tmp_path / "n.csv"
    args = ["norms", "--family", family, "--n-start", "2", "--n-stop", "40", "--n-step", "7"]
    assert run(args + ["--a", "0.3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.parametrize(
    "family, thresholds, rows",
    [("ring", ["--a", "0,0.3"], 12), ("se2", [], 6), ("heisenberg", ["--a", "0,0.3"], 12)],
)
def test_fourier_norms_never_call_a_dense_solve(tmp_path, monkeypatch, family, thresholds, rows):
    args = ["norms", "--family", family, "--n-start", "2", "--n-stop", "40", "--n-step", "7"]
    plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
    assert run(args + thresholds + ["--out", str(plain)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fourier-family norm must be matrix-free")

    assert not hasattr(models, "operator_norm")
    monkeypatch.setattr(linalg, "operator_norm", forbidden)
    monkeypatch.setattr(models, "_masked", forbidden)
    assert run(args + thresholds + ["--out", str(patched)]) == 0
    assert patched.read_bytes() == plain.read_bytes()
    assert len(plain.read_text().splitlines()) == 1 + rows


def test_fourier_tables_never_call_the_scalar_reference(tmp_path, monkeypatch):
    # coefficient tables and arc memberships are array expressions; the
    # scalar fourier_coeff and grid_in_arc are only the tests' reference
    def forbidden(*args, **kwargs):
        raise AssertionError("a Fourier table must not be built per element")

    monkeypatch.setattr(hankel, "fourier_coeff", forbidden)
    monkeypatch.setattr(models, "grid_in_arc", forbidden)
    for family in ("ring", "heisenberg"):
        args = ["norms", "--family", family, "--n-start", "2", "--n-stop", "40", "--n-step", "7"]
        assert run(args + ["--a", "0.3", "--out", str(tmp_path / f"{family}.csv")]) == 0
    assert run(["hankel", "--N", "64,65", "--a", "0.3", "--out", str(tmp_path / "h.csv")]) == 0


@pytest.mark.parametrize("family", ["ring", "heisenberg", "se2"])
def test_vectors_read_the_matrix_of_a_fourier_family(tmp_path, family):
    out = tmp_path / "v.csv"
    assert run(["vectors", "--family", family, "--n", "12", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + len(FAMILIES[family].labels(12))
    meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
    assert abs(meta["extremal_value"] - meta["norm"]) <= 1e-12
    record = meta["norm_record"]  # the norm's certificate, as in the norms sidecar
    assert record["method"] == ("perron" if family == "se2" else "lanczos")
    assert record["lower"] <= record["value"] == meta["norm"] <= record["upper"]


def test_norms_sidecar_norm_records(tmp_path):
    csvs = []
    for name in ("c.csv", "c2.csv"):
        out = tmp_path / name
        args = ["norms", "--family", "su2_caps", "--n-start", "5", "--n-stop", "9", "--a", "0.3,0.8"]
        assert run(args + ["--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    norms = [float(line.split(",")[4]) for line in csvs[0].decode().splitlines()[1:]]
    records = json.loads((tmp_path / "c.csv.meta.json").read_text())["norm_records"]
    assert len(records) == len(norms) == 10
    for record, norm in zip(records, norms):
        assert record["method"] == "lanczos" and record["value"] == norm
        assert record["lower"] <= norm <= record["upper"] == 0.5
    for family in ("ring", "heisenberg", "se2"):
        out = tmp_path / f"{family}.csv"
        args = ["norms", "--family", family, "--n-start", "2", "--n-stop", "4"]
        assert run(args + ["--out", str(out)]) == 0
        norms = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        records = json.loads((tmp_path / f"{family}.csv.meta.json").read_text())["norm_records"]
        se2 = family == "se2"  # a Hankel section: a Perron bracket below 1/2
        assert [r["method"] for r in records] == ["perron" if se2 else "lanczos"] * 3
        for record, norm in zip(records, norms):
            assert record["value"] == norm
            assert record["lower"] <= norm <= record["upper"]
            assert (record["upper"] < 0.5) if se2 else (record["upper"] == 0.5)
            assert record["matvecs"] >= 2


def test_norms_parallel_equals_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["norms", "--family", "su2", "--n-start", "2", "--n-stop", "14", "--a", "0,0.3"]
    run(base + ["--out", str(serial)])
    run(base + ["--jobs", "3", "--out", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


def test_norms_parallel_equals_serial_where_jx_rescales(tmp_path):
    # the J_x recurrence rescales 2-3 times at each of these sizes; the cache
    # is cleared first, so the forked workers and the serial run each build
    # their eigensystems cold
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["norms", "--family", "su2", "--n-start", "1020", "--n-stop", "1023"]
    try:
        _jx_eigensystem.cache_clear()
        run(base + ["--jobs", "2", "--out", str(parallel)])
        _jx_eigensystem.cache_clear()
        run(base + ["--out", str(serial)])
    finally:
        _jx_eigensystem.cache_clear()
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("family, start", [("ring", 30), ("heisenberg", 60)])
def test_norms_parallel_equals_serial_on_both_reflection_sectors(tmp_path, family, start):
    # every point here runs its two sectors in lockstep: its Gram operator
    # is above lanczos_top's one-shot size
    sizes = range(start, start + 4)
    for n in sizes:
        for a in (0.0, 0.3):
            out_side = np.count_nonzero(~FAMILIES[family].build(n, a, 1.0).inside)
            assert out_side > linalg.LANCZOS_STEPS
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["norms", "--family", family, "--n-start", str(sizes[0]), "--n-stop", str(sizes[-1]),
            "--a", "0,0.3"]
    assert run(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert run(base + ["--out", str(serial)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_norms_row_ordering(tmp_path):
    out = tmp_path / "o.csv"
    run([
        "norms", "--family", "su2_caps", "--n-start", "4", "--n-stop", "8", "--n-step", "2",
        "--a", "0.7,0.2", "--out", str(out),
    ])
    keys = []
    for line in out.read_text().splitlines()[1:]:
        parts = line.split(",")
        keys.append((int(parts[1]), float(parts[2]), float(parts[3])))
    assert keys == sorted(keys)


def test_su2_sweep_memory_is_bounded(tmp_path):
    # each cached J_x eigensystem is about n^2/4 doubles (2.1 MB at n = 1025,
    # n x n before): a cache that kept every size of a sweep at n x n peaked
    # at 145 MB here, over 2 GB for 64 sizes near n = 2048
    _jx_eigensystem.cache_clear()
    tracemalloc.start()
    try:
        args = ["norms", "--family", "su2", "--n-start", "1025", "--n-stop", "1040"]
        assert run(args + ["--jobs", "1", "--out", str(tmp_path / "m.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _jx_eigensystem.cache_clear()
    assert peak < 64e6


def test_su2_sweep_holds_one_large_eigensystem(tmp_path):
    # a sweep runs each n's points in turn, so the J_x store evicts before it
    # builds and holds one eigensystem of about 2.1 MB; a store of the last
    # four sizes held about 8.4 MB here
    _jx_eigensystem.cache_clear()
    tracemalloc.start()
    try:
        args = ["norms", "--family", "su2", "--n-start", "1020", "--n-stop", "1023"]
        assert run(args + ["--out", str(tmp_path / "m.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
        held = _jx_eigensystem.cache_info().entries
    finally:
        tracemalloc.stop()
        _jx_eigensystem.cache_clear()
    assert held == 1
    assert peak < 5e6


def _jx_counts(out) -> dict:
    return json.loads(pathlib.Path(f"{out}.meta.json").read_text())["jx_cache"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_norms_sidecar_counts_the_jx_store(tmp_path, jobs):
    # one miss per n and a hit for its second a; with two workers each
    # point's counts come back from the worker that ran it
    out = tmp_path / "i.csv"
    _jx_eigensystem.cache_clear()
    try:
        assert run(["norms", "--family", "su2_interval", "--n-start", "400", "--n-stop", "403",
                    "--a", "0.2,0.3", "--b", "0.6", "--jobs", jobs, "--out", str(out)]) == 0
    finally:
        _jx_eigensystem.cache_clear()
    counts = _jx_counts(out)
    if jobs == "1":
        assert counts == {"hits": 4, "misses": 4}
    else:  # a worker misses at most once per n, and hits otherwise
        assert counts["hits"] + counts["misses"] == 8 and 4 <= counts["misses"] <= 8
    ring = tmp_path / "r.csv"
    assert run(["norms", "--family", "ring", "--n-start", "4", "--n-stop", "6", "--out", str(ring)]) == 0
    assert _jx_counts(ring) == {"hits": 0, "misses": 0}


def test_su2_caps_after_su2_interval_reads_the_stored_eigensystems(tmp_path):
    # the benchmark's spin sweep: four n ~ 400 systems (1.3 MB) fit the budget
    base = ["--n-start", "400", "--n-stop", "403", "--out"]
    _jx_eigensystem.cache_clear()
    try:
        assert run(["norms", "--family", "su2_interval", "--a", "0.3", "--b", "0.6"]
                   + base + [str(tmp_path / "i.csv")]) == 0
        assert run(["norms", "--family", "su2_caps", "--a", "0.6,0.8"]
                   + base + [str(tmp_path / "c.csv")]) == 0
    finally:
        _jx_eigensystem.cache_clear()
    assert _jx_counts(tmp_path / "c.csv") == {"hits": 8, "misses": 0}


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "family": "su2", "n_start": 2, "n_stop": 6}))
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run(["norms", "--config", str(cfg), "--out", str(out1)]) == 0
    run(["norms", "--family", "su2", "--n-start", "2", "--n-stop", "6", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    assert run(["norms", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    bad.write_text("[1]")
    assert run(["norms", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "family": "ring", "n_stop": 4}))
    outs = [tmp_path / f"{i}.csv" for i in range(4)]
    assert main(["norms", "--n-stop", "6", "--out", str(outs[0])]) == 0
    assert main(["norms", "--config", str(cfg), "--out", str(outs[1])]) == 0
    assert main(["norms", "--n-stop", "6", "--out", str(outs[2])]) == 0
    assert len(built) == 1
    # the config's values did not stay in the shared defaults, and a fresh
    # parser writes the same bytes
    assert outs[1].read_text().splitlines()[1].startswith("ring,")
    monkeypatch.setattr(cli, "_PARSER", None)
    assert main(["norms", "--n-stop", "6", "--out", str(outs[3])]) == 0
    assert len(built) == 2
    assert outs[0].read_bytes() == outs[2].read_bytes() == outs[3].read_bytes()


def test_exit_codes(tmp_path):
    assert run(["norms", "--n-start", "9", "--n-stop", "5", "--out", str(tmp_path / "e.csv")]) == 1
    assert run(["norms", "--n-stop", "4", "--out", "/nonexistent-dir/x.csv"]) == 2


def test_worker_count_clamp():
    assert _worker_count(1, 10, 8) == 1
    assert _worker_count(64, 10, 8) == 8
    assert _worker_count(64, 3, 8) == 3
    assert _worker_count(4, 10, 2) == 2
    with pytest.raises(ContractError):
        _worker_count(0, 10, 8)


def test_out_of_bounds_requests_exit_1(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["norms", "--n-stop", "4", "--jobs", "0", "--out", str(out)]) == 1
    assert run(["norms", "--n-stop", "4", "--jobs", "-3", "--out", str(out)]) == 1
    assert run(["hankel", "--N", "4,262145", "--out", str(out)]) == 1
    assert not out.exists()


def test_n_range_past_the_cap_exits_1_before_it_is_built(tmp_path):
    # the first and the last n are checked before any task exists, so a range
    # past the cap allocates nothing in proportion to its length
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code = run(["norms", "--family", "ring", "--n-stop", "3000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and not out.exists()
    assert peak < 1e6
    # the last n is the range's, not --n-stop: 2040, 2049 breaks the cap, 2040 alone does not
    base = ["norms", "--family", "ring", "--n-start", "2040", "--n-stop", "2050", "--out", str(out)]
    assert run(base + ["--n-step", "9"]) == 1 and not out.exists()
    assert run(base + ["--n-step", "11"]) == 0 and len(out.read_text().splitlines()) == 2


def test_n_step_below_one_exits_1(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["norms", "--n-stop", "4", "--n-step", "0", "--out", str(out)]) == 1
    assert run(["norms", "--n-start", "9", "--n-stop", "4", "--n-step", "-1",
                "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("norms", "jobs", "2"),
        ("norms", "n_stop", 4.5),
        ("norms", "n_step", True),
        ("norms", "a", "0.3"),
        ("norms", "a", 0.3),
        ("norms", "b", [0.5, "1"]),
        ("hankel", "N", [4, 8.0]),
        ("hankel", "a", None),
        ("norms", "family", "bogus"),
        ("norms", "a", [10**400]),
        ("norms", "family", ["su2"]),
        ("norms", "family", {"a": 1}),
    ],
)
def test_config_wrong_types_exit_1(tmp_path, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, key: value}))
    out = tmp_path / "x.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_config_wrong_type_exits_1_where_a_flag_wins(tmp_path):
    # the flag's value would be used, but the config is still checked
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n_stop": "x", "family": ["su2"]}))
    out = tmp_path / "x.csv"
    assert run(["norms", "--config", str(cfg), "--n-stop", "4", "--family", "su2",
                "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("norms", {"func": 3, "command": "x", "config": "y"}),
        ("norms", {"func": 3}),
        ("norms", {"command": "hankel"}),
        ("norms", {"config": "other.json"}),
        ("norms", {"_fallbacks": {}}),
        ("norms", {"help": True}),
        ("norms", {"N": [4]}),
        ("hankel", {"n_stop": 4}),
        ("hankel", {"family": "ring"}),
        ("hankel", {"func": 3}),
        ("norms", {"out": "y.csv"}),
        ("hankel", {"out": "y.csv"}),
    ],
)
def test_config_keys_are_options_of_the_subcommand(tmp_path, capsys, command, cfg):
    # parser internals (func, command, the fallbacks), --config itself,
    # another subcommand's options and a required option (--out, which the
    # command line always sets) are refused, not silently ignored
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    out = tmp_path / "x.csv"
    assert run([command, "--config", str(path), "--out", str(out)]) == 1
    assert "is not a recognized option" in capsys.readouterr().err
    assert not out.exists()


def test_config_not_json_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1,')
    out = tmp_path / "x.csv"
    assert run(["norms", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    # a file that cannot be opened stays an i/o error
    assert run(["norms", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 2


def _never_called(*args, **kwargs):
    raise AssertionError("work started before the request was checked")


def test_hankel_checks_every_request_before_any_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("speclab.cli.truncated_norm_record", _never_called)
    out = tmp_path / "h.csv"
    for flags in (
        ["--N", "2048", "--a", "0.3,1.5"],
        ["--N", "8,0"],
        ["--N=-3,8", "--a", "0.3"],
        ["--N", "4,4"],
        ["--N", "8", "--a", "0.3,0.3"],
        ["--N", "8", "--a=0,-0"],
    ):
        assert run(["hankel", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("contract error")
    assert not out.exists()


def test_hankel_norm_past_the_half_bound_exits_1_without_a_csv(tmp_path, capsys, monkeypatch):
    grid = hankel._coeff_grid
    monkeypatch.setattr(hankel, "_coeff_grid", lambda sym, p: 2.5 * grid(sym, p))
    out = tmp_path / "h.csv"
    assert run(["hankel", "--N", "64", "--a", "0.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("computation error")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, family, builder, flags",
    [
        ("norms", "ring", "ring_commutator", ["--a", "0.3,1.5"]),
        ("norms", "ring", "ring_commutator", ["--a", "0.3,1.5", "--jobs", "2"]),
        ("norms", "heisenberg", "heisenberg_commutator", ["--a", "0.3,-0.1"]),
        ("norms", "su2", "su2_commutator", ["--b", "1,0"]),
        ("norms", "su2_interval", "su2_commutator", ["--a", "0.3", "--b", "0.5,1.5"]),
        ("vectors", "ring", "ring_commutator", ["--a", "1.5"]),
        ("norms", "ring", "ring_commutator", ["--n-start", "1", "--jobs", "2"]),
        ("norms", "se2", "se2_commutator", ["--n-start", "0", "--jobs", "2"]),
        ("norms", "su2", "su2_commutator", ["--n-start", "1", "--jobs", "2"]),
    ],
)
def test_out_of_range_thresholds_exit_1_before_any_point(
    tmp_path, capsys, monkeypatch, command, family, builder, flags
):
    monkeypatch.setattr(f"speclab.models.{builder}", _never_called)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _never_called)
    size = ["--n-start", "300", "--n-stop", "300"] if command == "norms" else ["--n", "300"]
    out = tmp_path / "x.csv"
    assert run([command, "--family", family, *size, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("contract error")
    assert not out.exists()


def test_vectors_size_cap(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["vectors", "--family", "su2", "--n", "2049", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, family, flags",
    [
        ("norms", "su2_caps", ["--b", "0.5"]),
        ("norms", "ring", ["--b", "0.5"]),
        ("norms", "heisenberg", ["--b", "0.5"]),
        ("norms", "se2", ["--b", "0.5"]),
        ("norms", "se2", ["--a", "0.3"]),
        ("vectors", "su2_caps", ["--b", "0.5"]),
        ("vectors", "se2", ["--a", "0.3"]),
        ("vectors", "ring", ["--a", "0.3,0.4"]),
        ("vectors", "su2", ["--b", "0.5,1"]),
        ("vectors", "ring", ["--a", "0.3,0.3"]),
    ],
)
def test_unread_or_repeated_thresholds_exit_1(tmp_path, command, family, flags):
    size = ["--n-stop", "6"] if command == "norms" else ["--n", "6"]
    out = tmp_path / "x.csv"
    assert run([command, "--family", family, *size, *flags, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["norms", "--family", "ring", "--n-stop", "6"], ["hankel", "--N", "1,8"]],
)
def test_negative_zero_threshold_writes_zero(tmp_path, argv):
    outs = []
    for a in ("0", "-0"):
        out = tmp_path / f"x{a}.csv"
        assert run([*argv, f"--a={a}", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    # a config's -0.0 is read by the same list parser as the flag's
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "a": [-0.0]}))
    out = tmp_path / "config.csv"
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert b"-0" not in outs[1] + outs[2]


def test_hankel_table(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hankel", "--N", "1,2,4,8,64", "--out", str(out)]) == 0
    rerun = tmp_path / "h2.csv"
    run(["hankel", "--N", "1,2,4,8,64", "--out", str(rerun)])
    assert out.read_bytes() == rerun.read_bytes()
    lines = out.read_text().splitlines()
    assert lines[0] == "a,N,truncated_norm,nehari_upper,power_lower"
    rows = [line.split(",") for line in lines[1:]]
    assert abs(float(rows[0][2]) - 0.31830988618379069) <= 1e-15
    vals = [float(r[2]) for r in rows]
    assert vals == sorted(vals)
    for r in rows:
        assert float(r[3]) == 0.5 and float(r[4]) == 0.5
        assert float(r[2]) <= 0.5


def test_hankel_sidecar_per_row_timings(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hankel", "--N", "1,2,8", "--a", "0,0.3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6
    meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
    points = meta["wall_ms_points"]
    assert len(points) == 6
    assert all(isinstance(t, int) and t >= 0 for t in points)


def test_hankel_sidecar_norm_records(tmp_path):
    csvs = []
    for name in ("h.csv", "h2.csv"):
        out = tmp_path / name
        assert run(["hankel", "--N", "1,8,4096", "--a", "0,0.3", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    norms = [float(line.split(",")[2]) for line in csvs[0].decode().splitlines()[1:]]
    records = json.loads((tmp_path / "h.csv.meta.json").read_text())["norm_records"]
    assert len(records) == len(norms) == 6
    assert [r["method"] for r in records] == ["perron"] * 3 + ["lanczos"] * 3
    for record, norm in zip(records, norms):
        assert isinstance(record["matvecs"], int) and record["matvecs"] >= 1
        assert record["lower"] <= record["value"] == norm <= record["upper"]


def test_regress_degenerate_on_exact_half_ladder(tmp_path):
    out = tmp_path / "l.csv"
    run(["norms", "--family", "su2", "--n-start", "2", "--n-stop", "30", "--out", str(out)])
    res = tmp_path / "r.json"
    assert run(["regress", "--csv", str(out), "--mod-residue", "2", "--out", str(res)]) == 0
    data = json.loads(res.read_text())
    assert data["degenerate"] is True
    assert data["reason"] == "exact half"


def test_regress_negative_slope(tmp_path):
    out = tmp_path / "l.csv"
    run(["norms", "--family", "su2", "--n-start", "4", "--n-stop", "120", "--n-step", "4", "--out", str(out)])
    res = tmp_path / "r.json"
    assert run(["regress", "--csv", str(out), "--mod-residue", "0", "--out", str(res)]) == 0
    data = json.loads(res.read_text())
    assert data["degenerate"] is False
    # frozen from an oracle run of this exact sweep: slope -0.27625
    assert abs(data["slope"] - (-0.27625388)) <= 1e-3
    assert 0.99 <= data["r2"] <= 1.0
    assert data["points_used"] == 30


def test_regress_rejects_mixed_groups(tmp_path, capsys):
    out = tmp_path / "caps.csv"
    run([
        "norms", "--family", "su2_caps", "--n-start", "20", "--n-stop", "60", "--n-step", "4",
        "--a", "0.25,0.75", "--out", str(out),
    ])
    res = tmp_path / "r.json"
    assert run(["regress", "--csv", str(out), "--mod-residue", "0", "--out", str(res)]) == 1
    assert not res.exists()
    err = capsys.readouterr().err
    assert "su2_caps a=0.25 b=0.25" in err and "su2_caps a=0.75 b=0.75" in err


def test_regress_non_numeric_field_exits_1(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(HEADER + "\nsu2,4,0,1,0.25,0,0\nsu2,x,0,1,0.25,0,0\n")
    res = tmp_path / "r.json"
    assert run(["regress", "--csv", str(csv), "--mod-residue", "0", "--out", str(res)]) == 1
    assert not res.exists()
    err = capsys.readouterr().err
    assert err.startswith("contract error") and "su2,x,0,1,0.25,0,0" in err


def test_regress_two_points_interpolate(tmp_path):
    csv = tmp_path / "two.csv"
    csv.write_text(HEADER + "\nsu2,4,0,1,0.25,0,0\nsu2,8,0,1,0.3,0,0\n")
    res = tmp_path / "r.json"
    assert run(["regress", "--csv", str(csv), "--mod-residue", "0", "--out", str(res)]) == 0
    data = json.loads(res.read_text())
    assert data["points_used"] == 2
    assert abs(data["r2"] - 1.0) <= 1e-12


def test_regress_rows_contract():
    with pytest.raises(Exception):
        regress_rows([(4, 0.25)], 0)  # single usable row
    with pytest.raises(ContractError):
        regress_rows([(4, 0.25), (4, 0.3)], 0)  # two rows, one n: no line to fit


def test_vectors_unit_norm_and_interior_max(tmp_path):
    out = tmp_path / "v.csv"
    svg = tmp_path / "v.svg"
    assert run([
        "vectors", "--family", "su2", "--n", "101", "--which", "max",
        "--out", str(out), "--svg", str(svg),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,modulus"
    moduli = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert len(moduli) == 101
    assert abs(np.sum(moduli**2) - 1.0) <= 1e-10
    # concentration away from the extreme weights
    k = int(np.argmax(moduli))
    assert 5 <= k <= 95
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("family", ["ring", "heisenberg"])
def test_vectors_honours_threshold(tmp_path, family):
    def shifted(n, a):
        return FAMILIES[family].build(n, a, 1.0)

    out = tmp_path / "v.csv"
    assert run(["vectors", "--family", family, "--n", "13", "--a", "0.3", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
    assert meta["norm"] == shifted(13, 0.3).norm
    assert meta["norm"] != shifted(13, 0.0).norm


def test_vectors_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["vectors", "--family", "heisenberg", "--n", "21", "--out", str(a)])
    run(["vectors", "--family", "heisenberg", "--n", "21", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_validate_report(tmp_path):
    out = tmp_path / "val.json"
    assert run(["validate", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["all_pass"] is True
    names = {s["name"] for s in report["suites"]}
    assert {
        "spinrep.wigner_cross_path",
        "spinrep.hilbert_formula",
        "hankel.certificates",
        "models.ring_exact_identity",
        "models.se2_block_identity",
    } <= names
    for suite in report["suites"]:
        assert suite["status"] == "pass"
        assert suite["residual"] <= suite["tolerance"]


def test_validate_report_reproducible_with_timing_sidecar(tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["validate", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
        names = [s["name"] for s in json.loads(out.read_text())["suites"]]
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert meta["command"] == "validate"
        assert meta["suites"] == names and len(names) == 20
        assert len(meta["wall_ms_suites"]) == 20
        assert all(isinstance(ms, int) and ms >= 0 for ms in meta["wall_ms_suites"])
        assert isinstance(meta["wall_ms_total"], int)
        assert meta["wall_ms_total"] >= sum(meta["wall_ms_suites"]) - 20
    assert reports[0] == reports[1]
    assert b"wall_ms" not in reports[0]


def test_validate_stdout_writes_no_sidecar(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["validate"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert list(tmp_path.iterdir()) == []


def test_validate_sign_flip_injection(tmp_path):
    out = tmp_path / "val.json"
    assert run(["validate", "--inject-sign-flip", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    failed = {s["name"] for s in report["suites"] if s["status"] == "fail"}
    assert failed == {"spinrep.wigner_cross_path"}


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports speclab from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _modules_loaded_by_cli_import(*names, module="speclab.cli"):
    """Import module (speclab.cli by default) in a fresh interpreter and
    return which of the named modules it loaded."""
    code = (f"import json, {module}, sys; "
            f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is a test-only oracle
    assert _modules_loaded_by_cli_import("scipy") == []


def test_cli_import_loads_no_process_pool():
    # the pool is imported inside cmd_norms, and only when it runs workers
    assert _modules_loaded_by_cli_import("concurrent.futures", "multiprocessing") == []


@pytest.mark.parametrize("module", ["speclab.cli", "speclab"])
def test_import_loads_no_validate_only_module(module):
    # validate, its numpy.random and the quadrature's numpy.polynomial load
    # when validate runs, so norms, hankel and vectors never pay for them
    loaded = _modules_loaded_by_cli_import(
        "speclab.validate", "numpy.random", "numpy.polynomial", module=module)
    assert loaded == []


def test_validate_in_a_fresh_interpreter_writes_the_in_process_report(tmp_path):
    # the test process may hold numpy.random already; a fresh one shows that
    # validate imports what it defers
    out = tmp_path / "val.json"
    proc = subprocess.run([sys.executable, "-m", "speclab.cli", "validate", "--out", str(out)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report, _ = validate.run_validation()
    assert out.read_text() == json.dumps(report, indent=2) + "\n"
    assert json.loads((tmp_path / "val.json.meta.json").read_text())["command"] == "validate"

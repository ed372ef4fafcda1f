"""CLI surface: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddl.cli import main
from ddl.sieve import read_segment_cache, sigma_table, write_segment_cache

import oracles


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def strip_generated(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# generated:"))


def data_rows(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if line and not line.startswith("#"))


def drop_generated(payload: dict) -> dict:
    payload = dict(payload)
    meta = dict(payload.get("meta", {}))
    meta.pop("generated", None)
    payload["meta"] = meta
    return payload


def test_catalog_listing(tmp_path):
    out = tmp_path / "cat.json"
    assert run_cli("catalog", "--out", str(out)) == 0
    entries = read_json(out)["entries"]
    ids = {e["id"] for e in entries}
    assert {"one", "tau", "lambda", "r"} <= ids


def test_estimate_csv_schema_and_values(tmp_path):
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--f", "one", "--x", "1000", "--mode", "df",
                   "--grid", "half", "--out", str(out)) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "u_num,u_den,raw_re,raw_im,value_re,value_im"
    rows = [l.split(",") for l in lines[1:]]
    byu = {(r[0], r[1]): r for r in rows}
    assert byu[("1", "1")][4] == "1"  # value 1.0 at u = 1
    below = sum(1 for n in range(1, 1001) if 2 * n <= oracles.sigma_brute(n))
    assert float(byu[("1", "2")][2]) == below


def test_estimate_deterministic_output(tmp_path):
    out = tmp_path / "a.csv"
    assert run_cli("estimate", "--f", "tau", "--x", "20000",
                   "--grid", "steps:10", "--out", str(out)) == 0
    first = out.read_text()
    assert run_cli("estimate", "--f", "tau", "--x", "20000",
                   "--grid", "steps:10", "--out", str(out)) == 0
    second = out.read_text()
    assert strip_generated(first) == strip_generated(second)
    assert first.count("# generated:") == 1


def test_estimate_json_and_gnuplot(tmp_path):
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--f", "one", "--x", "500", "--grid", "half",
                   "--gnuplot", "--out", str(out)) == 0
    gp = tmp_path / "est.csv.gp"
    assert gp.exists() and str(out) in gp.read_text()
    outj = tmp_path / "est.json"
    assert run_cli("estimate", "--f", "one", "--x", "500", "--grid", "half",
                   "--format", "json", "--out", str(outj)) == 0
    rows = read_json(outj)["rows"]
    assert rows[-1]["value_re"] == 1.0


def test_analytic_mean_cli(tmp_path):
    out = tmp_path / "mean.json"
    assert run_cli("analytic", "mean", "--f", "phi_over_n", "--P", "100000",
                   "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["value_re"] == pytest.approx(6 / math.pi ** 2, abs=1e-3)
    assert payload["tail_bound"] > 0


def test_analytic_subcommands_smoke(tmp_path):
    out = tmp_path / "o.json"
    assert run_cli("analytic", "wirsing", "--f", "one", "--x", "100000",
                   "--out", str(out)) == 0
    assert read_json(out)["prediction"] == pytest.approx(100000, rel=0.05)
    assert run_cli("analytic", "psi", "--f", "one", "--t", "0,1,2",
                   "--P", "10000", "--out", str(out)) == 0
    pts = read_json(out)["points"]
    assert pts[0]["re"] == 1.0 and pts[0]["im"] == 0.0
    assert run_cli("analytic", "kappa", "--f", "tau", "--x", "100000",
                   "--out", str(out)) == 0
    assert read_json(out)["claimed_kappa"] == 2.0
    assert run_cli("analytic", "halasz", "--f", "mu", "--beta", "0",
                   "--P", "10000", "--out", str(out)) == 0
    assert read_json(out)["series"] > 4
    assert run_cli("analytic", "jumps", "--f", "one", "--P", "10000",
                   "--out", str(out)) == 0
    assert read_json(out)["diagnostic"] > 2
    assert run_cli("analytic", "witness", "--f", "one", "--v", "2/5",
                   "--u", "1/2", "--out", str(out)) == 0
    assert read_json(out)["m"] == 6
    assert run_cli("analytic", "witness", "--f", "one", "--v", "2/5",
                   "--u", "1/2", "--p-cap", "2", "--out", str(out)) == 0
    assert read_json(out)["found"] is False


def test_equidist_cli_partition(tmp_path):
    out = tmp_path / "eq.json"
    assert run_cli("equidist", "--mode", "omega", "--q", "3", "--u", "1/2",
                   "--x", "100000", "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["class_sum"] == payload["qualifying_total"]
    est = tmp_path / "est.csv"
    run_cli("estimate", "--f", "one", "--x", "100000", "--grid", "half",
            "--out", str(est))
    half_raw = [l.split(",") for l in est.read_text().splitlines()
                if l.startswith("1,2")][0]
    assert int(float(half_raw[2])) == payload["class_sum"]


def test_equidist_deterministic(tmp_path):
    out = tmp_path / "a.json"
    run_cli("equidist", "--mode", "coprime", "--q", "4", "--u", "3/5",
            "--x", "50000", "--out", str(out))
    first = read_json(out)
    run_cli("equidist", "--mode", "coprime", "--q", "4", "--u", "3/5",
            "--x", "50000", "--out", str(out))
    assert drop_generated(first) == drop_generated(read_json(out))


def test_smoothed_and_psum_cli(tmp_path):
    out = tmp_path / "o.json"
    assert run_cli("smoothed", "--f", "one", "--x", "10000", "--u", "1/2",
                   "--m", "100", "--out", str(out)) == 0
    assert 0 < read_json(out)["value_re"] < 1
    assert run_cli("psum-check", "--f", "one", "--x", "10000", "--u", "1",
                   "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["rhs_re"] == 1.0
    assert payload["abs_difference"] < 0.01


def test_lattice_cli(tmp_path):
    out = tmp_path / "lat.csv"
    assert run_cli("lattice", "--R", "10000", "--grid", "half",
                   "--out", str(out)) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "u_num"))]
    total = [r for r in rows if (r[0], r[1]) == ("1", "1")][0]
    # Gauss circle: pi R + O(sqrt R)
    assert float(total[4]) == pytest.approx(1.0, abs=0.03)


def test_invert_and_compare_cli(tmp_path):
    out = tmp_path / "inv.json"
    assert run_cli("invert", "--f", "one", "--P", "10000", "--T", "50",
                   "--step", "0.05", "--points=-1.0,-0.5,-0.1",
                   "--out", str(out)) == 0
    pts = read_json(out)["points"]
    assert all(0 <= p["F"] <= 1 for p in pts)
    assert run_cli("compare", "--f", "one", "--x", "100000", "--P", "100000",
                   "--grid", "steps:20", "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["sup_distance"] < 0.1
    assert payload["budgets"]["empirical_x"] == 100000


def test_sieve_cache_cli(tmp_path, monkeypatch):
    out = tmp_path / "cache.json"
    cdir = tmp_path / "cache"
    with oracles.segment_size(65536):
        assert run_cli("sieve-cache", "--x", "100000", "--dir", str(cdir),
                       "--out", str(out)) == 0
        written = read_json(out)["written"]
        assert len(written) == 2
        est = tmp_path / "e1.csv"
        assert run_cli("estimate", "--f", "one", "--x", "100000", "--grid", "half",
                       "--out", str(est)) == 0
        monkeypatch.setenv("DDL_CACHE_DIR", str(cdir))
        est2 = tmp_path / "e2.csv"
        assert run_cli("estimate", "--f", "one", "--x", "100000", "--grid", "half",
                       "--out", str(est2)) == 0
    assert data_rows(est.read_text()) == data_rows(est2.read_text())


def test_sieve_cache_is_read(tmp_path, monkeypatch):
    # every sieving subcommand reads each segment a sieve-cache run wrote
    monkeypatch.setenv("DDL_CACHE_DIR", str(tmp_path / "cache"))
    reads = []
    real_read = read_segment_cache

    def counted_read(*args):
        sigma = real_read(*args)
        reads.append(sigma is not None)
        return sigma

    calls = [["estimate", "--f", "tau", "--x", "300000"],
             ["estimate", "--f", "tau", "--x", "300000", "--mode", "dtilde"],
             ["lattice", "--R", "300000"],
             ["equidist", "--mode", "omega", "--q", "3", "--u", "1/2", "--x", "300000"],
             ["equidist", "--mode", "coprime", "--q", "6", "--u", "1/2", "--x", "300000"],
             ["smoothed", "--f", "tau", "--x", "300000", "--u", "1/2", "--m", "100"],
             ["psum-check", "--f", "mu", "--x", "300000", "--u", "1/2"],
             ["compare", "--f", "one", "--x", "300000", "--P", "1000"]]
    with oracles.segment_size(65536):
        assert run_cli("sieve-cache", "--x", "300000", "--out", os.devnull) == 0
        monkeypatch.setattr("ddl.sieve.read_segment_cache", counted_read)
        for argv in calls:
            reads.clear()
            assert run_cli(*argv, "--out", os.devnull) == 0
            assert (reads.count(True), reads.count(False)) == (5, 0), argv


def test_sieve_cache_sieves_instead_of_copying(tmp_path, monkeypatch):
    # a damaged file with a valid header and the right length in the
    # DDL_CACHE_DIR directory must not end up in the new cache
    x = 10 ** 6
    expect = sigma_table(x)[1:x + 1]
    old, new = tmp_path / "old", tmp_path / "new"
    write_segment_cache(old, 1, x, np.zeros(x, dtype=np.int64))
    monkeypatch.setenv("DDL_CACHE_DIR", str(old))
    assert run_cli("sieve-cache", "--x", str(x), "--dir", str(new),
                   "--out", str(tmp_path / "w.json")) == 0
    assert np.array_equal(read_segment_cache(new, 1, x), expect)


def exit_code(*argv):
    """Exit code of a CLI call, whether main returns it or argparse exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run_cli("estimate", "--f", "nonexistent", "--x", "100") == 2
    assert "unknown catalog id" in capsys.readouterr().err
    assert run_cli("estimate", "--f", "one", "--x", "100", "--grid", "bogus;;") == 2
    assert run_cli("estimate", "--f", "one", "--x", "4000000001") == 3
    assert run_cli("lattice", "--R", "4000000001") == 3
    assert run_cli("lattice", "--R", "0") == 2
    assert run_cli("estimate", "--f", "mu", "--x", "100", "--mode", "dtilde") == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("estimate", "--x", "100")  # missing --f
    assert exc.value.code == 2
    # bad numbers give exit 2, never a traceback or a silent default
    est = ("estimate", "--f", "one", "--x")
    assert exit_code(*est, "inf") == 2
    assert exit_code(*est, "1e400") == 2
    assert exit_code(*est, "100", "--segment-size", "0") == 2
    assert exit_code(*est, "100", "--workers", "0") == 2
    assert exit_code(*est, "100", "--workers", "-2") == 2
    psi = ("analytic", "psi", "--f", "one", "--P", "100", "--t")
    assert exit_code(*psi, "bogus") == 2
    assert exit_code(*psi, "linspace:0,1,-5") == 2
    assert exit_code(*psi, "0,nan") == 2
    assert exit_code("invert", "--f", "one", "--P", "100", "--points", "bogus") == 2
    assert exit_code("invert", "--f", "one", "--P", "100", "--step", "0") == 2
    assert exit_code("compare", "--f", "one", "--x", "100", "--P", "100", "--step", "0") == 2
    for T, step in (("nan", "0.05"), ("inf", "0.05"), ("200", "nan"), ("200", "-0.05")):
        assert exit_code("invert", "--f", "one", "--P", "100", "--T", T, "--step", step) == 2
    # T need not be a multiple of the step: the grid stops at floor(T/step)*step
    for T, step in (("10", "0.6"), ("100", "0.06")):
        assert exit_code("invert", "--f", "one", "--P", "100", "--T", T, "--step", step) == 0
        assert exit_code("compare", "--f", "one", "--x", "1000", "--P", "100",
                         "--T", T, "--step", step) == 0
    for beta in ("nan", "inf"):
        assert exit_code("analytic", "halasz", "--f", "mu", "--beta", beta, "--P", "100") == 2
    for spec in ("lfree:l=2.5", "lambda:a=1.5,q=3", "principal_character:q=6.5"):
        assert exit_code("estimate", "--f", spec, "--x", "100") == 2
    assert exit_code("analytic", "mean", "--f", "phi_over_n_pow:re=nan,im=0", "--P", "100") == 2
    # a modulus whose tally would not fit in memory is refused before allocating
    assert exit_code("equidist", "--mode", "omega", "--q", "100000000000",
                     "--u", "1/2", "--x", "100") == 3
    # a bad grid or threshold is refused with its own reason, never a traceback,
    # terms past 64 bits included
    capsys.readouterr()
    huge = "1" + "0" * 23
    for spec, reason in (("1/2,1/3", "strictly increasing"), ("3/2", "outside [0, 1]"),
                         ("1/2000000", "over the 1000000 cap"),
                         (f"{int(huge) - 1}/{huge}", "past 64 bits")):
        assert exit_code("estimate", "--f", "one", "--x", "100", "--grid", spec) == 2
        assert reason in capsys.readouterr().err
    assert exit_code("equidist", "--mode", "omega", "--q", "3", "--u", f"1/{huge}",
                     "--x", "100") == 2
    assert exit_code("psum-check", "--f", "one", "--u", f"1/{huge}", "--x", "100") == 2
    assert capsys.readouterr().err.count("past 64 bits") == 2
    # a grid without a threshold u > 0 leaves nothing to compare: refused before the sieve
    def unreachable(*args, **kwargs):
        raise AssertionError("estimate_weighted_cdf called before the grid was checked")
    monkeypatch.setattr("ddl.cli.estimate_weighted_cdf", unreachable)
    assert exit_code("compare", "--f", "one", "--x", "1000", "--P", "100", "--grid", "0") == 2


def test_oversized_requests_refused_before_allocating():
    # the calls run in a child whose address space is capped at 3 GiB, so a
    # refusal that came after its allocation would end in a MemoryError
    calls = [["analytic", "mean", "--f", "one", "--P", "1e11"],
             ["analytic", "kappa", "--f", "one", "--x", "1e11"],
             ["analytic", "witness", "--f", "one", "--v", "0", "--u", "1/2",
              "--p-cap", "1e11"],
             ["invert", "--f", "one", "--P", "100", "--T", "1e10"],
             ["invert", "--f", "one", "--P", "100", "--step", "1e-6"],
             ["invert", "--f", "one", "--P", "100", "--points", "linspace:-1,0,100000000000"],
             # 10^6 points x 4000 nodes: two 32 GB matrices
             ["invert", "--f", "one", "--P", "100", "--points", "linspace:-1,-0.01,1000000"],
             ["compare", "--f", "one", "--x", "100", "--P", "100", "--T", "1e10"],
             ["compare", "--f", "one", "--x", "1000", "--P", "100", "--grid", "steps:1000000"],
             ["analytic", "psi", "--f", "one", "--P", "100",
              "--t", "linspace:0,1,100000000000"]]
    # a grid of 10^12 + 1 thresholds, whose denominators pass the cap, is bad input
    invalid = [["estimate", "--f", "one", "--x", "100", "--grid", "steps:1000000000000"]]
    script = ("import json, os, resource, sys\n"
              "from ddl.cli import main\n"
              "cap, hard = 3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
              "if hard != resource.RLIM_INFINITY:\n"
              "    cap = min(cap, hard)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
              "print(json.dumps([main(c + ['--out', os.devnull]) for c in json.loads(sys.argv[1])]))")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls + invalid)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [3] * len(calls) + [2] * len(invalid)
    assert proc.stderr.count("resource refusal") == len(calls)


def test_invert_points_validated_before_product(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("char_function called before --points was validated")
    monkeypatch.setattr("ddl.cli.char_function", unreachable)
    assert run_cli("invert", "--f", "one", "--P", "1e6", "--points", "bogus",
                   "--out", os.devnull) == 2


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "ddl.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ddl" in proc.stdout


def test_workers_flag_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with oracles.segment_size(65536):
        run_cli("estimate", "--f", "mu", "--x", "300000", "--out", str(a))
        run_cli("estimate", "--f", "mu", "--x", "300000", "--workers", "4", "--out", str(b))
        assert data_rows(a.read_text()) == data_rows(b.read_text())
        for workers in ("1", "2"):
            assert run_cli("sieve-cache", "--x", "300000", "--workers", workers,
                           "--dir", str(tmp_path / f"w{workers}"),
                           "--out", str(tmp_path / f"w{workers}.json")) == 0
    files = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert len(files) == 5
    for name in files:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_traced_benchmark_call(tmp_path):
    # the benchmark's tracer wraps library functions by name; a rename
    # must break this test rather than the traced benchmark
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "tracing.py"), str(spans),
                           "estimate", "--f", "one", "--x", "1e4",
                           "--out", str(tmp_path / "est.csv")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["spans"]
    assert trace["counts"]["sieve.passes"] == 1

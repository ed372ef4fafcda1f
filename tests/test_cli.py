"""CLI surface: schemas, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ddl import cli
from ddl.cli import main
from ddl.analytic import char_function
from ddl.empirical import ThresholdGrid, WeightedCdfEstimate, estimate_weighted_cdf
from ddl.inversion import DEFAULT_STEP, _quadrature_grid, invert
from ddl.multfunc import CatalogError, make, parse_spec
from ddl.sieve import read_segment_cache, sigma_table, write_segment_cache

import oracles


def run_cli(*argv):
    return main(list(argv))


def strict_json(text: str):
    """json.loads refusing the tokens NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def read_json(path):
    return strict_json(path.read_text())


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
    # each listed entry's params are exactly the names make accepts
    valid = {"l": 3, "re": 0.5, "im": 0.0, "a": 1, "q": 3}
    for e in entries:
        params = {k: valid[k] for k in e["params"]}
        inner = ",".join(f"{k}={v}" for k, v in params.items())
        assert parse_spec(f"{e['id']}:{inner}" if inner else e["id"]).id == e["id"]
        for k in params:
            with pytest.raises(CatalogError, match="needs parameters"):
                make(e["id"], **{n: v for n, v in params.items() if n != k})
        with pytest.raises(CatalogError, match="does not take parameters"):
            make(e["id"], **params, extra=1)
    # descriptors hash by identity, and the value dtype follows complex_valued
    assert isinstance(hash(parse_spec("lambda:a=1,q=3")), int)
    assert parse_spec("tau").dtype == np.float64
    assert parse_spec("lambda:a=1,q=3").dtype == np.complex128


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


# one call of every subcommand; "{tmp}" is the test's temporary directory
EVERY_SUBCOMMAND = {
    "catalog": ["catalog"],
    "sieve-cache": ["sieve-cache", "--x", "3000", "--dir", "{tmp}/cache"],
    "estimate-csv": ["estimate", "--f", "tau", "--x", "20000", "--grid", "steps:10"],
    "estimate-json": ["estimate", "--f", "r", "--x", "3000", "--mode", "dtilde",
                      "--format", "json"],
    "lattice": ["lattice", "--R", "3000", "--grid", "half"],
    "equidist": ["equidist", "--mode", "coprime", "--q", "4", "--u", "3/5", "--x", "50000"],
    "smoothed": ["smoothed", "--f", "one", "--x", "3000", "--u", "1/2", "--m", "10"],
    "psum-check": ["psum-check", "--f", "mu", "--x", "3000", "--u", "1/2"],
    "analytic-mean": ["analytic", "mean", "--f", "phi_over_n", "--P", "1000"],
    "analytic-wirsing": ["analytic", "wirsing", "--f", "one", "--x", "3000"],
    "analytic-psi": ["analytic", "psi", "--f", "one", "--t", "linspace:0,5,11", "--P", "1000"],
    "analytic-kappa": ["analytic", "kappa", "--f", "tau", "--x", "3000"],
    "analytic-halasz": ["analytic", "halasz", "--f", "mu", "--beta", "1", "--P", "1000"],
    "analytic-jumps": ["analytic", "jumps", "--f", "r", "--P", "1000"],
    "analytic-witness": ["analytic", "witness", "--f", "one", "--v", "2/5", "--u", "1/2"],
    "invert": ["invert", "--f", "one", "--P", "1000", "--T", "20"],
    "compare": ["compare", "--f", "one", "--x", "3000", "--P", "1000", "--grid", "steps:20"],
}


@pytest.mark.parametrize("name", EVERY_SUBCOMMAND)
def test_output_repeatable_with_meta(tmp_path, name):
    # main writes every output: the same call gives the same file apart from
    # `generated`, and every JSON output carries the whole metadata header
    argv = [a.replace("{tmp}", str(tmp_path)) for a in EVERY_SUBCOMMAND[name]]
    out, texts = tmp_path / "out", []
    for _ in range(2):
        assert run_cli(*argv, "--out", str(out)) == 0
        texts.append(out.read_text())
    if texts[0].startswith("#"):  # estimate CSV
        assert strip_generated(texts[0]) == strip_generated(texts[1])
        assert texts[0].count("# generated:") == 1
        return
    first, second = strict_json(texts[0]), strict_json(texts[1])
    assert drop_generated(first) == drop_generated(second)
    assert {"tool", "version", "config", "generated"} <= first["meta"].keys()


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
    # a gnuplot script plots a CSV file: JSON and stdout are refused, and nothing is written
    for cmd in (("estimate", "--f", "one", "--x", "500"), ("lattice", "--R", "500")):
        assert run_cli(*cmd, "--gnuplot", "--format", "json", "--out", str(outj)) == 2
        assert run_cli(*cmd, "--gnuplot") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv", "est.csv.gp", "est.json"]
    # a quote in the path is doubled, gnuplot's escape within single quotes
    quoted = tmp_path / "it's.csv"
    assert run_cli("estimate", "--f", "one", "--x", "500", "--grid", "half",
                   "--gnuplot", "--out", str(quoted)) == 0
    path = str(quoted).replace("'", "''")
    assert f"plot '{path}' using" in (tmp_path / "it's.csv.gp").read_text()


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
    assert read_json(out)["primes"] == [2, 3]
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
    # flags that no longer exist are refused, never ignored
    assert exit_code(*est, "100", "--segment-size", "0") == 2
    assert exit_code(*est, "100", "--workers", "0") == 2
    assert exit_code(*est, "100", "--workers", "-2") == 2
    psi = ("analytic", "psi", "--f", "one", "--P", "100", "--t")
    assert exit_code(*psi, "bogus") == 2
    assert exit_code(*psi, "linspace:0,1,-5") == 2
    assert exit_code(*psi, "linspace:0,1,0") == 2
    assert exit_code(*psi, "0,nan") == 2
    assert exit_code("invert", "--f", "one", "--P", "100", "--points", "bogus") == 2
    assert exit_code("invert", "--f", "one", "--P", "100", "--points", "linspace:-1,0,0") == 2
    assert exit_code("invert", "--f", "one", "--P", "100", "--step", "0") == 2
    assert exit_code("compare", "--f", "one", "--x", "100", "--P", "100", "--step", "0") == 2
    for T, step in (("nan", "0.05"), ("inf", "0.05"), ("200", "nan"), ("200", "-0.05")):
        assert exit_code("invert", "--f", "one", "--P", "100", "--T", T, "--step", step) == 2
    # T need not be a multiple of the step: the grid stops at floor(T/step)*step
    for T, step in (("10", "0.6"), ("100", "0.06")):
        assert exit_code("invert", "--f", "one", "--P", "100", "--T", T, "--step", step) == 0
        assert exit_code("compare", "--f", "one", "--x", "1000", "--P", "100",
                         "--T", T, "--step", step) == 0
    for beta in ("nan", "inf", "1e308"):  # 1e308 * log 100 is past the float range
        assert exit_code("analytic", "halasz", "--f", "mu", "--beta", beta, "--P", "100") == 2
    # a finite t whose cumulant cut is past the float range takes every prime
    # exactly; its infinite tail bound is written as null, strict JSON
    psi = tmp_path / "psi.json"
    assert exit_code("analytic", "psi", "--f", "one", "--t", "1e308", "--P", "100",
                     "--out", str(psi)) == 0
    point = read_json(psi)["points"][0]
    assert abs(complex(point["re"], point["im"])) <= 1
    assert point["tail_bound"] is None
    # an --out in a missing directory, or naming one, is refused before the handler runs
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "x.csv")
    assert exit_code("estimate", "--f", "one", "--x", "100", "--out", missing) == 2
    assert exit_code("analytic", "mean", "--f", "one", "--P", "100", "--out", missing) == 2
    assert capsys.readouterr().err.count("does not exist") == 2
    assert exit_code("catalog", "--out", str(tmp_path)) == 2
    assert "is a directory" in capsys.readouterr().err
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
        raise AssertionError("estimate_normalized_cdf called before the grid was checked")
    monkeypatch.setattr("ddl.cli.estimate_normalized_cdf", unreachable)
    assert exit_code("compare", "--f", "one", "--x", "1000", "--P", "100", "--grid", "0") == 2


def null_non_finite(obj):
    """A copy of obj with each non-finite float set to None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [null_non_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def plain_json(payload: dict) -> str:
    """A payload's JSON built the plain way: one dict per row, non-finite
    floats set to None, and json.dumps over the whole payload."""
    return json.dumps(null_non_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def reference_estimate_json(est, meta) -> str:
    rows = [{"u_num": num, "u_den": den, "raw_re": r.real, "raw_im": r.imag,
             "value_re": v.real, "value_im": v.imag}
            for num, den, r, v in zip(est.grid.nums.tolist(), est.grid.dens.tolist(),
                                      est.raw, est.values)]
    return plain_json({"mode": est.mode, "normalizer": est.normalizer, "rows": rows,
                       "meta": meta})


def test_estimate_json_written_row_by_row(tmp_path, monkeypatch):
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--f", "one", "--x", "1000", "--grid", "steps:1000",
                   "--format", "json", "--out", str(out)) == 0
    text = out.read_text()
    est = estimate_weighted_cdf(make("one"), 1000, ThresholdGrid.parse("steps:1000"))
    assert text == reference_estimate_json(est, strict_json(text)["meta"])
    # rows across blocks, complex values, -0.0 and the non-finite floats, written as null
    monkeypatch.setattr(cli, "_ROW_BLOCK", 7)

    def emitted(result) -> str:
        cli._emit(result, argparse.Namespace(format="json", out=str(out), gnuplot=False), 0.0)
        return out.read_text()

    text = emitted(est)
    assert text == reference_estimate_json(est, strict_json(text)["meta"])
    grid = ThresholdGrid.parse("steps:20")
    raw = np.linspace(-3, 3, 21) + 1j * np.linspace(2, -2, 21)
    raw[[2, 5, 9, 15]] = [np.nan, np.inf + 1j, -np.inf * 1j, complex(-0.0, -0.0)]
    for normalizer in (7.5, math.inf):
        odd = WeightedCdfEstimate("one", 20, grid, raw, normalizer, "df")
        with np.errstate(invalid="ignore"):
            text = emitted(odd)
            assert text == reference_estimate_json(odd, strict_json(text)["meta"])
    # a table whose key does not sort last: invert's "points" come before "slack_exceeded"
    assert run_cli("invert", "--f", "one", "--P", "1000", "--T", "20", "--out", str(out)) == 0
    text = out.read_text()
    points = ThresholdGrid.default().log_points()[1]
    ts = _quadrature_grid(20, DEFAULT_STEP, points.size)
    inv = invert(char_function(make("one"), ts, 1000), points, T=20)
    assert text == plain_json({
        "T": inv.T, "step": inv.step, "eps": inv.eps, "P": 1000,
        "isotonic_changed": inv.isotonic_changed, "slack_exceeded": inv.slack_exceeded,
        "points": [{"x": float(p), "F": float(v), "raw": float(r)}
                   for p, v, r in zip(inv.points, inv.values, inv.raw)],
        "meta": strict_json(text)["meta"]})


def test_analytic_memory_does_not_grow_with_P():
    # peak resident memory of `analytic mean` in a child process, at P a
    # decade apart: the primes stream by segment, so the peaks agree
    script = ("import os, resource, sys\n"
              "from ddl.cli import main\n"
              "main(['analytic', 'mean', '--f', 'one', '--P', sys.argv[1], '--out', os.devnull])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    peaks_mb = [int(subprocess.run([sys.executable, "-c", script, P], env=env, check=True,
                                   capture_output=True, text=True, timeout=120).stdout) / 1024
                for P in ("5e6", "5e7")]
    assert abs(peaks_mb[1] - peaks_mb[0]) < 3.0, peaks_mb


def test_table_memory_grows_with_its_rows_only():
    # peak resident memory of `invert` and `equidist` in child processes, at
    # 10^4 and 2 x 10^5 table rows: the rows are written a block at a time,
    # so the peak grows by the table's arrays, not by a dict or a line per row
    script = ("import os, resource, sys\n"
              "from ddl.cli import main\n"
              "assert main(sys.argv[1:] + ['--out', os.devnull]) == 0\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("DDL_CACHE_DIR", None)

    def peak_mb(*argv):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        return int(proc.stdout) / 1024

    invert = ["invert", "--f", "one", "--P", "100", "--T", "200", "--step", "50", "--points"]
    equidist = ["equidist", "--mode", "coprime", "--u", "1/2", "--x", "1e5", "--q"]
    for argv, sizes in ((invert, ("linspace:-5,-0.001,10000", "linspace:-5,-0.001,200000")),
                        (equidist, ("10007", "200003"))):  # prime moduli: q - 1 classes
        peaks = [peak_mb(*argv, size) for size in sizes]
        assert peaks[1] - peaks[0] <= 40.0, (argv[0], peaks)


def test_reader_leaving_early_is_not_an_error():
    # `ddl ... | head`: the output streams a block at a time, and a reader that
    # closes stdout before the end is not an error; nothing goes to stderr
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["analytic", "psi", "--f", "one", "--P", "100", "--t", "linspace:0,1,100000"]
    proc = subprocess.Popen([sys.executable, "-m", "ddl.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "P": 1'
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""


def test_large_witness_written_as_primes(tmp_path):
    # m has 14,490 bits, past the 4,300 digits Python converts to a decimal string
    out = tmp_path / "w.json"
    v, u = Fraction(9, 100), Fraction(1, 10)
    assert run_cli("analytic", "witness", "--f", "one", "--v", str(v), "--u", str(u),
                   "--p-cap", "1e6", "--out", str(out)) == 0
    payload = read_json(out)
    primes = payload["primes"]
    assert payload["found"] is True and primes == sorted(set(primes))
    m, sigma = math.prod(primes), math.prod(p + 1 for p in primes)
    assert m.bit_length() > 14_000
    assert v < Fraction(m, sigma) <= u


def test_compare_normalizes_the_estimate(tmp_path):
    # psi is the law of a total mass 1, so compare uses the self-normalized
    # estimate; for r and phi_over_n the gap stays within the inversion's slack
    out = tmp_path / "cmp.json"
    for spec in ("r", "phi_over_n"):
        assert run_cli("compare", "--f", spec, "--x", "1e6", "--P", "1e6",
                       "--out", str(out)) == 0
        payload = read_json(out)
        assert payload["sup_distance"] <= payload["budgets"]["inverted_eps"] == 0.02, spec


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


def test_traced_benchmark_call(tmp_path):
    # the benchmark's tracer wraps library functions by name; a rename, or a
    # call that bypasses a traced name, must break this test rather than the
    # traced benchmark: its counters on one uncached and one cached scan
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("DDL_CACHE_DIR", None)
    cache = tmp_path / "cache"
    assert run_cli("sieve-cache", "--x", "3000", "--dir", str(cache),
                   "--out", str(tmp_path / "written.json")) == 0

    def traced(f, **extra_env):
        spans = tmp_path / f"spans_{f}.json"
        proc = subprocess.run([sys.executable, str(root / "benchmarks" / "tracing.py"), str(spans),
                               "estimate", "--f", f, "--x", "3000",
                               "--out", str(tmp_path / f"est_{f}.csv")],
                              cwd=root, env={**env, **extra_env}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(spans.read_text())
        names = {span[0] for span in trace["spans"]}
        assert {"cli.main", "sieve.primes_up_to", "sieve.scan_step"} <= names, names
        return trace["counts"]

    plain = traced("one")
    assert (plain["sieve.passes"], plain["sieve.n_scanned"]) == (1, 3000)
    assert (plain["sieve.cache_hits"], plain["sieve.cache_misses"]) == (0, 0)
    cached = traced("tau", DDL_CACHE_DIR=str(cache))
    assert (cached["sieve.passes"], cached["sieve.n_scanned"]) == (1, 3000)
    assert (cached["sieve.cache_hits"], cached["sieve.cache_misses"]) == (1, 0)

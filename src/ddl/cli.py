"""Command-line entry point.

Every subcommand validates its flags, runs a deterministic computation and
returns its result.  `main` writes that result once, to `--out` or stdout,
with a small metadata header (tool version, config echo, timestamp and wall
time): a WeightedCdfEstimate as CSV (or JSON with `--format json`), anything
else as JSON.  Repeated runs with the same flags produce identical files
except for the generated-at line, which is isolated in the metadata.
Exit codes: 0 success, 2 validation error (an `--out` that is a directory
or lies in a missing one, and a `--gnuplot` without a CSV file, are refused
before any work), 3 resource refusal.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .multfunc import CatalogError, catalog_entries, parse_spec
from .sieve import ResourceLimitError, SieveError, scan_segments, write_segment_cache
from .empirical import (GridError, ThresholdGrid, WeightedCdfEstimate, equidist_tally,
                        estimate_normalized_cdf, estimate_weighted_cdf,
                        lattice_circle_cdf, partial_summation_check,
                        smoothed_indicator_mean)
from .analytic import (WitnessNotFound, char_function, continuity_diagnostic,
                       greedy_witness, halasz_series, mean_value_product,
                       mertens_kappa, wirsing_prediction)
from .inversion import (DEFAULT_STEP, DEFAULT_T, InversionError, _quadrature_grid,
                        _t_nodes, invert, sup_distance)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

# The sigma cache directory read by every sieving subcommand and written by
# sieve-cache when --dir is not given.  The library itself reads no
# environment: it uses a cache only when passed cache_dir.
CACHE_ENV_VAR = "DDL_CACHE_DIR"


def _int_arg(s: str) -> int:
    """Integer flag accepting scientific notation like 1e7."""
    try:
        return int(s)
    except ValueError:
        v = float(s)
        if not math.isfinite(v) or v != int(v):
            raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
        return int(v)


def _fraction_arg(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{s!r} is not a fraction")


def _parse_t_spec(spec: str) -> np.ndarray:
    """Parsed in the handler, so the flag is echoed as given; a bad spec
    raises ValueError, which main reports with exit code 2, and a linspace
    over the node cap ResourceLimitError (exit code 3)."""
    try:
        if spec.startswith("linspace:"):
            a, b, n = spec.split(":", 1)[1].split(",")
            ts = np.linspace(float(a), float(b), _t_nodes(int(n)))
        else:
            ts = np.array([float(v) for v in spec.split(",")])
        if np.all(np.isfinite(ts)):
            return ts
    except ResourceLimitError:
        raise
    except ValueError:
        pass
    raise ValueError(f"bad t spec {spec!r}: want a comma list or linspace:a,b,n of finite values")


def _meta(args: argparse.Namespace, t0: float) -> dict:
    config = {k: (str(v) if isinstance(v, (Fraction, Path)) else v)
              for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "tool": "ddl",
        "version": __version__,
        "config": config,
        "generated": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round(time.monotonic() - t0, 3),
        },
    }


def _write(parts, out: str | None):
    """Write the strings of parts, in order, to out or stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _estimate_csv(est, meta: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# ddl v{meta['version']} {est.mode}\n")
    buf.write(f"# config: {json.dumps(meta['config'], sort_keys=True)}\n")
    buf.write(f"# normalizer: {est.normalizer:.12g}\n")
    gen = meta["generated"]
    buf.write(f"# generated: {gen['timestamp']} wall={gen['wall_time_s']}s\n")
    buf.write("u_num,u_den,raw_re,raw_im,value_re,value_im\n")
    for num, den, r, v in zip(est.grid.nums.tolist(), est.grid.dens.tolist(),
                              est.raw, est.values):
        buf.write(f"{num},{den},{r.real:.12g},{r.imag:.12g},"
                  f"{v.real:.12g},{v.imag:.12g}\n")
    return buf.getvalue()


# An estimate's JSON rows are formatted this many at a time.
_JSON_ROW_BLOCK = 1 << 14
_JSON_ROW = ('    {{\n      "raw_im": {},\n      "raw_re": {},\n      "u_den": {},\n'
             '      "u_num": {},\n      "value_im": {},\n      "value_re": {}\n    }}')


def _estimate_json(est, meta: dict):
    """The text of json.dumps({"meta", "mode", "normalizer", "rows"},
    indent=2, sort_keys=True) with non-finite floats as null, in parts and
    without a dict per row: "rows" sorts last, so the rest is dumped with an
    empty list and the rows, written a block at a time, go in its place."""
    head = {"meta": meta, "mode": est.mode, "normalizer": est.normalizer, "rows": []}
    _null_non_finite(head)
    text = json.dumps(head, indent=2, sort_keys=True, allow_nan=False)
    yield text[:-len("]\n}")]  # a grid holds at least one threshold

    def num(v: float) -> str:
        return repr(v) if math.isfinite(v) else "null"

    for a in range(0, est.raw.size, _JSON_ROW_BLOCK):
        b = a + _JSON_ROW_BLOCK
        raw, values = est.raw[a:b], est.raw[a:b] / est.normalizer
        cols = (raw.imag.tolist(), raw.real.tolist(), est.grid.dens[a:b].tolist(),
                est.grid.nums[a:b].tolist(), values.imag.tolist(), values.real.tolist())
        yield ("\n" if a == 0 else ",\n") + ",\n".join(
            _JSON_ROW.format(num(ri), num(rr), den, nu, num(vi), num(vr))
            for ri, rr, den, nu, vi, vr in zip(*cols))
    yield "\n  ]\n}\n"


def _check_output(args):
    """Refuse an output that cannot be written, before any work is done."""
    if args.out and not Path(args.out).parent.is_dir():
        raise ValueError(f"--out: directory {Path(args.out).parent} does not exist")
    if args.out and Path(args.out).is_dir():
        raise ValueError(f"--out: {args.out} is a directory")
    if getattr(args, "gnuplot", False) and (args.format == "json" or not args.out):
        raise ValueError("--gnuplot plots a CSV file: it needs --out and --format csv")


def _null_non_finite(obj: dict | list):
    """Set each non-finite float in obj and the dicts and lists it holds to
    None, which JSON writes as null, as JavaScript's JSON.stringify does:
    strict JSON has no Infinity or NaN.  In place, as a copy of the payload
    would add to the process's peak memory."""
    for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(v, (dict, list)):
            _null_non_finite(v)
        elif isinstance(v, float) and not math.isfinite(v):
            obj[k] = None


def _emit(result, args, t0):
    """Write a handler's result, with its metadata, to --out or stdout."""
    meta = _meta(args, t0)
    if isinstance(result, WeightedCdfEstimate):
        if args.format == "csv":
            _write([_estimate_csv(result, meta)], args.out)
            if args.gnuplot:
                path = args.out.replace("'", "''")  # gnuplot's escape within single quotes
                Path(args.out + ".gp").write_text(
                    "set datafile separator ','\n"
                    f"set title 'ddl {result.mode} {result.f_id}'\n"
                    "set xlabel 'u'\nset ylabel 'value'\n"
                    f"plot '{path}' using ($1/$2):5 with lines title 'value'\n")
            return
        _write(_estimate_json(result, meta), args.out)
        return
    payload = {**result, "meta": meta}
    _null_non_finite(payload)
    _write([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"], args.out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_catalog(args):
    return {"entries": catalog_entries()}


def _cmd_sieve_cache(args):
    cache_dir = args.dir or _cache_dir()
    if not cache_dir:
        raise SieveError(f"no cache directory: pass --dir or set {CACHE_ENV_VAR}")
    written = []
    # sieves every segment: an existing cache is never copied into a new one
    for chunk in scan_segments(args.x):
        written.append(str(write_segment_cache(cache_dir, chunk.lo, chunk.hi, chunk.sigma)))
    return {"written": written}


def _cache_dir():
    return os.environ.get(CACHE_ENV_VAR) or None


def _cmd_estimate(args):
    f = parse_spec(args.f)
    grid = ThresholdGrid.parse(args.grid)
    fn = estimate_weighted_cdf if args.mode == "df" else estimate_normalized_cdf
    return fn(f, args.x, grid, cache_dir=_cache_dir())


def _cmd_lattice(args):
    grid = ThresholdGrid.parse(args.grid)
    return lattice_circle_cdf(args.R, grid, cache_dir=_cache_dir())


def _cmd_equidist(args):
    tally = equidist_tally(args.mode, args.q, args.u, args.x, cache_dir=_cache_dir())
    return {
        "mode": tally.mode, "q": tally.q,
        "u": {"num": tally.u.numerator, "den": tally.u.denominator},
        "x": tally.x,
        "classes": [{"label": int(lab), "count": int(c), "density": float(c) / tally.x}
                    for lab, c in zip(tally.labels, tally.counts)],
        "qualifying_total": tally.qualifying_total,
        "class_sum": int(tally.counts.sum()),
    }


def _cmd_smoothed(args):
    f = parse_spec(args.f)
    val = smoothed_indicator_mean(f, args.x, args.u, args.m, cache_dir=_cache_dir())
    return {"value_re": val.real, "value_im": val.imag}


def _cmd_psum_check(args):
    f = parse_spec(args.f)
    lhs, rhs = partial_summation_check(f, args.x, args.u, cache_dir=_cache_dir())
    return {"lhs_re": lhs.real, "lhs_im": lhs.imag,
            "rhs_re": rhs.real, "rhs_im": rhs.imag,
            "abs_difference": abs(lhs - rhs)}


def _op_mean(args):
    res = mean_value_product(parse_spec(args.f), args.P)
    return {"value_re": res.value.real, "value_im": res.value.imag,
            "P": res.P, "tail_bound": res.tail_bound}


def _op_wirsing(args):
    return {"prediction": wirsing_prediction(parse_spec(args.f), args.x, args.P),
            "x": args.x, "P": args.P}


def _op_psi(args):
    prof = char_function(parse_spec(args.f), _parse_t_spec(args.t), args.P)
    return {"P": prof.P,
            "points": [{"t": float(t), "re": v.real, "im": v.imag, "tail_bound": float(b)}
                       for t, v, b in zip(prof.ts, prof.values, prof.tail_bounds)]}


def _op_kappa(args):
    f = parse_spec(args.f)
    weighted, recip = mertens_kappa(f, args.x)
    return {"weighted_logsum_ratio": weighted, "reciprocal_sum": recip,
            "claimed_kappa": f.kappa, "x": args.x}


def _op_halasz(args):
    return {"series": halasz_series(parse_spec(args.f), args.beta, args.P),
            "beta": args.beta, "P": args.P}


def _op_jumps(args):
    return {"diagnostic": continuity_diagnostic(parse_spec(args.f), args.P), "P": args.P}


def _op_witness(args):
    f = parse_spec(args.f)
    try:
        return {"found": True, "m": greedy_witness(f, args.v, args.u, args.p_cap)}
    except WitnessNotFound as exc:
        return {"found": False, "reason": str(exc)}


def _invert_points(spec: str) -> np.ndarray:
    if spec == "log-default":
        return ThresholdGrid.default().log_points()[1]
    return np.sort(_parse_t_spec(spec))


def _cmd_invert(args):
    f = parse_spec(args.f)
    points = _invert_points(args.points)
    ts = _quadrature_grid(args.T, args.step, points.size)  # all refusals come before the product
    inv = invert(char_function(f, ts, args.P), points, T=args.T, step=args.step)
    return {"T": inv.T, "step": inv.step, "eps": inv.eps, "P": args.P,
            "isotonic_changed": inv.isotonic_changed, "slack_exceeded": inv.slack_exceeded,
            "points": [{"x": float(p), "F": float(v), "raw": float(r)}
                       for p, v, r in zip(inv.points, inv.values, inv.raw)]}


def _cmd_compare(args):
    f = parse_spec(args.f)
    grid = ThresholdGrid.parse(args.grid)
    _, logs = grid.log_points()
    ts = _quadrature_grid(args.T, args.step, logs.size)  # all refusals come before the sieve runs
    if logs.size == 0:
        raise GridError("compare needs a grid with a threshold u > 0")
    est = estimate_weighted_cdf(f, args.x, grid, cache_dir=_cache_dir())
    prof = char_function(f, ts, args.P)
    inv = invert(prof, logs, T=args.T, step=args.step)
    cmpres = sup_distance(est, inv)
    budgets = {"empirical_x": cmpres.empirical_x, "inverted_eps": cmpres.inverted_eps,
               "T": cmpres.T, "step": cmpres.step, "profile_P": args.P,
               "max_profile_tail": float(np.max(prof.tail_bounds))}
    return {"sup_distance": cmpres.sup_distance, "at_log_point": cmpres.at_point,
            "budgets": budgets}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# flag specs that several subcommands share
_F = ("--f", {"required": True})
_X = ("--x", {"type": _int_arg, "required": True})
_P = ("--P", {"type": _int_arg, "required": True})
_U = ("--u", {"type": _fraction_arg, "required": True})
_GRID = ("--grid", {"default": "default"})
_PLOT = (("--format", {"choices": ("csv", "json"), "default": "csv"}),
         ("--gnuplot", {"action": "store_true"}))
_QUADRATURE = (("--T", {"type": float, "default": DEFAULT_T}),
               ("--step", {"type": float, "default": DEFAULT_STEP}))

# subcommand -> (handler, help, flags), in help order.  Each parser gets the
# --out that main's writer reads, then its own flags.  A table in place of a
# handler is a level of subcommands, whose choice lands in "<name>_op"; the
# analytic ops have no help line.
COMMANDS = {
    "catalog": (_cmd_catalog, "list the multiplicative-function catalog", ()),
    "sieve-cache": (_cmd_sieve_cache, "precompute binary sigma caches",
                    (_X, ("--dir", {"help": f"cache directory (default: {CACHE_ENV_VAR})"}))),
    "estimate": (_cmd_estimate, "weighted distribution of n/sigma(n)",
                 (_F, _X, ("--mode", {"choices": ("df", "dtilde"), "default": "df"}),
                  _GRID, *_PLOT)),
    "lattice": (_cmd_lattice, "two-squares lattice-point distribution",
                (("--R", {"type": _int_arg, "required": True}), _GRID, *_PLOT)),
    "equidist": (_cmd_equidist, "equidistribution tallies of qualifying n",
                 (("--mode", {"choices": ("omega", "coprime"), "required": True}),
                  ("--q", {"type": int, "required": True}), _U, _X)),
    "smoothed": (_cmd_smoothed, "tent-smoothed indicator mean",
                 (_F, _X, _U, ("--m", {"type": int, "required": True}))),
    "psum-check": (_cmd_psum_check, "partial-summation identity check",
                   (_F, _X, _U)),
    "analytic": ({
        "mean": (_op_mean, None, (_F, _P)),
        "wirsing": (_op_wirsing, None, (_F, _X, ("--P", {"type": _int_arg, "default": None}))),
        "psi": (_op_psi, None,
                (_F, ("--t", {"required": True, "help": "comma list or linspace:a,b,n"}), _P)),
        "kappa": (_op_kappa, None, (_F, _X)),
        "halasz": (_op_halasz, None, (_F, ("--beta", {"type": float, "required": True}), _P)),
        "jumps": (_op_jumps, None, (_F, _P)),
        "witness": (_op_witness, None,
                    (_F, ("--v", {"type": _fraction_arg, "required": True}), _U,
                     ("--p-cap", {"type": _int_arg, "default": 100_000}))),
    }, "Euler products, prime sums, witnesses", ()),
    "invert": (_cmd_invert, "invert the characteristic-function product",
               (_F, _P, *_QUADRATURE, ("--points", {"default": "log-default"}))),
    "compare": (_cmd_compare, "sieve CDF vs. inverted characteristic function",
                (_F, _X, _P, *_QUADRATURE, _GRID)),
}


def _add_commands(sub, table: dict):
    for name, (handler, help_, flags) in table.items():
        p = sub.add_parser(name, **({} if help_ is None else {"help": help_}))
        if isinstance(handler, dict):
            _add_commands(p.add_subparsers(dest=f"{name}_op", required=True), handler)
            continue
        p.add_argument("--out", default=None, help="output file (stdout when omitted)")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ddl", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ddl {__version__}")
    _add_commands(ap.add_subparsers(dest="command", required=True), COMMANDS)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        _check_output(args)
        result = args.func(args)
    except ResourceLimitError as exc:
        print(f"ddl: resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CatalogError, GridError, SieveError, InversionError, ValueError) as exc:
        print(f"ddl: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(result, args, t0)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

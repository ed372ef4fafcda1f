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
from .inversion import (DEFAULT_STEP, DEFAULT_T, InversionError, _check_matrix_size,
                        _quadrature_grid, _t_nodes, invert, sup_distance)

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


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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


def _check_output(args):
    """Refuse an output that cannot be written, before any work is done."""
    if args.out and not Path(args.out).parent.is_dir():
        raise ValueError(f"--out: directory {Path(args.out).parent} does not exist")
    if args.out and Path(args.out).is_dir():
        raise ValueError(f"--out: {args.out} is a directory")
    if getattr(args, "gnuplot", False) and (args.format == "json" or not args.out):
        raise ValueError("--gnuplot plots a CSV file: it needs --out and --format csv")


def _emit(result, args, t0):
    """Write a handler's result, with its metadata, to --out or stdout."""
    meta = _meta(args, t0)
    if isinstance(result, WeightedCdfEstimate):
        if args.format == "csv":
            _write(_estimate_csv(result, meta), args.out)
            if args.gnuplot:
                Path(args.out + ".gp").write_text(
                    "set datafile separator ','\n"
                    f"set title 'ddl {result.mode} {result.f_id}'\n"
                    "set xlabel 'u'\nset ylabel 'value'\n"
                    f"plot '{args.out}' using ($1/$2):5 with lines title 'value'\n")
            return
        rows = [{"u_num": num, "u_den": den, "raw_re": r.real, "raw_im": r.imag,
                 "value_re": v.real, "value_im": v.imag}
                for num, den, r, v in zip(result.grid.nums.tolist(), result.grid.dens.tolist(),
                                          result.raw, result.values)]
        result = {"mode": result.mode, "normalizer": result.normalizer, "rows": rows}
    _write(json.dumps({**result, "meta": meta}, indent=2, sort_keys=True) + "\n", args.out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_catalog(args):
    return {"entries": catalog_entries()}


def _cmd_sieve_cache(args):
    cache_dir = args.dir or os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        raise SieveError(f"no cache directory: pass --dir or set {CACHE_ENV_VAR}")
    written = []
    # sieves every segment: an existing cache is never copied into a new one
    for chunk in scan_segments(args.x, workers=args.workers):
        written.append(str(write_segment_cache(cache_dir, chunk.lo, chunk.hi, chunk.sigma)))
    return {"written": written}


def _common_kwargs(args):
    return {"workers": args.workers, "cache_dir": os.environ.get(CACHE_ENV_VAR) or None}


def _cmd_estimate(args):
    f = parse_spec(args.f)
    grid = ThresholdGrid.parse(args.grid)
    fn = estimate_weighted_cdf if args.mode == "df" else estimate_normalized_cdf
    return fn(f, args.x, grid, **_common_kwargs(args))


def _cmd_lattice(args):
    grid = ThresholdGrid.parse(args.grid)
    return lattice_circle_cdf(args.R, grid, **_common_kwargs(args))


def _cmd_equidist(args):
    tally = equidist_tally(args.mode, args.q, args.u, args.x, **_common_kwargs(args))
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
    val = smoothed_indicator_mean(f, args.x, args.u, args.m, **_common_kwargs(args))
    return {"value_re": val.real, "value_im": val.imag}


def _cmd_psum_check(args):
    f = parse_spec(args.f)
    lhs, rhs = partial_summation_check(f, args.x, args.u, **_common_kwargs(args))
    return {"lhs_re": lhs.real, "lhs_im": lhs.imag,
            "rhs_re": rhs.real, "rhs_im": rhs.imag,
            "abs_difference": abs(lhs - rhs)}


def _cmd_analytic(args):
    f = parse_spec(args.f)
    sub = args.analytic_op
    if sub == "mean":
        res = mean_value_product(f, args.P)
        payload = {"value_re": res.value.real, "value_im": res.value.imag,
                   "P": res.P, "tail_bound": res.tail_bound}
    elif sub == "wirsing":
        payload = {"prediction": wirsing_prediction(f, args.x, args.P),
                   "x": args.x, "P": args.P}
    elif sub == "psi":
        ts = _parse_t_spec(args.t)
        prof = char_function(f, ts, args.P)
        payload = {"P": prof.P,
                   "points": [{"t": float(t), "re": v.real, "im": v.imag,
                               "tail_bound": float(b)}
                              for t, v, b in zip(prof.ts, prof.values, prof.tail_bounds)]}
    elif sub == "kappa":
        weighted, recip = mertens_kappa(f, args.x)
        payload = {"weighted_logsum_ratio": weighted, "reciprocal_sum": recip,
                   "claimed_kappa": f.kappa, "x": args.x}
    elif sub == "halasz":
        payload = {"series": halasz_series(f, args.beta, args.P),
                   "beta": args.beta, "P": args.P}
    elif sub == "jumps":
        payload = {"diagnostic": continuity_diagnostic(f, args.P), "P": args.P}
    elif sub == "witness":
        try:
            m = greedy_witness(f, args.v, args.u, args.p_cap)
            payload = {"found": True, "m": m}
        except WitnessNotFound as exc:
            payload = {"found": False, "reason": str(exc)}
    return payload


def _invert_points(spec: str) -> np.ndarray:
    if spec == "log-default":
        grid = ThresholdGrid.default()
        _, logs = grid.log_points()
        return logs
    return np.sort(_parse_t_spec(spec))


def _cmd_invert(args):
    f = parse_spec(args.f)
    ts = _quadrature_grid(args.T, args.step)
    points = _invert_points(args.points)
    _check_matrix_size(points.size, ts)  # all refusals come before the product
    inv = invert(char_function(f, ts, args.P), points, T=args.T, step=args.step)
    return {
        "T": inv.T, "step": inv.step, "eps": inv.eps, "P": args.P,
        "isotonic_changed": inv.isotonic_changed,
        "slack_exceeded": inv.slack_exceeded,
        "points": [{"x": float(p), "F": float(v), "raw": float(r)}
                   for p, v, r in zip(inv.points, inv.values, inv.raw)],
    }


def _cmd_compare(args):
    f = parse_spec(args.f)
    grid = ThresholdGrid.parse(args.grid)
    ts = _quadrature_grid(args.T, args.step)
    _, logs = grid.log_points()
    if logs.size == 0:
        raise GridError("compare needs a grid with a threshold u > 0")
    _check_matrix_size(logs.size, ts)  # all refusals come before the sieve runs
    est = estimate_weighted_cdf(f, args.x, grid, **_common_kwargs(args))
    prof = char_function(f, ts, args.P)
    inv = invert(prof, logs, T=args.T, step=args.step)
    cmpres = sup_distance(est, inv)
    return {
        "sup_distance": cmpres.sup_distance,
        "at_log_point": cmpres.at_point,
        "budgets": {
            "empirical_x": cmpres.empirical_x,
            "inverted_eps": cmpres.inverted_eps,
            "T": cmpres.T, "step": cmpres.step,
            "profile_P": args.P,
            "max_profile_tail": float(np.max(prof.tail_bounds)),
        },
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _command(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the --out that main's writer reads."""
    p = sub.add_parser(name, **kwargs)
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p.set_defaults(func=func)
    return p


def _add_workers(p: argparse.ArgumentParser):
    p.add_argument("--workers", type=int, default=1)


_P = ("--P", {"type": _int_arg, "required": True})
_X = ("--x", {"type": _int_arg, "required": True})

# analytic op -> its flags besides --f and --out
ANALYTIC_FLAGS = {
    "mean": (_P,),
    "wirsing": (_X, ("--P", {"type": _int_arg, "default": None})),
    "psi": (("--t", {"required": True, "help": "comma list or linspace:a,b,n"}), _P),
    "kappa": (_X,),
    "halasz": (("--beta", {"type": float, "required": True}), _P),
    "jumps": (_P,),
    "witness": (("--v", {"type": _fraction_arg, "required": True}),
                ("--u", {"type": _fraction_arg, "required": True}),
                ("--p-cap", {"dest": "p_cap", "type": _int_arg, "default": 100_000})),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ddl", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ddl {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    _command(sub, "catalog", _cmd_catalog, help="list the multiplicative-function catalog")

    p = _command(sub, "sieve-cache", _cmd_sieve_cache, help="precompute binary sigma caches")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--dir", default=None, help=f"cache directory (default: {CACHE_ENV_VAR})")
    _add_workers(p)

    p = _command(sub, "estimate", _cmd_estimate, help="weighted distribution of n/sigma(n)")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--mode", choices=("df", "dtilde"), default="df")
    p.add_argument("--grid", default="default")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--gnuplot", action="store_true")
    _add_workers(p)

    p = _command(sub, "lattice", _cmd_lattice, help="two-squares lattice-point distribution")
    p.add_argument("--R", type=_int_arg, required=True)
    p.add_argument("--grid", default="default")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--gnuplot", action="store_true")
    _add_workers(p)

    p = _command(sub, "equidist", _cmd_equidist,
                 help="equidistribution tallies of qualifying n")
    p.add_argument("--mode", choices=("omega", "coprime"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--u", type=_fraction_arg, required=True)
    p.add_argument("--x", type=_int_arg, required=True)
    _add_workers(p)

    p = _command(sub, "smoothed", _cmd_smoothed, help="tent-smoothed indicator mean")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--u", type=_fraction_arg, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_workers(p)

    p = _command(sub, "psum-check", _cmd_psum_check, help="partial-summation identity check")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--u", type=_fraction_arg, required=True)
    _add_workers(p)

    p = sub.add_parser("analytic", help="Euler products, prime sums, witnesses")
    asub = p.add_subparsers(dest="analytic_op", required=True)

    for op, flags in ANALYTIC_FLAGS.items():
        q = _command(asub, op, _cmd_analytic)
        q.add_argument("--f", required=True)
        for flag, kwargs in flags:
            q.add_argument(flag, **kwargs)

    p = _command(sub, "invert", _cmd_invert, help="invert the characteristic-function product")
    p.add_argument("--f", required=True)
    p.add_argument("--P", type=_int_arg, required=True)
    p.add_argument("--T", type=float, default=DEFAULT_T)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--points", default="log-default")

    p = _command(sub, "compare", _cmd_compare,
                 help="sieve CDF vs. inverted characteristic function")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--P", type=_int_arg, required=True)
    p.add_argument("--T", type=float, default=DEFAULT_T)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--grid", default="default")
    _add_workers(p)

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

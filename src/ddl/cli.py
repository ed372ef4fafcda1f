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
import contextlib
import itertools
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
from .multfunc import catalog_entries, parse_spec
from .sieve import ResourceLimitError, SieveError, scan_segments, write_segment_cache
from .empirical import (GridError, ThresholdGrid, WeightedCdfEstimate, equidist_tally,
                        estimate_normalized_cdf, estimate_weighted_cdf,
                        lattice_circle_cdf, partial_summation_check,
                        smoothed_indicator_mean)
from .analytic import (WitnessNotFound, char_function, continuity_diagnostic,
                       greedy_witness, halasz_series, mean_value_product,
                       mertens_kappa, wirsing_prediction)
from .inversion import (DEFAULT_STEP, DEFAULT_T, _quadrature_grid,
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
        if ts.size and np.all(np.isfinite(ts)):
            return ts
    except ResourceLimitError:
        raise
    except ValueError:
        pass
    raise ValueError(f"bad t spec {spec!r}: want a comma list or linspace:a,b,n of finite values")


def _meta(args: argparse.Namespace, t0: float) -> dict:
    config = {k: (str(v) if isinstance(v, Fraction) else v)
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
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(parts)


_ROW_BLOCK = 1 << 14


def _row_blocks(table: dict, fmt, null: str | None = None):
    """Per block of _ROW_BLOCK rows of a table of columns (name -> array), one
    list of strings per column: ints by str, floats by fmt, or null (if given)
    when not finite.  A column at a time, as a formatter per value is slower."""
    for a in range(0, len(next(iter(table.values()))), _ROW_BLOCK):
        block = []
        for col in table.values():
            col = col[a:a + _ROW_BLOCK]
            text = list(map(fmt if col.dtype.kind == "f" else str, col.tolist()))
            if null is not None:
                for i in np.flatnonzero(~np.isfinite(col)).tolist():
                    text[i] = null
            block.append(text)
        yield block


def _json(obj, pad: str = "\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True), in parts, with
    non-finite floats as null, as JavaScript's JSON.stringify writes them:
    strict JSON has no Infinity or NaN.  A dict of numpy arrays is a table by
    its columns, written as a list of row objects a block of rows at a time."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(isinstance(c, np.ndarray) for c in obj.values()):
        table = dict(sorted(obj.items()))
        fields = ",".join(f"{inner}  {json.dumps(k)}: %s" for k in table)
        row = inner + "{" + fields + inner + "}"  # for %, which takes under half str.format's time
        for i, block in enumerate(_row_blocks(table, repr, "null")):
            yield ("," if i else "[") + ",".join(row % r for r in zip(*block))
        yield pad + "]" if len(next(iter(table.values()))) else "[]"
    elif isinstance(obj, dict) and obj:
        for i, k in enumerate(sorted(obj)):
            yield ("," if i else "{") + inner + json.dumps(k) + ": "
            yield from _json(obj[k], inner)
        yield pad + "}"
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json(v, inner)
        yield pad + "]"
    else:
        yield "null" if isinstance(obj, float) and not math.isfinite(obj) else json.dumps(obj)


def _estimate_csv(est, table: dict, meta: dict):
    gen = meta["generated"]
    yield (f"# ddl v{meta['version']} {est.mode}\n"
           f"# config: {json.dumps(meta['config'], sort_keys=True)}\n"
           f"# normalizer: {est.normalizer:.12g}\n"
           f"# generated: {gen['timestamp']} wall={gen['wall_time_s']}s\n"
           + ",".join(table) + "\n")
    for block in _row_blocks(table, "{:.12g}".format):
        yield "\n".join(map(",".join, zip(*block))) + "\n"


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
        values = result.values
        table = {"u_num": result.grid.nums, "u_den": result.grid.dens,
                 "raw_re": result.raw.real, "raw_im": result.raw.imag,
                 "value_re": values.real, "value_im": values.imag}
        if args.format == "csv":
            _write(_estimate_csv(result, table, meta), args.out)
            if args.gnuplot:
                path = args.out.replace("'", "''")  # gnuplot's escape within single quotes
                Path(args.out + ".gp").write_text(
                    "set datafile separator ','\n"
                    f"set title 'ddl {result.mode} {result.f_id}'\n"
                    "set xlabel 'u'\nset ylabel 'value'\n"
                    f"plot '{path}' using ($1/$2):5 with lines title 'value'\n")
            return
        result = {"mode": result.mode, "normalizer": result.normalizer, "rows": table}
    _write(itertools.chain(_json({**result, "meta": meta}), "\n"), args.out)


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
        "classes": {"label": np.asarray(tally.labels), "count": tally.counts,
                    "density": tally.counts / tally.x},
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
    return {"P": prof.P, "points": {"t": prof.ts, "re": prof.values.real,
                                    "im": prof.values.imag, "tail_bound": prof.tail_bounds}}


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
        return {"found": True, "primes": greedy_witness(f, args.v, args.u, args.p_cap)}
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
            "points": {"x": inv.points, "F": inv.values, "raw": inv.raw}}


def _cmd_compare(args):
    f = parse_spec(args.f)
    grid = ThresholdGrid.parse(args.grid)
    _, logs = grid.log_points()
    ts = _quadrature_grid(args.T, args.step, logs.size)  # all refusals come before the sieve runs
    if logs.size == 0:
        raise GridError("compare needs a grid with a threshold u > 0")
    est = estimate_normalized_cdf(f, args.x, grid, cache_dir=_cache_dir())  # psi's law has mass 1
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
    except ValueError as exc:  # the errors of bad input all derive from it
        print(f"ddl: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        _emit(result, args, t0)
    except BrokenPipeError:  # the reader of stdout stopped early, as `ddl ... | head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit's flush
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

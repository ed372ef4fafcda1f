"""Spans around the public functions of each ddl module, recorded from the
benchmark's own code, and the per-layer metrics derived from them.

As a script this runs one traced CLI call:

    python3 benchmarks/tracing.py SPANS.json <ddl arguments...>

It wraps the functions listed in LAYERS wherever a ddl module holds them,
runs ``ddl.cli.main`` and writes the spans and counters to SPANS.json when
the call ends.  A span is [name, start, end, parent index]; the program
itself is not edited.  ``layer_metrics`` turns the span files of one round
into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

# module -> public functions given a span (scan_segments and read_segment_cache
# get counters as well; MultFunc.prime_power is only counted, it is called
# once per base prime per segment)
LAYERS = {
    "sieve": ("primes_up_to", "sigma_table", "write_segment_cache"),
    "empirical": ("estimate_weighted_cdf", "estimate_normalized_cdf",
                  "lattice_circle_cdf", "equidist_tally",
                  "partial_summation_check", "smoothed_indicator_mean"),
    "analytic": ("char_function", "mean_value_product", "continuity_diagnostic",
                 "mertens_kappa"),
    "inversion": ("invert",),
    "cli": ("main",),
}

COUNTERS = ("sieve.passes", "sieve.n_scanned", "sieve.cache_hits",
            "sieve.cache_misses", "multfunc.scalar_calls")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def wrap_scan(self, fn):
        """scan_segments is a generator: one span per segment step."""
        def traced(*args, **kwargs):
            self.counts["sieve.passes"] += 1
            gen = fn(*args, **kwargs)
            while True:
                self.open("sieve.scan_step")
                try:
                    chunk = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close()
                self.counts["sieve.n_scanned"] += int(chunk.n.size)
                yield chunk
        return traced

    def wrap_cache_read(self, fn):
        traced_read = self.wrap("sieve.read_segment_cache", fn)

        def traced(*args, **kwargs):
            sigma = traced_read(*args, **kwargs)
            self.counts["sieve.cache_misses" if sigma is None else "sieve.cache_hits"] += 1
            return sigma
        return traced

    def wrap_count(self, key, fn):
        def traced(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return traced


def install(tracer: Tracer):
    """Replace each traced function in every loaded ddl module that holds it."""
    import importlib
    mods = {name: importlib.import_module(f"ddl.{name}")
            for name in ("multfunc", "sieve", "empirical", "analytic", "inversion", "cli")}
    repl = {}
    for layer, names in LAYERS.items():
        for fname in names:
            fn = getattr(mods[layer], fname)
            repl[id(fn)] = tracer.wrap(f"{layer}.{fname}", fn)
    sieve = mods["sieve"]
    repl[id(sieve.scan_segments)] = tracer.wrap_scan(sieve.scan_segments)
    repl[id(sieve.read_segment_cache)] = tracer.wrap_cache_read(sieve.read_segment_cache)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "ddl":
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in repl:
                setattr(mod, attr, repl[id(val)])
    mf = mods["multfunc"].MultFunc
    mf.prime_power = tracer.wrap_count("multfunc.scalar_calls", mf.prime_power)
    mf.prime_powers = tracer.wrap("multfunc.prime_powers", mf.prime_powers)
    mf.at_primes = tracer.wrap("multfunc.at_primes", mf.at_primes)
    return mods["cli"]


def traced_call(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span names whose time it sums; "self" subtracts child spans,
# "total" takes the whole span (outermost one where a family nests)
SPAN_METRICS = {
    "sieve.scan_s": ("total", ("sieve.scan_step",)),
    "sieve.primes_s": ("total", ("sieve.primes_up_to",)),
    "sieve.table_s": ("total", ("sieve.sigma_table",)),
    "sieve.cache_read_s": ("total", ("sieve.read_segment_cache",)),
    "sieve.cache_write_s": ("total", ("sieve.write_segment_cache",)),
    "multfunc.vector_s": ("total", ("multfunc.prime_powers", "multfunc.at_primes")),
    "empirical.estimate_self_s": ("self", ("empirical.estimate_weighted_cdf",
                                           "empirical.estimate_normalized_cdf")),
    "empirical.lattice_self_s": ("self", ("empirical.lattice_circle_cdf",)),
    "empirical.equidist_self_s": ("self", ("empirical.equidist_tally",)),
    "empirical.psum_self_s": ("self", ("empirical.partial_summation_check",)),
    "empirical.smoothed_self_s": ("self", ("empirical.smoothed_indicator_mean",)),
    "analytic.char_function_self_s": ("self", ("analytic.char_function",)),
    "analytic.euler_self_s": ("self", ("analytic.mean_value_product",
                                       "analytic.continuity_diagnostic",
                                       "analytic.mertens_kappa")),
    "inversion.invert_s": ("total", ("inversion.invert",)),
    "cli.self_s": ("self", ("cli.main",)),
}

PER_LAYER = (*SPAN_METRICS, *COUNTERS, "trace.overhead_s")


def _span_sums(trace: dict) -> dict:
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = dict.fromkeys(SPAN_METRICS, 0.0)
    for metric, (kind, family) in SPAN_METRICS.items():
        for i, (name, start, end, parent) in enumerate(spans):
            if name not in family:
                continue
            if kind == "self":
                out[metric] += (end - start) - child_time[i]
            elif parent is None or spans[parent][0] not in family:
                out[metric] += end - start
    return out


def layer_metrics(traces: list[dict]) -> dict:
    """Sum the per-layer metrics over the span files of one traced round."""
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    totals.update(dict.fromkeys(COUNTERS, 0))
    for trace in traces:
        for k, v in _span_sums(trace).items():
            totals[k] += v
        for k, v in trace["counts"].items():
            totals[k] += v
    return totals


if __name__ == "__main__":
    sys.exit(traced_call(sys.argv[1], sys.argv[2:]))

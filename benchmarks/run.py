"""Benchmark ddl end to end through its CLI, one workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py            # every workload in turn, seed 1

Each CLI call runs in a fresh Python process, as a user's call does, so it
pays the import and the lazily built base primes every time.  Calls run one
at a time with one BLAS thread.  A round is every call of the workload plus
the checks of their outputs; rounds repeat while the next one is expected
to end within --seconds, and there is always at least one.  The end-to-end
metrics are medians over the rounds:

    wall_s       time from the start of a round to its checked result
    cpu_s        user + system CPU time of the round's processes
    peak_rss_mb  largest resident set of any of the round's processes
    setup_s      median of the set-up step, repeated before the rounds:
                 `ddl sieve-cache` for weighted_x1e7, a bare `import ddl.cli`
                 in a fresh process for the others

With --trace 1 the run makes one untraced round, then repeats the set-up
call and the round with spans around each module's public functions (see
tracing.py), and reports the per-layer metrics of the traced round and the
tracing overhead.  The last line of standard output is the result as JSON.
Scratch files go to .bench_run/ in the checkout; result and trace files stay
there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import FULL_SCALE, WORKLOADS, parse_output  # noqa: E402

CALL = "import sys; from ddl.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_ONLY = "import ddl.cli"
SETUP_REPS = {"import": 11, "cli": 3}
CALL_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Runner:
    """Starts the CLI processes of one run and records what each cost."""

    def __init__(self, workdir: Path, cache_dir: Path | None):
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.env = {k: v for k, v in os.environ.items() if k != "DDL_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        if cache_dir is not None:
            self.env["DDL_CACHE_DIR"] = str(cache_dir)

    def spawn(self, argv: list[str]) -> dict:
        """Run one process to its end: wall, CPU, peak RSS and exit code."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir, env=self.env,
                                stdout=subprocess.DEVNULL)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": time.perf_counter() - t0, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}

    def cli(self, op, spans: Path | None = None) -> dict:
        out = self.workdir / f"{op.name}.{op.fmt}"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(out)]
        if spans is None:
            return self.spawn(["-c", CALL, *argv])
        return self.spawn([str(HERE / "tracing.py"), str(spans), *argv])


def run_round(runner: Runner, wl, traced: bool) -> dict:
    """Every call of the workload, then the checks of their outputs."""
    t0 = time.perf_counter()
    procs, outputs, traces = [], {}, []
    failed = 0
    for op in wl.ops:
        spans = runner.workdir / f"{op.name}.spans.json" if traced else None
        proc = runner.cli(op, spans)
        procs.append(proc)
        out = runner.workdir / f"{op.name}.{op.fmt}"
        if proc["code"] != 0 or not out.exists():
            failed += 1
            continue
        try:
            outputs[op.name] = parse_output(out)
        except (ValueError, KeyError) as exc:
            print(f"{wl.name}: cannot read {out.name}: {exc}", file=sys.stderr)
            failed += 1
        if traced and spans.exists():
            traces.append({"op": op.name, **json.loads(spans.read_text())})
    bad = wl.failed_checks(outputs) if not failed else []
    for cid in bad:
        print(f"{wl.name}: check failed: {cid}", file=sys.stderr)
    return {"wall": time.perf_counter() - t0,
            "cpu": sum(p["cpu"] for p in procs),
            "rss_mb": max(p["rss_mb"] for p in procs),
            "attempted": len(wl.ops), "failed": failed, "correct": not bad,
            "outputs": outputs, "traces": traces}


def run_setup(runner: Runner, wl, spans: Path | None = None) -> float:
    """One set-up step; returns its wall time.

    The cache directory is emptied first: `ddl sieve-cache` reads
    DDL_CACHE_DIR before it writes there, and must sieve every segment.
    """
    if wl.setup is None:
        return runner.spawn(["-c", IMPORT_ONLY])["wall"]
    shutil.rmtree(runner.cache_dir, ignore_errors=True)
    proc = runner.cli(wl.setup, spans)
    if proc["code"] != 0 or not parse_output(runner.workdir / f"{wl.setup.name}.json")["written"]:
        raise RuntimeError(f"{wl.name}: set-up call failed (exit code {proc['code']})")
    return proc["wall"]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: dict = FULL_SCALE) -> dict:
    wl = WORKLOADS[name](scale, seed)
    bench_dir = ROOT / ".bench_run"
    workdir = bench_dir / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cache = workdir / "cache" if wl.setup else None
    try:
        runner = Runner(workdir, cache)
        reps = SETUP_REPS["cli" if wl.setup else "import"]
        setup_s = statistics.median(run_setup(runner, wl) for _ in range(reps))
        rounds = [run_round(runner, wl, traced=False)]
        measured = rounds[0]["wall"]
        while not trace and measured + rounds[-1]["wall"] <= seconds:
            rounds.append(run_round(runner, wl, traced=False))
            measured += rounds[-1]["wall"]
        if trace:
            setup_traces = []
            if wl.setup is not None:
                spans = workdir / "setup.spans.json"
                run_setup(runner, wl, spans)
                setup_traces.append({"op": wl.setup.name, **json.loads(spans.read_text())})
            rounds.append(run_round(runner, wl, traced=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds)}
    if trace:
        untraced, traced = rounds
        layers = layer_metrics(traced["traces"])
        # the cache write is set-up work; every other layer is the round's
        layers["sieve.cache_write_s"] += layer_metrics(setup_traces)["sieve.cache_write_s"]
        layers["trace.overhead_s"] = traced["wall"] - untraced["wall"]
        metrics = {k: {"value": layers[k], "unit": "s" if k.endswith("_s") else "count"}
                   for k in PER_LAYER}
        trace_file = bench_dir / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": name, "seed": seed, **wl.params,
                                          "setup": setup_traces,
                                          "round": traced["traces"]}))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    result["metrics"] = metrics
    (bench_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "rounds": len(rounds), **wl.params,
                    **result}, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ddl" / "cli.py").is_file():
        print(f"run.py: no ddl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}", flush=True)
        for k, m in res["metrics"].items():
            v = m["value"]
            shown = f"{v:12d}" if isinstance(v, int) else f"{v:12.4f}"
            print(f"  {k:32s} {shown} {m['unit']}", flush=True)
    if len(results) == 1:
        (final,) = results.values()
    else:  # every workload: one object, metric names prefixed by the workload
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

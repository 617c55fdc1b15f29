"""Run one benchmark workload against the symext sources of this checkout.

    python3 bench/run.py --workload qubit-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --write-benchmark-json    # regenerate BENCHMARK.json

Each workload is a closed loop with one client: the next op starts only
after the previous verdict returned.  The loop takes the workload's ops in
turn, at least two whole passes, until ``--seconds`` have elapsed.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one traced pass between two untraced ones and reports the per-layer
metrics.  The last line of standard output is one JSON object; spans and a
fuller record go to ``.bench_out/``.  BLAS threading is left as the
environment sets it and recorded with every result.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec
from stats import op_timings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 2
SETUP_REPEATS = 8
IMPORT_REPEATS = 5


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, if it says."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _git_commit(),
    }


def build(args):
    from workloads import OPS_BY_WORKLOAD
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = OPS_BY_WORKLOAD[args.workload](args.seed, workdir)
    ops[0].run()  # warm-up
    return ops


def run_passes(ops, seconds: float, min_passes: int, tracer=None,
               interlude=None, interludes: int = 0) -> dict:
    """Closed loop over the ops in turn; each op is timed, then checked
    untimed.  It makes at least ``min_passes`` whole passes and stops at the
    first op after ``seconds``, so the last pass may be partial.
    ``interlude()`` runs ``interludes`` times between ops, spread evenly
    over the ``seconds``."""
    from workloads import FAILED, OK, WRONG, Outcome
    latencies, kinds, problems = [], {OK: 0, FAILED: 0, WRONG: 0}, []
    by_op = [[] for _ in ops]
    start, done = time.perf_counter(), 0
    for k in itertools.count():
        elapsed = time.perf_counter() - start
        if k >= min_passes * len(ops) and elapsed >= seconds:
            break
        if done < interludes and elapsed >= done * seconds / interludes:
            interlude()
            done += 1
        op = ops[k % len(ops)]
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        t0 = time.perf_counter()
        try:
            raw, error = op.run(), None
        except Exception:  # an op that raises is a failed op; the run goes on
            raw, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        latencies.append(latency)
        by_op[k % len(ops)].append(latency)
        outcome = Outcome(FAILED, error) if error else op.check(raw)
        kinds[outcome.kind] += 1
        if outcome.kind != OK:
            problems.append(f"{outcome.kind}: {op.label}: {outcome.detail}")
    for _ in range(done, interludes):
        interlude()
    return {"latencies": latencies, "by_op": by_op, "kinds": kinds, "problems": problems,
            "passes": len(latencies) / len(ops)}


def measure(args, ops) -> tuple[dict, dict, dict]:
    """The untraced run.  The set-up is timed in a fresh interpreter
    ``SETUP_REPEATS`` times, spread over the run, because the shared host's
    speed changes every few seconds and back-to-back set-ups would all
    read one moment of it."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only"]
    setup_samples = []

    def time_setup():
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        setup_samples.append(time.perf_counter() - t0)

    run = run_passes(ops, args.seconds, MIN_PASSES, interlude=time_setup,
                     interludes=SETUP_REPEATS)
    if args.workload == "cli":
        rss_kb = max(op.peak_rss_kb for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timings = op_timings(run["by_op"], MIN_PASSES)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": timings["ops_per_s"],
        "op_p50_ms": timings["p50"] * 1e3,
        "op_tail_ms": timings["tail"] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {"tail_percentile": timings["tail_percentile"], "samples": len(run["latencies"]),
               "passes": run["passes"], "fail_frac": run["kinds"]["failed"] / len(run["latencies"]),
               "setup_samples_s": setup_samples,
               "latencies_s_by_op": run["by_op"]}
    return metrics, details, run


def import_ms() -> tuple[float, list[float]]:
    """Import time of ``symext.cli`` (numpy included) in a fresh interpreter."""
    from workloads import cli_env
    code = ("import time; t = time.perf_counter(); import symext.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=cli_env(), cwd=ROOT).stdout
        samples.append(float(out))
    return statistics.median(samples), samples


def per_layer(args, ops) -> tuple[dict, dict, dict]:
    """One traced pass between two untraced ones; the overhead compares the
    traced pass with the mean of its neighbours, which cancels a linear drift
    in machine speed."""
    from tracing import Tracer, layer_metrics
    for op in ops:
        if hasattr(op, "in_process"):
            op.in_process = True
    tracer = Tracer()
    before = run_passes(ops, 0.0, 1)
    tracer.install()
    try:
        traced = run_passes(ops, 0.0, 1, tracer)
    finally:
        tracer.uninstall()
    after = run_passes(ops, 0.0, 1)
    runs = (before, traced, after)
    rates = [len(r["latencies"]) / sum(r["latencies"]) for r in runs]

    layers = layer_metrics(tracer.spans)
    layers["cli.import_ms"], import_samples = import_ms()
    layers["bench.tracing_overhead"] = rates[1] / statistics.mean((rates[0], rates[2]))
    metrics = {name: float(layers.get(name, 0.0)) for name, *_ in spec.PER_LAYER}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    combined = {"latencies": [t for r in runs for t in r["latencies"]],
                "problems": [p for r in runs for p in r["problems"]],
                "kinds": {k: sum(r["kinds"][k] for r in runs) for k in before["kinds"]}}
    details = {"ops_per_s_untraced_traced_untraced": rates, "spans": len(tracer.spans),
               "import_samples_ms": import_samples}
    return metrics, details, combined


def report(env, metrics, details, run) -> dict:
    attempted = len(run["latencies"])
    failed = run["kinds"]["failed"]
    correct = run["kinds"]["wrong"] == 0
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps({k: v for k, v in details.items() if "by_op" not in k},
                              sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {spec.UNITS[name]}")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    for line in run["problems"][:20]:
        print(f"  {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                          for name, value in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    record.write_text(json.dumps({"env": env, "details": details, "problems": run["problems"],
                                  **result}, indent=1) + "\n")
    print(json.dumps(result))
    return result


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate the inputs, make one warm-up call and exit")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "symext" / "__init__.py").is_file():
        print(f"error: no symext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    ops = build(args)
    if args.setup_only:
        return 0
    env = environment(args)
    if args.trace:
        metrics, details, run = per_layer(args, ops)
    else:
        metrics, details, run = measure(args, ops)
    result = report(env, metrics, details, run)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""What the benchmark measures: workloads, metrics, units and bounds.

``manifest()`` is the content of ``BENCHMARK.json`` at the repository root;
``python3 bench/run.py --write-benchmark-json`` rewrites that file from here.
"""

from __future__ import annotations

RUN_SECONDS = 40

WORKLOADS = {
    "qubit-sweep": "2x2 states decided by the Douglas-Rachford oracle at extension dimension 8, "
                   "where per-iteration Python overhead dominates",
    "qudit-mix": "3x2 to 4x3 states in any/bosonic/fermionic mode plus qutrit channels, "
                 "where eigh flops, BLAS threads and witness re-verification dominate",
    "cli": "one symext subprocess per command on generated files; import, io and the closed "
           "forms dominate and the oracle is almost never called",
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

ORACLE_DIMS = (8, 12, 16, 18, 27, 32, 36)

# (name, unit, better)
PER_LAYER = (
    ("oracle.calls", "count", "lower"),
    ("oracle.iterations", "count", "lower"),
    ("oracle.iterations.boundary", "count", "lower"),
    ("oracle.iterations.full_rank", "count", "lower"),
    ("oracle.stall_iterations", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    *((f"oracle.us_per_iter.d{d}", "us", "lower") for d in ORACLE_DIMS),
    ("oracle.decided_ratio", "ratio", "higher"),
    ("states.verify.calls", "count", "lower"),
    ("states.verify.busy_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.busy_s", "s", "lower"),
    ("twoqubit.busy_s", "s", "lower"),
    ("twoqubit.rank2_condition.busy_s", "s", "lower"),
    ("twoqubit.zcorr.busy_s", "s", "lower"),
    ("channels.busy_s", "s", "lower"),
    ("channels.shortcut_ratio", "ratio", "higher"),
    ("io.busy_ms", "ms", "lower"),
    ("io.bytes", "bytes", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("bench.tracing_overhead", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }

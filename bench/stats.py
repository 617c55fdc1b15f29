"""Latency summaries and span arithmetic; pure functions, no symext import."""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10
HD_STEPS = 64  # midpoint-rule points per order statistic; relative error below 1e-4


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it.

    Below twenty samples not even the median qualifies; the median is
    returned so the tail is never better than the typical op.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def harrell_davis(values, p: float) -> float:
    """The p-th percentile by the Harrell-Davis estimator.

    Each order statistic is weighted by the mass that Beta(p(n+1),
    (1-p)(n+1)) puts on its cell of [0, 1], integrated by the midpoint rule
    with ``HD_STEPS`` points per cell.  Unlike one order statistic, the
    estimate moves smoothly when samples near the percentile trade places.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    n, q = len(ordered), p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * HD_STEPS)
    weighted = mass = 0.0
    for i, x in enumerate(ordered):
        cell = sum(math.exp(log_norm + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))
                   for t in ((i * HD_STEPS + j + 0.5) * h for j in range(HD_STEPS)))
        weighted += cell * x
        mass += cell
    return weighted / mass


def op_timings(by_op, min_samples: int) -> dict:
    """Timings of a run from each op's latencies (one list per op, each
    with at least ``min_samples`` entries).

    Every op is read at the midpoint of its fastest and slowest repeat.  A
    shared host alternates between a free and a contended speed, and the
    share of a run it spends in each changes from run to run and over
    minutes.  The fastest repeat reads the free speed and the slowest the
    contended one; their midpoint does not depend on that share, while a
    mean or median of the repeats does.  Throughput is ops over the sum of
    the midpoints; the p50 and the tail are Harrell-Davis percentiles
    across ops.  The tail percentile is the highest with at least ten of
    the run's samples beyond it, counted at ``min_samples`` per op so that
    it is the same in every run of the workload.
    """
    mid = [(min(samples) + max(samples)) / 2.0 for samples in by_op]
    p = tail_percentile(min_samples * len(mid))
    return {"ops_per_s": len(mid) / sum(mid),
            "p50": harrell_davis(mid, 50.0),
            "tail": harrell_davis(mid, p), "tail_percentile": p}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    ``spans`` is a sequence of (start, end, parent_index) with parent -1 for
    roots.  Overlapping children are merged before subtracting.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out

"""Tests for the benchmark's own arithmetic, generators and correctness gate.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import harrell_davis, op_timings, self_times, tail_percentile  # noqa: E402
from symext import channels, cli, gallery, oracle  # noqa: E402
from symext.states import BipartiteState  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (5000, 99.5), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_harrell_davis_weights_the_order_statistics():
    assert harrell_davis([2.0, 1.0], 50.0) == pytest.approx(1.5)
    values = list(range(1, 200))
    assert harrell_davis(values, 50.0) == pytest.approx(100.0)
    # the weights centre on rank p(n+1) = 190 and spread over a few ranks
    assert 185.0 < harrell_davis(values, 95.0) < 195.0
    # one outlier moves it a little, far less than it moves the mean (125.9)
    assert 1.0 < harrell_davis([1.0] * 7 + [1000.0], 50.0) < 10.0


def test_op_timings_read_each_op_between_its_fastest_and_slowest_repeat():
    # 20 ops; op i takes 0.01 * (i + 1) s, once three times as long and once
    # twice, so its midpoint is twice its fastest repeat.  Every other op has
    # a fourth sample, as a run that stops mid-pass leaves some ops one more.
    by_op = [[0.01 * (i + 1), 0.03 * (i + 1), 0.02 * (i + 1)] + [0.015 * (i + 1)] * (i % 2)
             for i in range(20)]
    mid = [0.02 * (i + 1) for i in range(20)]
    summary = op_timings(by_op, min_samples=2)
    assert summary["ops_per_s"] == pytest.approx(20 / sum(mid))
    assert summary["p50"] == pytest.approx(0.21)
    # 2 x 20 samples: p75 leaves ten beyond it
    assert summary["tail_percentile"] == 75.0
    assert summary["tail"] == pytest.approx(harrell_davis(mid, 75.0))
    assert mid[14] < summary["tail"] < mid[16]


def test_run_stops_after_the_first_op_past_the_deadline():
    ops = [_mixed_state_op(workloads.Reference(-1.0, None, False)) for _ in range(3)]
    calls = []
    result = run.run_passes(ops, 0.0, 2, interlude=lambda: calls.append(1), interludes=3)
    assert [len(samples) for samples in result["by_op"]] == [2, 2, 2]
    assert len(result["latencies"]) == 6 and result["passes"] == 2
    assert len(calls) == 3  # every interlude runs, even when the run ends early


def test_self_time_subtracts_nested_children():
    spans = [(0, 100, -1), (10, 40, 0), (20, 30, 1), (50, 60, 0)]
    assert self_times(spans) == [60, 20, 10, 10]


def test_self_time_merges_overlapping_children():
    assert self_times([(0, 10, -1), (2, 6, 0), (4, 8, 0)]) == [4, 4, 4]


def _matrices(items):
    out = []
    for item in items:
        if isinstance(item, inputs.ChannelInput):
            out.extend(item.channel.kraus)
        else:
            out.append(np.asarray(item.rho.matrix))
    return out


def _cli_matrices(seed, workdir):
    objects = inputs.cli_files(seed, workdir)
    return [m for obj in objects.values()
            for m in (obj.kraus if isinstance(obj, channels.Channel) else (obj.matrix,))]


@pytest.mark.parametrize("generate", [
    lambda seed, tmp: _matrices(inputs.qubit_sweep(seed)),
    lambda seed, tmp: _matrices(inputs.qudit_mix(seed)),
    lambda seed, tmp: _cli_matrices(seed, tmp),
], ids=["qubit-sweep", "qudit-mix", "cli"])
def test_same_seed_same_inputs_other_seed_other_inputs(generate, tmp_path):
    first, again, other = (generate(seed, tmp_path) for seed in (5, 5, 6))
    assert len(first) == len(again) == len(other)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.allclose(a, b) for a, b in zip(first, other))


def test_rotations_keep_the_oracle_iteration_count():
    a, b = (inputs.qubit_sweep(seed)[1] for seed in (1, 2))
    ra, rb = (oracle.find_symmetric_extension(x.rho) for x in (a, b))
    assert ra.status is rb.status and ra.iterations == rb.iterations


def _mixed_state_op(reference):
    rho = BipartiteState(np.eye(4) / 4.0, 2, 2)
    op = workloads.StateOp(inputs.StateInput("mixed", rho, "any", traced=False))
    op.reference = reference
    return op


def test_correct_reference_passes():
    good = workloads.Reference(coherent_information=-1.0, margin=None, traced=False)
    result = run.run_passes([_mixed_state_op(good)], 0.0, 1)
    assert result["kinds"] == {"ok": 1, "failed": 0, "wrong": 0}


def test_wrong_reference_verdict_fails_the_run():
    # The maximally mixed state is extendible; a reference claiming positive
    # coherent information forbids that verdict.
    wrong = workloads.Reference(coherent_information=1.0, margin=None, traced=False)
    result = run.run_passes([_mixed_state_op(wrong)], 0.0, 1)
    assert result["kinds"]["wrong"] == 1
    assert result["problems"][0].startswith("wrong: mixed:")


def test_cli_exit_code_against_reference():
    forbid_yes = workloads.Reference(coherent_information=1.0, margin=None, traced=False).forbids
    op = workloads.CliOp(["check", "x.json"], workloads._expect_verdict(forbid_yes))
    assert op.check((1, "")).kind == workloads.OK
    assert op.check((0, "")).kind == workloads.WRONG
    assert op.check((3, "")).kind == workloads.FAILED


def test_tracer_wraps_every_namespace_and_restores():
    original = oracle.find_symmetric_extension
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for namespace in (oracle, channels, cli, gallery):
            assert namespace.find_symmetric_extension.__wrapped__ is original
        tracer.active = True
        rho = BipartiteState(np.eye(4) / 4.0, 2, 2)
        result = oracle.find_symmetric_extension(rho)
        channels.classify_channel(cli.amplitude_damping(0.3))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert oracle.find_symmetric_extension is original
    assert channels.find_symmetric_extension is original

    names = [s[0] for s in tracer.spans]
    verify = names.index("states.is_symmetric_extension")
    assert tracer.spans[verify][3] == names.index("oracle.find_symmetric_extension")
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["oracle.calls"] == 1
    assert metrics["oracle.iterations"] == metrics["oracle.iterations.full_rank"] == result.iterations
    assert metrics["oracle.decided_ratio"] == 1.0
    assert metrics["states.verify.calls"] >= 1
    assert metrics["channels.shortcut_ratio"] == 1.0  # qubit damping: rank-2 Choi states
    own = self_times([(s[1], s[2], s[3]) for s in tracer.spans])
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert math.isclose(sum(own), roots, rel_tol=1e-12)


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()

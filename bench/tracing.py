"""Spans around every public ``symext`` function, and the per-layer metrics.

``Tracer.install`` wraps each public function of each module under every
name that refers to it, so ``find_symmetric_extension`` is wrapped in
``oracle``, ``channels``, ``cli`` and ``gallery`` alike and calls between
modules nest.  Spans live in memory until ``dump`` writes them once.
A layer is the module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

import numpy as np

from stats import self_times
from symext import channels, cli, gallery, io, linalg, oracle, states, twoqubit

MODULES = (linalg, states, twoqubit, oracle, channels, gallery, io, cli)

ORACLE = "oracle.find_symmetric_extension"
VERIFY = "states.is_symmetric_extension"
RANK2 = "twoqubit.rank2_condition"
VERDICTS = ("channels.is_degradable", "channels.is_anti_degradable")
ZERO_CUTOFF = 1e-9


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _csv_bytes(args, kwargs, result):
    stream = args[0]
    return stream.tell() if stream.seekable() else 0


def _oracle_info(args, kwargs, result):
    return (result.status.value, result.iterations, args[0])


# Extra facts recorded after a call returns, keyed by span name.
HOOKS = {
    ORACLE: _oracle_info,
    **{f"io.{name}": _file_bytes for name in ("load_state", "load_extension", "load_channel",
                                              "save_state", "save_extension", "save_channel")},
    "io.write_csv": _csv_bytes,
}


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, op id, info]
        self.spans: list[list] = []
        self.op_id = 0
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                if name == ORACLE and info is not None:
                    status, iterations, rho = info
                    info = {"status": status, "iterations": iterations,
                            "dim": rho.d_a * rho.d_b * rho.d_b}
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def _outermost(spans, names) -> list[int]:
    """Indices of spans in ``names`` with no ancestor in ``names``."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _full_rank(rho) -> bool:
    vals = np.linalg.eigvalsh(np.asarray(rho.matrix))
    return int(np.sum(vals > ZERO_CUTOFF * vals.max())) == rho.dim


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from finished spans (times in the units of spec.PER_LAYER)."""
    own = [t * 1e-9 for t in self_times([(s[1], s[2], s[3]) for s in spans])]
    layer_self: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    for span, t in zip(spans, own):
        layer = span[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        layer_calls[layer] = layer_calls.get(layer, 0) + 1

    def inclusive(names) -> float:
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names)) * 1e-9

    oracle_spans = [i for i, s in enumerate(spans) if s[0] == ORACLE]
    calls = len(oracle_spans)
    iterations = {"boundary": 0, "full_rank": 0}
    stall = decided = 0
    per_dim: dict[int, list[float]] = {}
    for i in oracle_spans:
        if spans[i][5] is None:  # the call raised
            continue
        status, its, rho = spans[i][5]
        iterations["full_rank" if _full_rank(rho) else "boundary"] += its
        stall += its if status == "infeasible" else 0
        decided += status in ("feasible", "infeasible")
        acc = per_dim.setdefault(rho.d_a * rho.d_b * rho.d_b, [0.0, 0])
        acc[0] += own[i]
        acc[1] += its

    # A channel verdict is a shortcut when no oracle call ran beneath it.
    verdicts = _outermost(spans, VERDICTS)
    used_oracle = set()
    for i in oracle_spans:
        parent = spans[i][3]
        while parent >= 0:
            used_oracle.add(parent)
            parent = spans[parent][3]
    shortcuts = sum(1 for i in verdicts if i not in used_oracle)

    metrics = {
        "oracle.calls": calls,
        "oracle.iterations": iterations["boundary"] + iterations["full_rank"],
        "oracle.iterations.boundary": iterations["boundary"],
        "oracle.iterations.full_rank": iterations["full_rank"],
        "oracle.stall_iterations": stall,
        "oracle.busy_s": layer_self.get("oracle", 0.0),
        "oracle.decided_ratio": decided / calls if calls else 0.0,
        "states.verify.calls": sum(1 for s in spans if s[0] == VERIFY),
        "states.verify.busy_s": inclusive({VERIFY}),
        "linalg.calls": layer_calls.get("linalg", 0),
        "linalg.busy_s": layer_self.get("linalg", 0.0),
        "twoqubit.busy_s": layer_self.get("twoqubit", 0.0),
        "twoqubit.rank2_condition.busy_s": inclusive({RANK2}),
        "twoqubit.zcorr.busy_s": inclusive({s[0] for s in spans
                                            if s[0].startswith("twoqubit.zcorr_")}),
        "channels.busy_s": layer_self.get("channels", 0.0),
        "channels.shortcut_ratio": shortcuts / len(verdicts) if verdicts else 0.0,
        "io.busy_ms": layer_self.get("io", 0.0) * 1e3,
        "io.bytes": sum(s[5] for s in spans if s[0].startswith("io.") and s[5] is not None),
        "cli.self_ms": layer_self.get("cli", 0.0) * 1e3,
    }
    for dim, (busy, its) in per_dim.items():
        metrics[f"oracle.us_per_iter.d{dim}"] = busy / its * 1e6 if its else 0.0
    return metrics

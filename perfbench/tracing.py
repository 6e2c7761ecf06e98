"""In-memory span tracing of qubitnet's public functions, from outside the package.

`traced(tracer)` replaces module attributes with timing wrappers and puts the
originals back on exit. Names are wrapped where callers look them up:
`train` imports `forward` by name, so `train.forward` is wrapped as well as
`arch.forward`; `qsim.run_circuit` and `arch.forward` resolve `apply_gate`
and `build_circuit` as module globals at call time, so replacing the module
attribute reaches those calls too.

A span is (name, parent, start, end, size). `size` is a per-call count
(parameter rows for `forward_batch`, samples for `load_wbc_csv`). Spans stay
in memory; `Tracer.dump` writes them out once the command has finished.
`train.loss` is counted, not spanned: its time stays in the self time of its
caller, so `finite_diff_gradient`'s self time covers its 2P Python `loss`
calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from qubitnet import arch, cli, data, qsim, train

# (module, attribute, span name). train.forward and arch.forward are the same
# function looked up in two places, so both record as "arch.forward".
WRAPPED = (
    (data, "load_wbc_csv", "data.load_wbc_csv"),
    (data, "compute_bounds", "data.compute_bounds"),
    (data, "encode", "data.encode"),
    (qsim, "apply_gate", "qsim.apply_gate"),
    (qsim, "run_circuit", "qsim.run_circuit"),
    (qsim, "prob_one", "qsim.prob_one"),
    (arch, "build_circuit", "arch.build_circuit"),
    (arch, "forward", "arch.forward"),
    (train, "forward", "arch.forward"),
    (arch, "forward_batch", "arch.forward_batch"),
    (train, "finite_diff_gradient", "train.finite_diff_gradient"),
    (train, "step", "train.step"),
    (train, "train_online", "train.train_online"),
    (train, "evaluate", "train.evaluate"),
    (cli, "main", "cli.main"),
    (cli, "write_csv", "cli.write"),
    (cli, "write_config_echo", "cli.write"),
)

# (module, attribute, counter name): calls are counted, without a span.
COUNTED = ((train, "loss", "train.loss"),)

SIZES = {
    "arch.forward_batch": lambda args, result: len(result),
    "data.load_wbc_csv": lambda args, result: len(result),
}

# Spans of these names split the scalar forwards of training from those of scoring.
PHASES = ("train.train_online", "train.evaluate")

P99_MIN_CALLS = 1000  # the 99th percentile needs at least ten samples beyond it


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.sizes: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name, fn, size=None):
        names, parents, starts, ends, sizes, stack = (
            self.names, self.parents, self.starts, self.ends, self.sizes, self._stack
        )
        clock = time.perf_counter_ns

        def traced_call(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            sizes.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if size is not None:
                sizes[i] = size(args, result)
            return result

        return traced_call

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted_call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted_call

    def dump(self, path):
        """Write every span: names are indexed once, times are ns."""
        index = {n: k for k, n in enumerate(dict.fromkeys(self.names))}
        with open(path, "w") as f:
            json.dump(
                {
                    "names": list(index),
                    "counts": self.counts,
                    "columns": ["name", "parent", "start_ns", "end_ns", "size"],
                    "spans": [
                        [index[n], p, s, e, z]
                        for n, p, s, e, z in zip(
                            self.names, self.parents, self.starts, self.ends, self.sizes
                        )
                    ],
                },
                f,
                separators=(",", ":"),
            )


@contextmanager
def traced(tracer: Tracer):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED + COUNTED]
    try:
        for module, attr, name in WRAPPED:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), SIZES.get(name)))
        for module, attr, name in COUNTED:
            setattr(module, attr, tracer.count(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, architecture: arch.Architecture) -> dict[str, float]:
    """Per-layer numbers of one traced command. Times are s unless named."""
    names = np.array(tracer.names)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = (np.array(tracer.ends, dtype=np.int64) - np.array(tracer.starts, dtype=np.int64)) / 1e9
    sizes = np.array(tracer.sizes, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child

    # phase[i]: index of the nearest enclosing train_online/evaluate span, or -1.
    # A parent is always recorded before its children, so one pass suffices.
    phase = np.full(len(dur), -1)
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        phase[i] = i if name in PHASES else (phase[parent] if parent >= 0 else -1)
    phase_name = np.where(phase >= 0, names[np.maximum(phase, 0)], "")

    def sel(name, under=None):
        mask = names == name
        return mask & (phase_name == under) if under else mask

    def calls(name, under=None):
        return int(sel(name, under).sum())

    def total(name, under=None):
        return float(dur[sel(name, under)].sum())

    def self_s(name):
        return float(self_t[sel(name)].sum())

    def per(a, b):
        return a / b if b else 0.0

    run_s = total("cli.main")
    gates = len(arch.build_circuit(
        architecture,
        np.zeros(architecture.n_qubits),
        np.zeros(arch.param_count(architecture)),
    )) - architecture.n_qubits  # forward_batch prepares the encoding directly
    batch_rows = int(sizes[sel("arch.forward_batch")].sum())
    amp_updates = batch_rows * 2**architecture.n_qubits * gates
    fd_ms = dur[sel("train.finite_diff_gradient")] * 1e3
    iterations = calls("train.finite_diff_gradient", "train.train_online")
    train_evals = (
        calls("arch.forward", "train.train_online")
        + int(sizes[sel("arch.forward_batch", "train.train_online")].sum())
    )
    return {
        "data.load_s": total("data.load_wbc_csv"),
        "data.encode_s": total("data.compute_bounds") + total("data.encode"),
        "data.rows": int(sizes[sel("data.load_wbc_csv")].sum()),
        "qsim.apply_gate.calls": calls("qsim.apply_gate"),
        "qsim.apply_gate.self_s": self_s("qsim.apply_gate"),
        "qsim.apply_gate.us_per_call": per(self_s("qsim.apply_gate") * 1e6, calls("qsim.apply_gate")),
        "qsim.run_circuit.self_s": self_s("qsim.run_circuit"),
        "qsim.prob_one.self_s": self_s("qsim.prob_one"),
        "arch.build_circuit.calls": calls("arch.build_circuit"),
        "arch.build_circuit.self_s": self_s("arch.build_circuit"),
        "arch.forward.calls": calls("arch.forward"),
        "arch.forward.self_s": self_s("arch.forward"),
        "arch.forward.train_online_s": total("arch.forward", "train.train_online"),
        "arch.forward.evaluate_s": total("arch.forward", "train.evaluate"),
        "arch.forward.run_share": per(total("arch.forward"), run_s),
        "arch.forward_batch.calls": calls("arch.forward_batch"),
        "arch.forward_batch.rows": batch_rows,
        "arch.forward_batch.self_s": self_s("arch.forward_batch"),
        "arch.forward_batch.amp_updates": amp_updates,
        "arch.forward_batch.ns_per_amp_update": per(self_s("arch.forward_batch") * 1e9, amp_updates),
        "train.finite_diff_gradient.calls": calls("train.finite_diff_gradient"),
        "train.finite_diff_gradient.self_s": self_s("train.finite_diff_gradient"),
        "train.finite_diff_gradient.ms_p50": float(np.median(fd_ms)) if len(fd_ms) else 0.0,
        "train.finite_diff_gradient.ms_p99": (
            float(np.percentile(fd_ms, 99)) if len(fd_ms) >= P99_MIN_CALLS else 0.0
        ),
        "train.finite_diff_gradient.run_share": per(total("train.finite_diff_gradient"), run_s),
        "train.loss.calls": tracer.counts.get("train.loss", 0),
        "train.step.self_s": self_s("train.step"),
        "train.train_online.self_s": self_s("train.train_online"),
        "train.evaluate.self_s": self_s("train.evaluate"),
        "train.circuit_evals_per_iter": per(train_evals, iterations),
        "train.grad_share": per(
            total("train.finite_diff_gradient", "train.train_online"), total("train.train_online")
        ),
        "cli.main.self_s": self_s("cli.main"),
        "cli.write.self_s": self_s("cli.write"),
    }


# Counts that must repeat exactly between runs of one workload. Later changes
# (fused rows, an adjoint gradient) move them on purpose, so values are not gated.
COUNTS = (
    "data.rows",
    "qsim.apply_gate.calls",
    "arch.build_circuit.calls",
    "arch.forward.calls",
    "arch.forward_batch.calls",
    "arch.forward_batch.rows",
    "arch.forward_batch.amp_updates",
    "train.finite_diff_gradient.calls",
    "train.loss.calls",
    "train.circuit_evals_per_iter",
)

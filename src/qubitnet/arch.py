"""Circuit architectures and the forward pass.

Two templates:

- PartialChain: per layer, one RY per qubit followed by a linear CX chain
  (qubit i controls i+1). Parameter count = n_layers * n_qubits.
- FullyEntangled: per layer, for each ordered pair (i, j) with i != j in
  lexicographic order, CX(i, j) then a U3 on j. Parameter count =
  3 * n_qubits * (n_qubits - 1) * n_layers.

The input is encoded as an initial RY(angle) on each qubit; the prediction
is the probability of measuring 1 on the last qubit (index n-1).

The topology is walked once per architecture, into a cached layout of
(kind, qubits, first param index) per step, where a step is one rotation or
a run of consecutive CX gates. That layout feeds both `build_circuit` (Gate
objects, for the dense-oracle tests) and one batched run on qsim's kernel,
which applies each CX run as one gather: `forward` is its one-row case, and
`forward_batch` scores many parameter rows that share one input.

The batched run evaluates shared prefixes once. Rows branch from row 0: a
row joins the batch at the first rotation where its parameters differ from
row 0's, reading row 0's state there, so a finite-difference batch (row 0
unshifted, each other row shifted on one parameter) simulates each prefix
once. The rule looks only at the rows, never at where they came from, and
each row's amplitudes are bit-identical to those of a run of the row
through the whole circuit. The states live in two buffers allocated once
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qsim

PARTIAL_CHAIN = "partial-chain"
FULLY_ENTANGLED = "fully-entangled"
TOPOLOGIES = (PARTIAL_CHAIN, FULLY_ENTANGLED)


@dataclass(frozen=True)
class Architecture:
    n_qubits: int
    n_layers: int
    topology: str = PARTIAL_CHAIN

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")


def param_count(arch: Architecture) -> int:
    if arch.topology == PARTIAL_CHAIN:
        return arch.n_layers * arch.n_qubits
    return 3 * arch.n_qubits * (arch.n_qubits - 1) * arch.n_layers


def check_params(arch: Architecture, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    expected = param_count(arch)
    if params.shape != (expected,):
        raise ValueError(
            f"expected {expected} parameters for {arch.topology} "
            f"n={arch.n_qubits} layers={arch.n_layers}, got shape {params.shape}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError(f"parameters must be finite, got {params}")
    return params


def check_input(arch: Architecture, angles: np.ndarray) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (arch.n_qubits,):
        raise ValueError(
            f"expected {arch.n_qubits} input angles, got shape {angles.shape}"
        )
    if not np.all((angles >= 0) & (angles <= np.pi)):  # also rejects NaN
        raise ValueError(f"input angles must be finite and lie in [0, pi], got {angles}")
    return angles


# Parameters taken by each parameterized gate kind of the templates.
_WIDTH = {"ry": 1, "u3": 3}


@lru_cache(maxsize=None)
def _layout(arch: Architecture) -> tuple[tuple[str, tuple, int], ...]:
    """The entangling layers as (kind, qubits, first param index) per step.

    A rotation step holds its (target,). A "cx" step is a run of consecutive
    CX gates and holds their (control, target) pairs in circuit order.
    Parameter consumption is layer-major, then qubit/pair order. A cx run
    takes no parameter; its index is that of the next parameterized gate.
    """
    n = arch.n_qubits
    steps = []
    k = 0
    for _ in range(arch.n_layers):
        if arch.topology == PARTIAL_CHAIN:
            for q in range(n):
                steps.append(("ry", (q,), k))
                k += 1
            if n > 1:
                steps.append(("cx", tuple((q, q + 1) for q in range(n - 1)), k))
        else:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    steps.append(("cx", ((i, j),), k))
                    steps.append(("u3", (j,), k))
                    k += 3
    return tuple(steps)


def build_circuit(arch: Architecture, input_angles, params) -> list[qsim.Gate]:
    """Emit the gate sequence: encoding layer, then the entangling layers.

    The same circuit `forward` simulates, as `Gate` objects for the dense
    oracle. Two builds with identical arguments are bit-identical.
    """
    angles = check_input(arch, input_angles)
    p = check_params(arch, params)
    gates = [qsim.ry(a, q) for q, a in enumerate(angles)]
    for kind, qubits, k in _layout(arch):
        if kind == "cx":
            gates += [qsim.cx(*pair) for pair in qubits]
        else:
            angles_k = tuple(float(v) for v in p[k : k + _WIDTH[kind]])
            gates.append(qsim.Gate(kind, qubits, angles_k))
    return gates


@lru_cache(maxsize=None)
def _rotations(arch: Architecture) -> tuple[np.ndarray, int]:
    """First param index of each rotation step of `_layout`, and the params per rotation."""
    starts = [k for kind, _, k in _layout(arch) if kind != "cx"]
    width = _WIDTH["ry" if arch.topology == PARTIAL_CHAIN else "u3"]
    return np.array(starts, dtype=np.intp), width


def _live(buffer: np.ndarray, n_rows: int, dim: int) -> np.ndarray:
    """The first n_rows states of a buffer, as a compact batch-innermost (n_rows, dim) view."""
    return buffer[: n_rows * dim].reshape(dim, n_rows).T


def _run(arch: Architecture, angles: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """P(1) on the last qubit after the circuit, for each row of parameters.

    Rows share prefixes with row 0. A row equal to row 0 on every parameter
    before a rotation has row 0's state up to that rotation, so it is not
    simulated before it: it branches there, reading row 0's state. Each
    row's branch rotation is the one holding its first parameter that
    differs from row 0, found from the rows themselves. Rows are stably
    sorted by it, so the live batch is always a leading block, and the
    result is put back in the caller's order; rows equal to row 0 throughout
    take row 0's result. At a rotation, the rows that branched earlier apply
    row 0's matrix as one (2, 2) matrix, unless one of them differs from row
    0 there, and the branching rows apply their own. An FD batch of 2P + 1
    rows thus updates 1 + 2j rows at its j-th RY rotation instead of 2P + 1
    (1 + 6j at a U3). The branch counts are worked out once per call, and
    the matrices of every row at every rotation are built in one call: with
    one `u3_matrices` call per rotation instead, the bookkeeping made a
    one-row 10-qubit partial-chain forward about 10% slower.

    The states live in two buffers sized for the final batch and used in
    turn: a new array per step, growing with the batch, cost the 541-row
    fully-entangled FD batch 45% more peak RSS and 12x the page faults.
    """
    starts, width = _rotations(arch)
    n_rot = len(starts)
    # differs[b, r]: row b differs from row 0 at rotation r. branch[b]: the
    # first such rotation, n_rot if none, -1 for row 0 itself. own[r]: a row
    # that branched before rotation r differs from row 0 there. live[r + 1]:
    # rows branched by rotation r.
    differs = np.logical_or.reduceat(rows != rows[0], starts, axis=1)
    branch = np.logical_and.accumulate(~differs, axis=1).sum(axis=1)
    branch[0] = -1
    own = (differs & (branch[:, None] < np.arange(n_rot))).any(axis=0)
    order = np.argsort(branch, kind="stable")
    live = np.searchsorted(branch[order], np.arange(-1, n_rot), side="right")
    # (rotation, row, 2, 2)
    mats = qsim.u3_matrices(*rows[order].reshape(len(rows), n_rot, width).T)

    dim = 1 << arch.n_qubits
    front, back = np.empty((2, live[-1] * dim), mats.dtype)
    psi = _live(front, 1, dim)
    psi[:] = qsim.ry_product_state(angles)
    plan = zip(range(n_rot), live[:-1].tolist(), live[1:].tolist(), own.tolist())
    n = 1
    for kind, qubits, _ in _layout(arch):
        if kind == "cx":
            out = qsim.apply_cx_chain(psi, qubits, _live(back, n, dim))
        else:
            r, n_old, n, own_mats = next(plan)
            out = _live(back, n, dim)
            old_mats = mats[r, :n_old] if own_mats else mats[r, 0]
            qsim.apply_1q(psi, old_mats, *qubits, out[:n_old])
            if n > n_old:
                qsim.apply_1q(psi[:1], mats[r, n_old:n], *qubits, out[n_old:])
        psi, front, back = out, back, front
    probs = qsim.prob_one_rows(psi, arch.n_qubits - 1)
    result = np.empty(len(rows))
    result[order] = np.concatenate([probs, np.repeat(probs[:1], len(rows) - len(probs))])
    return result


def forward(arch: Architecture, input_angles, params) -> float:
    """Predicted label: prob of 1 on the last qubit after the circuit."""
    angles = check_input(arch, input_angles)
    return float(_run(arch, angles, check_params(arch, params)[None, :])[0])


def forward_batch(arch: Architecture, input_angles, param_rows: np.ndarray) -> np.ndarray:
    """forward() for many parameter vectors sharing one input, vectorized.

    Equivalent to [forward(arch, input_angles, row) for row in param_rows]
    up to rounding; exists so a finite-difference gradient's 2P + 1
    evaluations run as one batched pass.
    """
    angles = check_input(arch, input_angles)
    rows = np.atleast_2d(np.asarray(param_rows, dtype=float))
    expected = param_count(arch)
    if len(rows) == 0 or rows.shape[1] != expected:
        raise ValueError(
            f"expected one or more rows of {expected} parameters, got shape {rows.shape}"
        )
    return _run(arch, angles, rows)

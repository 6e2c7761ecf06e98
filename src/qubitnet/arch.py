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
(kind, qubits, first param index) per gate. That layout feeds both
`build_circuit` (Gate objects, for the dense-oracle tests) and one batched
run on qsim's kernel: `forward` is its one-row case, and `forward_batch`
scores many parameter rows that share one input.
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
def _layout(arch: Architecture) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """The entangling layers as (kind, qubits, first param index) per gate.

    Parameter consumption is layer-major, then qubit/pair order. A cx takes
    no parameter; its index is that of the next parameterized gate.
    """
    n = arch.n_qubits
    gates = []
    k = 0
    for _ in range(arch.n_layers):
        if arch.topology == PARTIAL_CHAIN:
            for q in range(n):
                gates.append(("ry", (q,), k))
                k += 1
            gates += [("cx", (q, q + 1), k) for q in range(n - 1)]
        else:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    gates.append(("cx", (i, j), k))
                    gates.append(("u3", (j,), k))
                    k += 3
    return tuple(gates)


def build_circuit(arch: Architecture, input_angles, params) -> list[qsim.Gate]:
    """Emit the gate sequence: encoding layer, then the entangling layers.

    The same circuit `forward` simulates, as `Gate` objects for the dense
    oracle. Two builds with identical arguments are bit-identical.
    """
    angles = check_input(arch, input_angles)
    p = check_params(arch, params)
    gates = [qsim.ry(a, q) for q, a in enumerate(angles)]
    for kind, qubits, k in _layout(arch):
        angles_k = tuple(float(v) for v in p[k : k + _WIDTH.get(kind, 0)])
        gates.append(qsim.Gate(kind, qubits, angles_k))
    return gates


def _run(arch: Architecture, angles: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """P(1) on the last qubit after the circuit, for each row of parameters.

    The encoding is prepared directly as a product state, copied into each
    row: a broadcast view in its place cost the 540-row fully-entangled FD
    batch a million more page faults per training command, and 20% in time.
    """
    psi = np.repeat(qsim.ry_product_state(angles), len(rows), axis=0)
    for kind, qubits, k in _layout(arch):
        if kind == "cx":
            psi = qsim.apply_cx(psi, *qubits)
        else:
            mats = qsim.u3_matrices(*rows[:, k : k + _WIDTH[kind]].T)
            psi = qsim.apply_1q(psi, mats, *qubits)
    return qsim.prob_one_rows(psi, arch.n_qubits - 1)


def forward(arch: Architecture, input_angles, params) -> float:
    """Predicted label: prob of 1 on the last qubit after the circuit."""
    angles = check_input(arch, input_angles)
    return float(_run(arch, angles, check_params(arch, params)[None, :])[0])


def forward_batch(arch: Architecture, input_angles, param_rows: np.ndarray) -> np.ndarray:
    """forward() for many parameter vectors sharing one input, vectorized.

    Equivalent to [forward(arch, input_angles, row) for row in param_rows]
    up to rounding; exists so a finite-difference gradient's 2P evaluations
    run as one batched pass.
    """
    angles = check_input(arch, input_angles)
    rows = np.atleast_2d(np.asarray(param_rows, dtype=float))
    expected = param_count(arch)
    if rows.shape[1] != expected:
        raise ValueError(f"expected rows of {expected} parameters, got {rows.shape[1]}")
    return _run(arch, angles, rows)

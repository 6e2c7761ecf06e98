"""Exact statevector simulator for small qubit registers.

Conventions, fixed here only; other modules call this one and never index
amplitudes themselves:
- qubit 0 is the least-significant bit of the basis-state index
- U3(theta, phi, lam) = [[cos t/2, -e^{i lam} sin t/2],
                         [e^{i phi} sin t/2, e^{i(phi+lam)} cos t/2]]
- RY(theta) = U3(theta, 0, 0); RZ(phi) = diag(1, e^{i phi}) = U3(0, phi, 0)

There is one kernel. It works on a batch of B states held as a (B, 2^n)
complex array, one state per row: `apply_1q` applies one 2x2 matrix per row
(built by `u3_matrices`), `apply_cx` permutes amplitudes, and
`prob_one_rows` reads P(1) on a qubit for every row. `apply_gate`,
`run_circuit` and `prob_one` are its one-row case on `StateVector` and
`Gate` objects. Probabilities are computed exactly from amplitudes.

`dense_oracle` multiplies full 2^n x 2^n matrices instead; it exists only
as an independent cross-check for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_QUBITS = 20
ORACLE_MAX_QUBITS = 4


@dataclass(frozen=True)
class Gate:
    """A single circuit element: 'ry', 'rz', 'u3' or 'cx'.

    `qubits` holds (target,) for rotations and (control, target) for cx.
    `angles` holds the rotation angles in radians (empty for cx).
    """

    kind: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def matrix(self) -> np.ndarray:
        """2x2 matrix for single-qubit gates; raises for cx."""
        if self.kind == "ry":
            return u3_matrices(self.angles[0])
        if self.kind == "rz":
            return u3_matrices(0.0, self.angles[0])
        if self.kind == "u3":
            return u3_matrices(*self.angles)
        raise ValueError(f"gate kind {self.kind!r} has no 2x2 matrix")


def u3_matrices(theta, phi=0.0, lam=0.0) -> np.ndarray:
    """U3 matrices, one per element of the broadcast angles: shape (..., 2, 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    mats = np.empty(np.broadcast(c, phi, lam).shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = c
    mats[..., 0, 1] = -np.exp(1j * lam) * s
    mats[..., 1, 0] = np.exp(1j * phi) * s
    mats[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return mats


def ry(theta: float, qubit: int) -> Gate:
    return Gate("ry", (qubit,), (float(theta),))


def rz(phi: float, qubit: int) -> Gate:
    return Gate("rz", (qubit,), (float(phi),))


def u3(theta: float, phi: float, lam: float, qubit: int) -> Gate:
    return Gate("u3", (qubit,), (float(theta), float(phi), float(lam)))


def cx(control: int, target: int) -> Gate:
    if control == target:
        raise ValueError("cx control and target must differ")
    return Gate("cx", (control, target))


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.amplitudes is not None and len(self.amplitudes) != 2**self.n_qubits:
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got {len(self.amplitudes)}"
            )

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def new_zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits. Rejects registers larger than MAX_QUBITS."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(state: StateVector, q: int):
    if not 0 <= q < state.n_qubits:
        raise IndexError(f"qubit {q} out of range for {state.n_qubits}-qubit state")


def ry_product_state(angles) -> np.ndarray:
    """RY(angles[q]) on each qubit q of |0...0>, as a (1, 2^n) batch of one row."""
    psi = np.ones(1, dtype=complex)
    for a in angles:  # each later qubit is a more significant bit
        psi = np.kron([np.cos(a / 2.0), np.sin(a / 2.0)], psi)
    return psi.reshape(1, -1)


def apply_1q(psi: np.ndarray, mats: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 matrix to `qubit` of each row of psi (B, 2^n).

    `mats` is (B, 2, 2), one matrix per row, or a single (2, 2) for all rows.
    """
    t = psi.reshape(len(psi), -1, 2, 1 << qubit)
    t0, t1 = t[:, :, 0, :], t[:, :, 1, :]
    coef = mats.reshape(-1, 2, 2, 1, 1)
    out = np.empty_like(t)
    out[:, :, 0, :] = coef[:, 0, 0] * t0 + coef[:, 0, 1] * t1
    out[:, :, 1, :] = coef[:, 1, 0] * t0 + coef[:, 1, 1] * t1
    return out.reshape(psi.shape)


@lru_cache(maxsize=None)
def _cx_permutation(dim: int, control: int, target: int) -> np.ndarray:
    indices = np.arange(dim)
    control_on = (indices >> control) & 1 == 1
    return np.where(control_on, indices ^ (1 << target), indices)


def apply_cx(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    """CX on each row of psi (B, 2^n): flips `target` where `control` is 1."""
    return psi[:, _cx_permutation(psi.shape[1], control, target)]


def prob_one_rows(psi: np.ndarray, qubit: int) -> np.ndarray:
    """Exact Born probability of measuring 1 on `qubit`, for each row of psi."""
    block = psi.reshape(len(psi), -1, 2, 1 << qubit)[:, :, 1, :]
    return np.sum(np.abs(block) ** 2, axis=(1, 2))


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new StateVector. Norm is preserved."""
    for q in gate.qubits:
        _check_qubit(state, q)
    psi = state.amplitudes.reshape(1, -1)
    if gate.kind == "cx":
        psi = apply_cx(psi, *gate.qubits)
    else:
        psi = apply_1q(psi, gate.matrix(), gate.qubits[0])
    return StateVector(state.n_qubits, psi.reshape(-1))


def run_circuit(n_qubits: int, gates) -> StateVector:
    """Apply a gate sequence to |0...0>."""
    state = new_zero_state(n_qubits)
    for g in gates:
        state = apply_gate(state, g)
    return state


def prob_one(state: StateVector, qubit: int) -> float:
    """Exact Born probability of measuring 1 on `qubit`."""
    _check_qubit(state, qubit)
    return float(prob_one_rows(state.amplitudes.reshape(1, -1), qubit)[0])


def gate_full_matrix(n_qubits: int, gate: Gate) -> np.ndarray:
    """Dense 2^n x 2^n matrix of `gate` acting on an n-qubit register."""
    dim = 2**n_qubits
    if gate.kind == "cx":
        control, target = gate.qubits
        mat = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            out = j ^ (1 << target) if (j >> control) & 1 else j
            mat[out, j] = 1.0
        return mat
    # Kronecker order: qubit n-1 is the most-significant factor
    mat = np.array([[1.0]], dtype=complex)
    for q in range(n_qubits - 1, -1, -1):
        factor = gate.matrix() if q == gate.qubits[0] else np.eye(2, dtype=complex)
        mat = np.kron(mat, factor)
    return mat


def dense_oracle(n_qubits: int, gates) -> StateVector:
    """Brute-force oracle: full-matrix products applied to |0...0>.

    O(4^n) memory, so capped at ORACLE_MAX_QUBITS. Exists purely as an
    independent cross-check of the kernel behind apply_gate.
    """
    if not 1 <= n_qubits <= ORACLE_MAX_QUBITS:
        raise ValueError(f"dense oracle supports 1..{ORACLE_MAX_QUBITS} qubits")
    amps = new_zero_state(n_qubits).amplitudes
    for g in gates:
        amps = gate_full_matrix(n_qubits, g) @ amps
    return StateVector(n_qubits, amps)

"""Exact statevector simulator for small qubit registers.

Conventions, fixed here only; other modules call this one and never index
amplitudes themselves:
- qubit 0 is the least-significant bit of the basis-state index
- U3(theta, phi, lam) = [[cos t/2, -e^{i lam} sin t/2],
                         [e^{i phi} sin t/2, e^{i(phi+lam)} cos t/2]]
- RY(theta) = U3(theta, 0, 0); RZ(phi) = diag(1, e^{i phi}) = U3(0, phi, 0)

There is one kernel. It works on a batch of B states held as a (B, 2^n)
array, one state per row: `apply_1q` applies one 2x2 matrix per row (built
by `u3_matrices`), `apply_cx_chain` applies a run of CX gates as one
permutation of amplitudes (`apply_cx` is its one-gate case), and
`prob_one_rows` reads P(1) on a qubit for every row. `apply_gate`,
`run_circuit` and `prob_one` are its one-row case on `StateVector` and
`Gate` objects. Probabilities are computed exactly from amplitudes.

The dtype follows the gates. RY matrices are real, so `u3_matrices(theta)`
and the RY product state `ry_product_state` are float64, and `apply_1q`
returns the common type of its state and matrices: an RY/CX circuit on an RY
encoding never allocates a complex array, and a state turns complex at its
first U3 or RZ. This is exact: with zero imaginary parts the complex path
computes the same real products and sums.

States are kept batch-innermost (Fortran-ordered): one amplitude index of
all rows sits in one contiguous run. A C-ordered gather made the 541-row
fully-entangled batch 1.5x slower (782 -> 1172 ms per batch, 2-core Xeon).
`apply_1q` and `apply_cx_chain` write into a caller-given `out`, so a caller
can run a whole circuit in two reused buffers; `out` may be a compact
batch-innermost view of the leading part of a larger buffer, and `apply_1q`
may read one row of psi for every row of `out`. Without `out`, each
allocates a new array (`apply_1q` keeps psi's layout, the gather makes it
batch-innermost). The gather is `np.take` on the transposed (2^n, B) arrays
along their contiguous axis 0, with `mode="clip"` (the index is a
permutation), which writes straight into `out`. On a 2-core Xeon, for 41
and 541 rows of 1024 amplitudes, it took 0.7-0.9x the time of `psi[:, perm]`;
the default mode, which gathers into a temporary first, 1.6-2.9x; and
`np.take` along axis 1 into the strided `out`, 15-20x.

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


def u3_matrices(theta, phi=None, lam=None) -> np.ndarray:
    """U3 matrices, one per element of the broadcast angles: shape (..., 2, 2).

    Without `phi` and `lam` this is RY, returned as real float64 matrices;
    otherwise a missing angle is 0 and the matrices are complex.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if phi is None and lam is None:
        mats = np.empty(np.shape(c) + (2, 2))
        mats[..., 0, 0] = c
        mats[..., 0, 1] = -s
        mats[..., 1, 0] = s
        mats[..., 1, 1] = c
        return mats
    phi = 0.0 if phi is None else phi
    lam = 0.0 if lam is None else lam
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
    """RY(angles[q]) on each qubit q of |0...0>, as a real (1, 2^n) batch of one row."""
    psi = np.ones(1)
    for a in angles:  # each later qubit is a more significant bit
        psi = np.kron([np.cos(a / 2.0), np.sin(a / 2.0)], psi)
    return psi.reshape(1, -1)


def apply_1q(
    psi: np.ndarray, mats: np.ndarray, qubit: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a 2x2 matrix to `qubit` of each row of psi (B, 2^n).

    `mats` is (B, 2, 2), one matrix per row, or a single (2, 2) for all rows.
    The result has the common dtype of psi and mats. It is written into `out`
    when given, where psi may be a single row read by every row of `out`;
    otherwise it is a new array with psi's memory layout.
    """
    t = psi.reshape(len(psi), -1, 2, 1 << qubit)
    if out is None:
        o = np.empty_like(t, dtype=np.result_type(t, mats))
    else:
        o = out.reshape(len(out), -1, 2, 1 << qubit, copy=False)
    t0, t1 = t[:, :, 0, :], t[:, :, 1, :]
    coef = mats.reshape(-1, 2, 2, 1, 1)
    # The first product goes straight into the output, so each half takes one
    # large temporary, not two. With two, a process that had run earlier
    # commands had malloc hand heap pages back and fault them in again: 115k
    # page faults per 541-row fully-entangled FD batch, against 1.8k with one.
    for row in (0, 1):
        half = o[:, :, row, :]
        np.multiply(coef[:, row, 0], t0, out=half)
        half += coef[:, row, 1] * t1
    return o.reshape(len(o), -1)


@lru_cache(maxsize=None)
def _cx_chain_permutation(dim: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """One gather index equal to the CX gates of `pairs` applied in order."""
    indices = np.arange(dim)
    perm = indices
    for control, target in pairs:
        control_on = (indices >> control) & 1 == 1
        perm = perm[np.where(control_on, indices ^ (1 << target), indices)]
    return perm


def apply_cx_chain(
    psi: np.ndarray, pairs: tuple[tuple[int, int], ...], out: np.ndarray | None = None
) -> np.ndarray:
    """CX(control, target) for each pair in order, on each row of psi (B, 2^n).

    The gates compose into one cached permutation, so the run costs one
    gather, written into `out` when given, else into a new batch-innermost
    array.
    """
    if out is None:
        out = np.empty(psi.shape[::-1], psi.dtype).T
    perm = _cx_chain_permutation(psi.shape[1], pairs)
    np.take(psi.T, perm, axis=0, out=out.T, mode="clip")
    return out


def apply_cx(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    """CX on each row of psi (B, 2^n): flips `target` where `control` is 1."""
    return apply_cx_chain(psi, ((control, target),))


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

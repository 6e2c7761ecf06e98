import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitnet import qsim


def random_gate(rng, n):
    kind = rng.choice(["ry", "rz", "u3", "cx"] if n > 1 else ["ry", "rz", "u3"])
    if kind == "cx":
        control, target = rng.choice(n, size=2, replace=False)
        return qsim.cx(int(control), int(target))
    q = int(rng.integers(n))
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
    if kind == "ry":
        return qsim.ry(angles[0], q)
    if kind == "rz":
        return qsim.rz(angles[0], q)
    return qsim.u3(angles[0], angles[1], angles[2], q)


def test_zero_state_one_qubit():
    s = qsim.new_zero_state(1)
    assert np.allclose(s.amplitudes, [1, 0])


def test_zero_state_two_qubits():
    s = qsim.new_zero_state(2)
    assert np.allclose(s.amplitudes, [1, 0, 0, 0])


def test_zero_state_ten_qubits():
    s = qsim.new_zero_state(10)
    assert len(s.amplitudes) == 1024
    assert s.amplitudes[0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


@pytest.mark.parametrize("n", [0, -1, 21])
def test_zero_state_rejects_bad_size(n):
    with pytest.raises(ValueError):
        qsim.new_zero_state(n)


def test_ry_pi_flips():
    s = qsim.apply_gate(qsim.new_zero_state(1), qsim.ry(np.pi, 0))
    assert np.allclose(s.amplitudes, [0, 1], atol=1e-12)


def test_cx_truth_table():
    # |10> (qubit 0 set, control) -> |11>
    s = qsim.new_zero_state(2)
    s = qsim.apply_gate(s, qsim.ry(np.pi, 0))
    s = qsim.apply_gate(s, qsim.cx(0, 1))
    expected = np.zeros(4)
    expected[3] = 1.0
    assert np.allclose(np.abs(s.amplitudes) ** 2, expected, atol=1e-12)


def test_cx_control_off_is_noop():
    s = qsim.apply_gate(qsim.new_zero_state(2), qsim.cx(0, 1))
    assert np.allclose(s.amplitudes, [1, 0, 0, 0])


def test_cx_rejects_equal_control_target():
    with pytest.raises(ValueError):
        qsim.cx(1, 1)


def test_apply_gate_rejects_bad_index():
    with pytest.raises(IndexError):
        qsim.apply_gate(qsim.new_zero_state(2), qsim.ry(0.5, 2))


def test_prob_one_zero_state():
    assert qsim.prob_one(qsim.new_zero_state(1), 0) == 0.0


def test_prob_one_equal_superposition():
    s = qsim.apply_gate(qsim.new_zero_state(1), qsim.ry(np.pi / 2, 0))
    assert abs(qsim.prob_one(s, 0) - 0.5) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.7])
def test_prob_one_matches_closed_form(theta):
    s = qsim.apply_gate(qsim.new_zero_state(1), qsim.ry(theta, 0))
    assert abs(qsim.prob_one(s, 0) - np.sin(theta / 2) ** 2) < 1e-12


def test_prob_one_rejects_bad_index():
    with pytest.raises(IndexError):
        qsim.prob_one(qsim.new_zero_state(2), 5)


def test_gate_matrices_are_unitary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_gate(rng, 3)
        mat = qsim.gate_full_matrix(3, g)
        assert np.allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)


def test_dense_oracle_single_ry():
    s = qsim.dense_oracle(1, [qsim.ry(np.pi, 0)])
    assert np.allclose(s.amplitudes, [0, 1], atol=1e-12)


def test_dense_oracle_cx_after_flip():
    s = qsim.dense_oracle(2, [qsim.ry(np.pi, 0), qsim.cx(0, 1)])
    assert np.allclose(np.abs(s.amplitudes) ** 2, [0, 0, 0, 1], atol=1e-12)


def test_dense_oracle_rejects_large_register():
    with pytest.raises(ValueError):
        qsim.dense_oracle(5, [])


def test_oracle_equivalence_random_circuits():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        gates = [random_gate(rng, n) for _ in range(int(rng.integers(1, 31)))]
        fast = qsim.run_circuit(n, gates)
        slow = qsim.dense_oracle(n, gates)
        assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-10


def test_norm_preserved_under_random_gates():
    rng = np.random.default_rng(3)
    state = qsim.new_zero_state(4)
    for _ in range(1000):
        state = qsim.apply_gate(state, random_gate(rng, 4))
        assert abs(state.norm_sq() - 1.0) < 1e-12


def test_u3_theta_only_equals_ry():
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
        a = qsim.run_circuit(2, [qsim.ry(theta, 1)])
        b = qsim.run_circuit(2, [qsim.u3(theta, 0.0, 0.0, 1)])
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_cx_is_involution():
    rng = np.random.default_rng(13)
    state = qsim.run_circuit(3, [random_gate(rng, 3) for _ in range(10)])
    twice = qsim.apply_gate(qsim.apply_gate(state, qsim.cx(0, 2)), qsim.cx(0, 2))
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_gate_is_local_on_product_states():
    # rotating qubit 0 must not move prob_one on qubits 1 and 2
    rng = np.random.default_rng(17)
    for _ in range(20):
        prep = [qsim.ry(rng.uniform(0, np.pi), q) for q in range(3)]
        state = qsim.run_circuit(3, prep)
        before = [qsim.prob_one(state, q) for q in (1, 2)]
        state = qsim.apply_gate(state, qsim.u3(*rng.uniform(-3, 3, 3), 0))
        after = [qsim.prob_one(state, q) for q in (1, 2)]
        assert np.allclose(before, after, atol=1e-12)


def test_ry_matrices_are_real_u3_matrices():
    theta = np.random.default_rng(19).uniform(-2 * np.pi, 2 * np.pi, size=(5, 3))
    real = qsim.u3_matrices(theta)
    full = qsim.u3_matrices(theta, 0.0, 0.0)
    assert real.dtype == np.float64 and full.dtype == np.complex128
    assert np.array_equal(real, full.real)
    assert not np.any(full.imag)


def real_batch(rng, order):
    psi = rng.normal(size=(6, 16))
    return np.asfortranarray(psi) if order == "F" else psi


@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_1q_real_path_matches_complex_path(order):
    rng = np.random.default_rng(23)
    psi = real_batch(rng, order)
    ry_mats = qsim.u3_matrices(rng.uniform(-np.pi, np.pi, 6))
    u3_mats = qsim.u3_matrices(*rng.uniform(-np.pi, np.pi, (3, 6)))
    for qubit in range(4):
        real = qsim.apply_1q(psi, ry_mats, qubit)
        full = qsim.apply_1q(psi.astype(complex), ry_mats.astype(complex), qubit)
        assert real.dtype == np.float64 and full.dtype == np.complex128
        assert np.array_equal(real, full.real)
        assert not np.any(full.imag)
        mixed = qsim.apply_1q(psi, u3_mats, qubit)
        assert mixed.dtype == np.complex128
        assert np.array_equal(mixed, qsim.apply_1q(psi.astype(complex), u3_mats, qubit))


@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_1q_keeps_memory_layout(order):
    rng = np.random.default_rng(29)
    psi = real_batch(rng, order)
    for mats in (qsim.u3_matrices(0.4), qsim.u3_matrices(0.4, 1.0, 2.0)):
        for qubit in range(4):
            out = qsim.apply_1q(psi, mats, qubit)
            assert out.flags.f_contiguous if order == "F" else out.flags.c_contiguous


@pytest.mark.parametrize("pairs", [
    ((0, 1), (1, 2), (2, 3), (3, 4)),
    ((3, 0), (0, 4), (4, 3), (1, 2), (2, 1), (0, 3), (4, 1)),
])
def test_cx_chain_equals_gates_one_by_one(pairs):
    rng = np.random.default_rng(31)
    psi = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
    one_by_one = psi
    for control, target in pairs:
        one_by_one = qsim.apply_cx(one_by_one, control, target)
    assert np.array_equal(qsim.apply_cx_chain(psi, pairs), one_by_one)


# Property tests: derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None)
ANGLE = st.floats(-2 * np.pi, 2 * np.pi)


def gates_on(n):
    qubit = st.integers(0, n - 1)
    rotations = st.one_of(
        st.builds(qsim.ry, ANGLE, qubit),
        st.builds(qsim.rz, ANGLE, qubit),
        st.builds(qsim.u3, ANGLE, ANGLE, ANGLE, qubit),
    )
    if n == 1:
        return rotations
    return rotations | st.permutations(range(n)).map(lambda p: qsim.cx(p[0], p[1]))


CIRCUITS = st.integers(1, qsim.ORACLE_MAX_QUBITS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(gates_on(n), min_size=1, max_size=30))
)


@PROPERTY
@given(CIRCUITS)
def test_run_circuit_matches_dense_oracle_property(circuit):
    n, gates = circuit
    fast = qsim.run_circuit(n, gates)
    slow = qsim.dense_oracle(n, gates)
    assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-10


@PROPERTY
@given(CIRCUITS)
def test_run_circuit_preserves_norm_property(circuit):
    n, gates = circuit
    assert abs(qsim.run_circuit(n, gates).norm_sq() - 1.0) < 1e-12


def kron_product_state(angles):
    """Reference RY encoding of one input: one np.kron per qubit."""
    psi = np.ones(1)
    for a in angles:  # each later qubit is a more significant bit
        psi = np.kron([np.cos(a / 2.0), np.sin(a / 2.0)], psi)
    return psi


@PROPERTY
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=st.floats(0, np.pi)))
def test_ry_product_state_equals_kron(angles):
    expected = np.array([kron_product_state(row) for row in angles])
    assert np.array_equal(qsim.ry_product_state(angles), expected)
    # Into the leading block of a larger buffer, as a batch-innermost view,
    # in the complex dtype a fully-entangled run holds its states in.
    b, dim = len(angles), 1 << angles.shape[1]
    buffer = np.full((b + 2) * dim, np.nan, dtype=complex)
    out = buffer[: b * dim].reshape(dim, b).T
    assert qsim.ry_product_state(angles, out) is out
    assert np.array_equal(out, expected)
    assert np.isnan(buffer[b * dim :]).all()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitnet import arch, qsim, train
from qubitnet.arch import FULLY_ENTANGLED, PARTIAL_CHAIN, Architecture


def test_param_count_partial_chain_paper_case():
    assert arch.param_count(Architecture(5, 2, PARTIAL_CHAIN)) == 10


def test_param_count_partial_chain_ten_qubits():
    assert arch.param_count(Architecture(10, 2, PARTIAL_CHAIN)) == 20


def test_param_count_fully_entangled():
    assert arch.param_count(Architecture(5, 1, FULLY_ENTANGLED)) == 60


def test_rejects_unknown_topology():
    with pytest.raises(ValueError):
        Architecture(5, 2, "ring")


def test_rejects_wrong_param_length():
    a = Architecture(5, 2, PARTIAL_CHAIN)
    with pytest.raises(ValueError):
        arch.build_circuit(a, np.zeros(5), np.zeros(9))


def test_forward_rejects_non_finite_input():
    a = Architecture(2, 1, PARTIAL_CHAIN)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            arch.forward(a, [bad, 0.0], [0.0, 0.0])


def test_check_params_rejects_non_finite():
    a = Architecture(2, 1, PARTIAL_CHAIN)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            arch.check_params(a, [bad, 0.0])


def test_rejects_out_of_range_input_angles():
    a = Architecture(2, 1, PARTIAL_CHAIN)
    with pytest.raises(ValueError):
        arch.build_circuit(a, [0.0, -0.1], np.zeros(2))


def test_build_partial_chain_n2():
    a = Architecture(2, 1, PARTIAL_CHAIN)
    gates = arch.build_circuit(a, [0.0, 0.0], [0.0, 0.0])
    kinds = [(g.kind, g.qubits) for g in gates]
    assert kinds == [
        ("ry", (0,)),
        ("ry", (1,)),
        ("ry", (0,)),
        ("ry", (1,)),
        ("cx", (0, 1)),
    ]


def test_build_partial_chain_gate_count():
    a = Architecture(5, 2, PARTIAL_CHAIN)
    gates = arch.build_circuit(a, np.zeros(5), np.zeros(10))
    assert len(gates) == 5 + 2 * (5 + 4)


def test_build_fully_entangled_gate_count():
    a = Architecture(5, 1, FULLY_ENTANGLED)
    gates = arch.build_circuit(a, np.zeros(5), np.zeros(60))
    assert len(gates) == 5 + 20 + 20


def test_build_is_deterministic():
    a = Architecture(4, 2, FULLY_ENTANGLED)
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, np.pi, 4)
    params = rng.uniform(-1, 1, arch.param_count(a))
    assert arch.build_circuit(a, angles, params) == arch.build_circuit(a, angles, params)


def test_forward_single_qubit_flip():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    assert abs(arch.forward(a, [np.pi], [0.0]) - 1.0) < 1e-12


def test_forward_cx_copies_control():
    a = Architecture(2, 1, PARTIAL_CHAIN)
    assert abs(arch.forward(a, [np.pi, 0.0], [0.0, 0.0]) - 1.0) < 1e-12


def test_forward_zero_circuit_is_zero():
    for topo, layers in ((PARTIAL_CHAIN, 2), (FULLY_ENTANGLED, 1)):
        for n in (2, 3, 5, 10):
            a = Architecture(n, layers, topo)
            assert arch.forward(a, np.zeros(n), np.zeros(arch.param_count(a))) == 0.0


def test_forward_output_in_unit_interval():
    rng = np.random.default_rng(23)
    a = Architecture(4, 2, PARTIAL_CHAIN)
    for _ in range(20):
        angles = rng.uniform(0, np.pi, 4)
        params = rng.uniform(-np.pi, np.pi, 8)
        out = arch.forward(a, angles, params)
        assert 0.0 <= out <= 1.0


def test_param_scaling_shapes():
    # linear for the chain, quadratic (ratio -> 3) for full entanglement
    for n in (3, 6, 12):
        assert arch.param_count(Architecture(n, 4, PARTIAL_CHAIN)) / n == 4
    ratios = [
        arch.param_count(Architecture(n, 1, FULLY_ENTANGLED)) / n**2
        for n in (5, 20, 100)
    ]
    assert ratios[-1] == pytest.approx(3.0, abs=0.05)
    assert all(r <= 3.0 for r in ratios)


@pytest.mark.parametrize(
    "a",
    [Architecture(4, 2, PARTIAL_CHAIN), Architecture(3, 1, FULLY_ENTANGLED)],
    ids=["chain", "full"],
)
def test_forward_batch_matches_scalar_forward(a):
    rng = np.random.default_rng(31)
    angles = rng.uniform(0, np.pi, a.n_qubits)
    rows = rng.uniform(-np.pi, np.pi, (9, arch.param_count(a)))
    batch = arch.forward_batch(a, angles, rows)
    scalar = [arch.forward(a, angles, r) for r in rows]
    assert np.max(np.abs(batch - scalar)) < 1e-12
    n = a.n_qubits
    oracle = [
        qsim.prob_one(qsim.dense_oracle(n, arch.build_circuit(a, angles, r)), n - 1)
        for r in rows
    ]
    assert np.max(np.abs(batch - oracle)) < 1e-12


def test_partial_chain_run_allocates_no_complex_array(monkeypatch):
    dtypes = []
    for name in ("ry_product_state", "u3_matrices", "apply_1q", "apply_cx_chain"):
        def spy(*args, _kernel=getattr(qsim, name)):
            out = _kernel(*args)
            dtypes.append(out.dtype)
            return out
        monkeypatch.setattr(qsim, name, spy)
    a = Architecture(4, 2, PARTIAL_CHAIN)
    arch.forward_batch(a, np.full(4, 0.7), np.ones((3, 8)))
    assert len(dtypes) == 1 + 1 + 8 + 2 and set(dtypes) == {np.dtype(np.float64)}


def test_fd_batch_updates_only_rows_that_have_branched(monkeypatch):
    updated = []
    def spy(*args, _kernel=qsim.apply_1q):
        out = _kernel(*args)
        updated.append(len(out))
        return out
    monkeypatch.setattr(qsim, "apply_1q", spy)
    a = Architecture(4, 2, PARTIAL_CHAIN)
    train.finite_diff_gradient(a, np.full(4, 0.7), 1, np.linspace(-1, 1, 8), 0.01)
    # 17 rows; the j-th of the 8 RY rotations updates the unshifted row and
    # the 2j rows shifted at or before it: 80 row-updates, not 17 * 8 = 136.
    assert sum(updated) == sum(1 + 2 * j for j in range(1, 9)) == 80


def test_forward_batch_rejects_wrong_row_length():
    a = Architecture(3, 1, PARTIAL_CHAIN)
    with pytest.raises(ValueError):
        arch.forward_batch(a, np.zeros(3), np.zeros((2, 4)))


def test_forward_is_continuous_in_each_param():
    a = Architecture(3, 1, PARTIAL_CHAIN)
    rng = np.random.default_rng(5)
    angles = rng.uniform(0, np.pi, 3)
    params = rng.uniform(-1, 1, 3)
    base = arch.forward(a, angles, params)
    delta = 1e-5
    for k in range(3):
        bumped = params.copy()
        bumped[k] += delta
        assert abs(arch.forward(a, angles, bumped) - base) < 1e-3


# Property tests: derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def batches(draw):
    """An architecture, one input, a batch of parameter rows and a row order."""
    a = draw(st.sampled_from([
        Architecture(3, 2, PARTIAL_CHAIN),
        Architecture(5, 1, PARTIAL_CHAIN),
        Architecture(3, 1, FULLY_ENTANGLED),
    ]))
    b = draw(st.integers(1, 8))
    angles = draw(arrays(float, a.n_qubits, elements=st.floats(0, np.pi)))
    rows = draw(arrays(float, (b, arch.param_count(a)), elements=st.floats(-np.pi, np.pi)))
    order = np.array(draw(st.permutations(range(b))))
    return a, angles, rows, order


@st.composite
def prefix_batches(draw):
    """Like `batches`, but most rows share a prefix with one base row.

    Rows are FD-shaped (one parameter shifted), first differ at the last
    parameter, differ from some parameter on, duplicate an earlier row, or
    copy the base row; the row order puts any of them first.
    """
    a = draw(st.sampled_from([
        Architecture(3, 2, PARTIAL_CHAIN),
        Architecture(5, 1, PARTIAL_CHAIN),
        Architecture(3, 1, FULLY_ENTANGLED),
    ]))
    n_params = arch.param_count(a)
    angle = st.floats(-np.pi, np.pi)
    angles = draw(arrays(float, a.n_qubits, elements=st.floats(0, np.pi)))
    base = draw(arrays(float, n_params, elements=angle))
    rows = [base]
    for _ in range(draw(st.integers(0, 7))):
        row = base.copy()
        kind = draw(st.sampled_from(["shift", "last", "tail", "duplicate", "copy"]))
        if kind == "shift":
            row[draw(st.integers(0, n_params - 1))] += draw(st.sampled_from([-0.01, 0.01]))
        elif kind == "last":
            row[-1] = draw(angle)
        elif kind == "tail":
            k = draw(st.integers(0, n_params - 1))
            row[k:] = draw(arrays(float, n_params - k, elements=angle))
        elif kind == "duplicate":
            row = rows[draw(st.integers(0, len(rows) - 1))].copy()
        rows.append(row)
    order = np.array(draw(st.permutations(range(len(rows)))))
    return a, angles, np.array(rows), order


@PROPERTY
@given(st.one_of(batches(), prefix_batches()))
def test_forward_batch_is_row_permutation_equivariant(batch):
    a, angles, rows, order = batch
    out = arch.forward_batch(a, angles, rows)
    assert np.array_equal(arch.forward_batch(a, angles, rows[order]), out[order])


@PROPERTY
@given(st.one_of(batches(), prefix_batches()))
def test_row_alone_matches_row_in_batch(batch):
    a, angles, rows, _ = batch
    out = arch.forward_batch(a, angles, rows)
    alone = [arch.forward(a, angles, r) for r in rows]
    assert np.max(np.abs(out - alone)) < 1e-12

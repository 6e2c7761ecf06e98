import math

import numpy as np
import pytest

from qubitnet import arch, train
from qubitnet.arch import FULLY_ENTANGLED, PARTIAL_CHAIN, Architecture
from qubitnet.train import TrainConfig


def test_loss_perfect_prediction_is_tiny():
    assert train.loss(1, 1.0) < 1e-9
    assert train.loss(0, 0.0) < 1e-9


def test_loss_half_is_ln2():
    assert train.loss(0, 0.5) == pytest.approx(math.log(2), abs=1e-12)


def test_loss_clipping_at_epsilon():
    # fully wrong prediction saturates at -ln(eps)
    assert train.loss(1, 0.0, clip_epsilon=1e-10) == pytest.approx(-math.log(1e-10))
    assert train.loss(1, 0.0, clip_epsilon=1e-10) == pytest.approx(23.026, abs=1e-3)


def test_loss_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert train.loss(int(rng.integers(2)), float(rng.uniform())) >= 0.0


def test_gradient_at_stationary_point_is_zero():
    a = Architecture(2, 1, PARTIAL_CHAIN)
    _, g = train.finite_diff_gradient(a, np.zeros(2), 0, np.zeros(2), 0.01)
    assert np.max(np.abs(g)) < 1e-8


ANALYTIC_ANGLES = [0.3, 0.9, 1.5, 2.2, 2.9]


@pytest.mark.parametrize("theta", ANALYTIC_ANGLES)
def test_gradient_matches_closed_form(theta):
    # 1-qubit net, input 0, expected 1: loss = -ln(sin^2(t/2)), d/dt = -cot(t/2)
    a = Architecture(1, 1, PARTIAL_CHAIN)
    _, g = train.finite_diff_gradient(a, np.zeros(1), 1, np.array([theta]), 1e-4)
    analytic = -1.0 / math.tan(theta / 2)
    assert g[0] == pytest.approx(analytic, abs=1e-6)


@pytest.mark.parametrize(
    "a",
    [Architecture(10, 2, PARTIAL_CHAIN), Architecture(3, 1, FULLY_ENTANGLED)],
    ids=["chain", "full"],
)
def test_gradient_returns_loss_of_unshifted_params(a):
    rng = np.random.default_rng(8)
    angles = rng.uniform(0, np.pi, a.n_qubits)
    params = rng.uniform(-1, 1, arch.param_count(a))
    for label in (0, 1):
        value, _ = train.finite_diff_gradient(a, angles, label, params, 0.01)
        expected = train.loss(label, arch.forward(a, angles, params))
        assert math.isclose(value, expected, rel_tol=1e-14, abs_tol=1e-14)


def test_gradient_halving_step_converges_quadratically():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    theta = np.array([math.pi / 2])
    exact = -1.0  # -cot(pi/4)
    err = []
    for h in (0.1, 0.05, 0.025):
        _, g = train.finite_diff_gradient(a, np.zeros(1), 1, theta, h)
        err.append(abs(g[0] - exact))
    assert err[1] == pytest.approx(err[0] / 4, rel=0.1)
    assert err[2] == pytest.approx(err[1] / 4, rel=0.1)


def test_step_zero_gradient_is_noop():
    p = np.array([0.5, -0.5])
    assert np.array_equal(train.step(p, np.zeros(2), 0.1), p)


def test_step_three_four_five():
    out = train.step(np.zeros(2), np.array([3.0, 4.0]), 0.5)
    assert np.allclose(out, [-0.3, -0.4])


def test_step_length_equals_rate():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.normal(size=7)
        g = rng.normal(size=7)
        rate = float(rng.uniform(0.01, 1.0))
        moved = train.step(p, g, rate)
        assert np.linalg.norm(moved - p) == pytest.approx(rate, abs=1e-12)


def test_step_rejects_length_mismatch():
    with pytest.raises(ValueError):
        train.step(np.zeros(3), np.zeros(2), 0.1)


def test_config_validation():
    for kwargs in (
        {"initial_rate": 0.0},
        {"decay_factor": 1.0},
        {"decay_patience": 0},
        {"fd_step": -1.0},
        {"epochs": 0},
        {"loss_clip_epsilon": 0.0},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("initial_rate", math.nan),
        ("initial_rate", math.inf),
        ("fd_step", math.nan),
        ("fd_step", math.inf),
        ("loss_clip_epsilon", math.nan),
    ],
)
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


def test_init_params_modes():
    a = Architecture(4, 2, PARTIAL_CHAIN)
    assert np.array_equal(train.init_params(a), np.zeros(8))
    r1 = train.init_params(a, "random", seed=3)
    r2 = train.init_params(a, "random", seed=3)
    assert np.array_equal(r1, r2)
    assert np.all(np.abs(r1) <= 0.1)
    with pytest.raises(ValueError):
        train.init_params(a, "ones")


def single_qubit_problem():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    dataset = [(np.zeros(1), 1)]
    cfg = TrainConfig(initial_rate=0.1, epochs=50, decay_patience=10)
    return a, dataset, cfg


def test_train_online_reduces_loss():
    a, dataset, cfg = single_qubit_problem()
    params, metrics = train.train_online(a, dataset, cfg, np.array([0.2]))
    assert metrics.losses[-1] < metrics.losses[0]


def test_train_online_bookkeeping():
    a, dataset, cfg = single_qubit_problem()
    _, metrics = train.train_online(a, dataset, cfg, np.array([0.2]))
    assert len(metrics.losses) == cfg.epochs * len(dataset)
    assert len(metrics.rates) == len(metrics.losses)
    assert len(metrics.sample_indices) == len(metrics.losses)


def test_train_online_rate_never_increases():
    a, dataset, cfg = single_qubit_problem()
    _, metrics = train.train_online(a, dataset, cfg, np.array([0.2]))
    assert all(r1 >= r2 for r1, r2 in zip(metrics.rates, metrics.rates[1:]))
    assert all(r <= cfg.initial_rate for r in metrics.rates)


def test_train_online_loss_trend():
    a, dataset, cfg = single_qubit_problem()
    _, metrics = train.train_online(a, dataset, cfg, np.array([0.2]))
    k = len(metrics.losses) // 10
    assert np.mean(metrics.losses[-k:]) < np.mean(metrics.losses[:k])


def test_train_online_is_deterministic():
    a = Architecture(3, 2, PARTIAL_CHAIN)
    rng = np.random.default_rng(4)
    dataset = [(rng.uniform(0, np.pi, 3), int(rng.integers(2))) for _ in range(8)]
    cfg = TrainConfig(epochs=3, decay_patience=5)
    init = train.init_params(a, "random", seed=1)
    p1, m1 = train.train_online(a, dataset, cfg, init)
    p2, m2 = train.train_online(a, dataset, cfg, init)
    assert np.array_equal(p1, p2)
    assert m1.losses == m2.losses
    assert m1.rates == m2.rates


def test_train_online_records_params_when_asked():
    a, dataset, cfg = single_qubit_problem()
    _, metrics = train.train_online(a, dataset, cfg, np.array([0.2]), record_params=True)
    assert len(metrics.param_snapshots) == len(metrics.losses)
    assert np.array_equal(metrics.param_snapshots[0], [0.2])


def test_recorded_losses_are_losses_of_recorded_params():
    a = Architecture(3, 2, PARTIAL_CHAIN)
    rng = np.random.default_rng(4)
    dataset = [(rng.uniform(0, np.pi, 3), int(rng.integers(2))) for _ in range(8)]
    cfg = TrainConfig(epochs=2, decay_patience=5)
    init = train.init_params(a, "random", seed=1)
    _, m = train.train_online(a, dataset, cfg, init, record_params=True)
    assert len(m.losses) == len(m.param_snapshots) == 16
    for recorded, params, i in zip(m.losses, m.param_snapshots, m.sample_indices):
        angles, label = dataset[i]
        expected = train.loss(label, arch.forward(a, angles, params))
        assert math.isclose(recorded, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_train_online_rejects_empty_set():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    with pytest.raises(ValueError):
        train.train_online(a, [], TrainConfig(), np.zeros(1))


def test_evaluate_perfect_toy_set():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    dataset = [(np.array([0.0]), 0), (np.array([np.pi]), 1)]
    m = train.evaluate(a, np.zeros(1), dataset, thresholds=[0.01, 0.05])
    assert m.accuracy == 1.0
    assert m.average_loss < 1e-9
    assert m.fraction_above == {0.01: 0.0, 0.05: 0.0}


def test_evaluate_fraction_contract():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    dataset = [(np.array([np.pi / 2]), 0), (np.array([np.pi / 2]), 1)]
    m = train.evaluate(a, np.zeros(1), dataset, thresholds=[0.01, 10.0])
    assert m.fraction_above[0.01] == 1.0  # both sit at ln 2
    assert m.fraction_above[10.0] == 0.0
    assert len(m.per_sample_losses) == 2


def test_evaluate_rejects_empty():
    a = Architecture(1, 1, PARTIAL_CHAIN)
    with pytest.raises(ValueError):
        train.evaluate(a, np.zeros(1), [])

"""Loss, finite-difference gradients, and online normalized-gradient descent.

The update is a fixed-length step: p' = p - rate * g / ||g||2, so every
non-trivial update moves the parameters by exactly `rate`. The rate decays
automatically: whenever the mean loss over the last `decay_patience`
iterations fails to improve on the previous window's mean, the rate is
multiplied by `decay_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod
from .arch import Architecture, forward

GRAD_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    initial_rate: float = 0.2
    decay_factor: float = 0.7
    decay_patience: int = 200
    fd_step: float = 0.01
    epochs: int = 2
    loss_clip_epsilon: float = 1e-10
    seed: int = 0  # only used by optional shuffle / random-init modes

    def __post_init__(self):
        for name in ("initial_rate", "fd_step", "loss_clip_epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 < self.decay_factor < 1:
            raise ValueError("decay_factor must be in (0, 1)")
        if self.decay_patience < 1:
            raise ValueError("decay_patience must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class Metrics:
    losses: list[float] = field(default_factory=list)  # per-iteration, pre-update
    rates: list[float] = field(default_factory=list)
    sample_indices: list[int] = field(default_factory=list)
    param_snapshots: list[np.ndarray] | None = None  # config-gated
    per_sample_losses: list[float] = field(default_factory=list)
    predictions: list[float] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    average_loss: float = math.nan
    accuracy: float = math.nan
    fraction_above: dict[float, float] = field(default_factory=dict)


def loss(expected: int, predicted: float, clip_epsilon: float = 1e-10) -> float:
    """Binary cross-entropy with the prediction clipped into [eps, 1-eps]."""
    p = min(max(predicted, clip_epsilon), 1.0 - clip_epsilon)
    return -(1 - expected) * math.log(1.0 - p) - expected * math.log(p)


def finite_diff_gradient(
    arch: Architecture,
    input_angles,
    expected: int,
    params: np.ndarray,
    fd_step: float,
    clip_epsilon: float = 1e-10,
) -> tuple[float, np.ndarray]:
    """(loss at params, central difference of the loss per parameter).

    The unshifted row and the 2P shifted rows are independent, so all 2P + 1
    run as one batched forward pass; row 0 is the unshifted one, whose loss
    spares the training loop a separate forward.
    """
    params = arch_mod.check_params(arch, params)
    n_params = len(params)
    rows = np.tile(params, (2 * n_params + 1, 1))
    for k in range(n_params):
        rows[2 * k + 1, k] += fd_step
        rows[2 * k + 2, k] -= fd_step
    predictions = arch_mod.forward_batch(arch, input_angles, rows)
    losses = np.array([loss(expected, p, clip_epsilon) for p in predictions])
    return float(losses[0]), (losses[1::2] - losses[2::2]) / (2.0 * fd_step)


def step(params: np.ndarray, grad: np.ndarray, rate: float) -> np.ndarray:
    """Fixed-length update opposite the gradient; no-op on a ~zero gradient."""
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape:
        raise ValueError("params and gradient lengths differ")
    norm = float(np.linalg.norm(grad))
    if norm <= GRAD_NORM_FLOOR:
        return params.copy()
    return params - rate * grad / norm


def init_params(arch: Architecture, mode: str = "zero", seed: int = 0) -> np.ndarray:
    """All-zero init by default; 'random' draws seeded uniform(-0.1, 0.1)."""
    n = arch_mod.param_count(arch)
    if mode == "zero":
        return np.zeros(n)
    if mode == "random":
        return np.random.default_rng(seed).uniform(-0.1, 0.1, n)
    raise ValueError(f"unknown init mode {mode!r}")


def train_online(
    arch: Architecture,
    train_set,
    config: TrainConfig,
    init: np.ndarray,
    record_params: bool = False,
) -> tuple[np.ndarray, Metrics]:
    """Online gradient descent over (input_angles, label) pairs.

    One gradient + one update per sample, in order, for `epochs` passes.
    The loss recorded at each iteration is the loss of the parameters the
    sample was evaluated with (before the update), taken from the gradient's
    unshifted row. Fully deterministic.
    """
    if not train_set:
        raise ValueError("training set is empty")
    params = arch_mod.check_params(arch, init).copy()
    rate = config.initial_rate
    metrics = Metrics(param_snapshots=[] if record_params else None)
    prev_window_mean = math.inf
    iteration = 0
    for _ in range(config.epochs):
        for sample_idx, (angles, label) in enumerate(train_set):
            current_loss, grad = finite_diff_gradient(
                arch, angles, label, params, config.fd_step, config.loss_clip_epsilon
            )
            metrics.losses.append(current_loss)
            metrics.rates.append(rate)
            metrics.sample_indices.append(sample_idx)
            if metrics.param_snapshots is not None:
                metrics.param_snapshots.append(params.copy())
            params = step(params, grad, rate)
            iteration += 1
            if iteration % config.decay_patience == 0:
                window_mean = float(np.mean(metrics.losses[-config.decay_patience :]))
                if window_mean >= prev_window_mean:
                    rate *= config.decay_factor
                prev_window_mean = window_mean
    return params, metrics


def evaluate(
    arch: Architecture,
    params: np.ndarray,
    dataset,
    thresholds=(),
    clip_epsilon: float = 1e-10,
) -> Metrics:
    """Per-sample losses, mean loss, accuracy, and loss-tail fractions."""
    if not dataset:
        raise ValueError("dataset is empty")
    params = arch_mod.check_params(arch, params)
    metrics = Metrics()
    correct = 0
    for angles, label in dataset:
        predicted = forward(arch, angles, params)
        metrics.predictions.append(predicted)
        metrics.labels.append(label)
        metrics.per_sample_losses.append(loss(label, predicted, clip_epsilon))
        if (1 if predicted >= 0.5 else 0) == label:
            correct += 1
    losses = np.array(metrics.per_sample_losses)
    metrics.average_loss = float(losses.mean())
    metrics.accuracy = correct / len(dataset)
    metrics.fraction_above = {
        float(t): float(np.mean(losses > t)) for t in thresholds
    }
    return metrics

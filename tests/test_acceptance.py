"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured statistics. Criteria 5-9 share a single full-dataset
CLI training run (module-scoped fixture).
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qubitnet import arch, cli, data, qsim, train
from tests.test_qsim import random_gate

WDBC = "data/wdbc.csv"


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Full-set CLI training with default config; shared by criteria 5-9."""
    out = tmp_path_factory.mktemp("acceptance") / "full"
    start = time.monotonic()
    rc = cli.main(["train", "--data", WDBC, "--out", str(out)])
    elapsed = time.monotonic() - start
    assert rc == 0
    summary = dict(read_csv(out / "summary")[1:])
    loss_rows = read_csv(out / "loss.csv")[1:]
    return {
        "out": out,
        "elapsed": elapsed,
        "summary": summary,
        "losses": [float(r[2]) for r in loss_rows],
        "rates": [float(r[3]) for r in loss_rows],
    }


def test_criterion_1_simulator_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        gates = [random_gate(rng, n) for _ in range(int(rng.integers(1, 31)))]
        fast = qsim.run_circuit(n, gates)
        slow = qsim.dense_oracle(n, gates)
        worst = max(worst, float(np.max(np.abs(fast.amplitudes - slow.amplitudes))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 5.0
    assert report(1, ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_norm_conservation():
    rng = np.random.default_rng(7)
    state = qsim.new_zero_state(10)
    worst = 0.0
    for _ in range(1000):
        state = qsim.apply_gate(state, random_gate(rng, 10))
        worst = max(worst, abs(state.norm_sq() - 1.0))
    assert report(2, worst < 1e-12, f"max |norm^2 - 1| = {worst:.2e}")


def test_criterion_3_gradient_oracle():
    a = arch.Architecture(1, 1, arch.PARTIAL_CHAIN)
    worst = 0.0
    for theta in (0.3, 0.9, 1.5, 2.2, 2.9):
        _, g = train.finite_diff_gradient(a, np.zeros(1), 1, np.array([theta]), 1e-4)
        analytic = -1.0 / math.tan(theta / 2)
        worst = max(worst, abs(g[0] - analytic))
    assert report(3, worst < 1e-6, f"max |fd - analytic| = {worst:.2e}")


def test_criterion_4_parameter_count():
    count = arch.param_count(arch.Architecture(5, 2, arch.PARTIAL_CHAIN))
    assert report(4, count == 10, f"count = {count}")


def test_criterion_5_full_set_training(full_run):
    mean_loss = float(full_run["summary"]["train_average_loss"])
    accuracy = float(full_run["summary"]["train_accuracy"])
    ok = mean_loss <= 0.15 and accuracy >= 0.85 and full_run["elapsed"] < 600
    report(
        5,
        ok,
        f"mean loss {mean_loss:.4f} (<=0.15), accuracy {accuracy:.4f} (>=0.85), "
        f"{full_run['elapsed']:.0f}s (<600s)",
    )
    assert full_run["elapsed"] < 600
    assert accuracy >= 0.85
    # The architecture's batch-optimized loss floor on this dataset sits
    # near 0.33, above the 0.15 bound, so this assertion is expected red.
    assert mean_loss <= 0.15


def test_criterion_6_subset_generalization(full_run, tmp_path):
    out = tmp_path / "subset"
    rc = cli.main(["train", "--data", WDBC, "--out", str(out), "--train-count", "100"])
    assert rc == 0
    summary = dict(read_csv(out / "summary")[1:])
    whole_loss = float(summary["full_average_loss"])
    whole_acc = float(summary["full_accuracy"])
    bound = 2.0 * float(full_run["summary"]["train_average_loss"])
    ok = whole_loss <= bound and whole_acc >= 0.80
    assert report(
        6, ok, f"whole-set loss {whole_loss:.4f} (<= {bound:.4f}), accuracy {whole_acc:.4f} (>=0.80)"
    )


def test_criterion_7_loss_trend(full_run):
    losses = full_run["losses"]
    k = len(losses) // 10
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    assert report(7, last < first, f"first 10% mean {first:.4f} -> last 10% mean {last:.4f}")


def test_criterion_8_rate_schedule(full_run):
    rates = full_run["rates"]
    non_increasing = all(a >= b for a, b in zip(rates, rates[1:]))
    decays = sum(1 for a, b in zip(rates, rates[1:]) if b < a)
    ok = non_increasing and decays >= 1
    assert report(8, ok, f"non-increasing={non_increasing}, decay events={decays}")


def test_criterion_9_determinism(full_run, tmp_path):
    out = tmp_path / "repeat"
    rc = cli.main(["train", "--config", str(full_run["out"] / "config_echo"), "--out", str(out)])
    assert rc == 0
    same_loss = (out / "loss.csv").read_bytes() == (full_run["out"] / "loss.csv").read_bytes()
    same_params = (out / "final_params").read_bytes() == (full_run["out"] / "final_params").read_bytes()
    assert report(9, same_loss and same_params, f"loss.csv identical={same_loss}, final_params identical={same_params}")


def test_criterion_10_encoding_boundary():
    samples = data.load_wbc_csv(WDBC)
    bounds = data.compute_bounds(samples)
    feats = np.array([s.features for s in samples])
    exact = True
    for k in range(10):
        lo = feats[np.argmin(feats[:, k])]
        hi = feats[np.argmax(feats[:, k])]
        exact &= data.encode(data.Sample(tuple(lo), 0), bounds)[k] == 0.0
        exact &= data.encode(data.Sample(tuple(hi), 0), bounds)[k] == np.pi
    # mid-range synthetic sample: its lone encoded qubit reads exactly 1/2
    mid = data.Sample(tuple((np.array(bounds.mins) + np.array(bounds.maxs)) / 2.0), 0)
    angles = data.encode(mid, bounds)
    worst = 0.0
    for k in range(10):
        state = qsim.apply_gate(qsim.new_zero_state(1), qsim.ry(angles[k], 0))
        worst = max(worst, abs(qsim.prob_one(state, 0) - 0.5))
    ok = exact and worst < 1e-12
    assert report(10, ok, f"endpoints exact={exact}, max |p-0.5| = {worst:.2e}")

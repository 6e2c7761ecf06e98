import csv
import math

import numpy as np
import pytest

from qubitnet import cli
from qubitnet import data


@pytest.fixture()
def small_csv(tmp_path):
    # 12-row slice of the real dataset keeps CLI runs fast
    samples = data.load_wbc_csv("data/wdbc.csv")[:12]
    rows = []
    for i, s in enumerate(samples):
        diag = "M" if s.label else "B"
        feats = [repr(v) for v in s.features] + ["0"] * 20
        rows.append(",".join([str(i), diag] + feats))
    p = tmp_path / "slice.csv"
    p.write_text("\n".join(rows) + "\n")
    return p


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def train_args(small_csv, out, extra=()):
    return [
        "train", "--data", str(small_csv), "--out", str(out),
        "--qubits", "10", "--layers", "1", "--epochs", "1",
        "--patience", "5", "--rate", "0.2",
    ] + list(extra)


def test_train_writes_expected_files(small_csv, tmp_path):
    out = tmp_path / "run"
    assert cli.main(train_args(small_csv, out)) == 0
    for name in ("loss.csv", "final_params", "summary", "config_echo"):
        assert (out / name).exists(), name

    loss_rows = read_csv(out / "loss.csv")
    assert loss_rows[0] == ["iteration", "sample_index", "loss", "rate"]
    assert len(loss_rows) - 1 == 12  # 1 epoch x 12 samples
    for row in loss_rows[1:]:
        assert len(row) == 4
        assert math.isfinite(float(row[2]))

    params_rows = read_csv(out / "final_params")
    assert params_rows[0] == ["index", "value"]
    assert len(params_rows) - 1 == 10

    summary = dict(read_csv(out / "summary")[1:])
    assert "train_average_loss" in summary
    assert "train_accuracy" in summary
    assert "train_fraction_loss_above_0.01" in summary
    assert 0.0 <= float(summary["train_accuracy"]) <= 1.0


def test_train_records_params_when_flagged(small_csv, tmp_path):
    out = tmp_path / "run"
    assert cli.main(train_args(small_csv, out, ["--record-params"])) == 0
    rows = read_csv(out / "params.csv")
    assert rows[0][0] == "iteration"
    assert len(rows[0]) == 1 + 10
    assert len(rows) - 1 == 12


def test_train_subset_reports_full_set_metrics(small_csv, tmp_path):
    out = tmp_path / "run"
    assert cli.main(train_args(small_csv, out, ["--train-count", "6"])) == 0
    summary = dict(read_csv(out / "summary")[1:])
    assert "full_average_loss" in summary
    assert "full_accuracy" in summary


def test_train_missing_data_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "loss.csv").exists()


def test_config_echo_reproduces_run(small_csv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(train_args(small_csv, out1)) == 0
    assert cli.main(["train", "--config", str(out1 / "config_echo"),
                     "--out", str(out2)]) == 0
    assert (out1 / "loss.csv").read_text() == (out2 / "loss.csv").read_text()
    assert (out1 / "final_params").read_text() == (out2 / "final_params").read_text()


def test_flags_override_config_file(small_csv, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"data={small_csv}\nepochs=1\nqubits=10\nlayers=1\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                     "--epochs", "2", "--patience", "5"]) == 0
    assert len(read_csv(out / "loss.csv")) - 1 == 24
    echo = dict(
        line.split("=", 1) for line in (out / "config_echo").read_text().splitlines()
    )
    assert echo["epochs"] == "2"


def test_evaluate_matches_train_summary(small_csv, tmp_path):
    out = tmp_path / "run"
    assert cli.main(train_args(small_csv, out)) == 0
    out2 = tmp_path / "eval"
    assert cli.main([
        "evaluate", "--data", str(small_csv), "--params", str(out / "final_params"),
        "--out", str(out2), "--qubits", "10", "--layers", "1",
    ]) == 0
    per_sample = read_csv(out2 / "per_sample_loss.csv")
    assert per_sample[0] == ["sample_index", "label", "predicted", "loss"]
    assert len(per_sample) - 1 == 12
    train_summary = dict(read_csv(out / "summary")[1:])
    eval_summary = dict(read_csv(out2 / "summary")[1:])
    assert eval_summary["average_loss"] == train_summary["train_average_loss"]


def test_evaluate_rejects_wrong_param_length(small_csv, tmp_path, capsys):
    params = tmp_path / "p"
    params.write_text("index,value\n0,0.0\n1,0.0\n")
    rc = cli.main([
        "evaluate", "--data", str(small_csv), "--params", str(params),
        "--out", str(tmp_path / "e"), "--qubits", "10", "--layers", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "2" in err and "10" in err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_non_finite_params_file_fails(command, small_csv, tmp_path, capsys):
    params = tmp_path / "p"
    params.write_text("index,value\n" + "".join(f"{k},0.0\n" for k in range(9)) + "9,nan\n")
    args = [
        command, "--data", str(small_csv), "--params", str(params),
        "--qubits", "10", "--layers", "1",
    ]
    args += ["--out", str(tmp_path / "e")] if command == "evaluate" else ["--index", "0"]
    assert cli.main(args) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, message",
    [("9", "expected index,value, got ['9']"), ("9,abc", "value 'abc' is not a number")],
    ids=["missing-column", "non-number"],
)
def test_malformed_params_file_names_file_and_line(bad_line, message, small_csv, tmp_path, capsys):
    params = tmp_path / "p"
    params.write_text("index,value\n" + "".join(f"{k},0.0\n" for k in range(9)) + bad_line + "\n")
    rc = cli.main([
        "evaluate", "--data", str(small_csv), "--params", str(params),
        "--out", str(tmp_path / "e"), "--qubits", "10", "--layers", "1",
    ])
    assert rc == 1
    assert f"error: params file {params} line 11: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "indices, line, message",
    [
        ([1, 0] + list(range(2, 10)), 2, "expected index 0, got '1'"),
        (list(range(9)) + [8], 11, "expected index 9, got '8'"),
        (list(range(5)) + list(range(6, 11)), 7, "expected index 5, got '6'"),
        (list(range(9)) + ["9.0"], 11, "expected index 9, got '9.0'"),
    ],
    ids=["reordered", "duplicated", "missing", "non-integer"],
)
def test_params_file_index_must_count_up(indices, line, message, small_csv, tmp_path, capsys):
    params = tmp_path / "p"
    params.write_text("index,value\n" + "".join(f"{k},0.{k}\n" for k in indices))
    rc = cli.main([
        "evaluate", "--data", str(small_csv), "--params", str(params),
        "--out", str(tmp_path / "e"), "--qubits", "10", "--layers", "1",
    ])
    assert rc == 1
    assert f"error: params file {params} line {line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [("rate=abc", "rate='abc' is not a number"), ("epochs=2.5", "epochs='2.5' is not an integer")],
    ids=["float", "int"],
)
def test_config_file_bad_value_names_file_line_and_key(entry, message, small_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"# run\ndata={small_csv}\n{entry}\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert f"error: {cfg}:3: {message}" in capsys.readouterr().err


def test_train_rejects_non_finite_fd_step(small_csv, tmp_path, capsys):
    assert cli.main(train_args(small_csv, tmp_path / "run", ["--fd-step", "nan"])) == 1
    assert "fd_step must be finite and > 0, got nan" in capsys.readouterr().err


def test_predict_zero_patch_zero_params(tmp_path, capsys):
    pgm = tmp_path / "img.pgm"
    pgm.write_text("P2\n4 4\n255\n" + " ".join(["0"] * 16) + "\n")
    rc = cli.main([
        "predict", "--image", str(pgm), "--qubits", "16", "--layers", "1",
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "l_hat=0 label=0"


def test_predict_csv_row(small_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(train_args(small_csv, out)) == 0
    rc = cli.main([
        "predict", "--data", str(small_csv), "--params", str(out / "final_params"),
        "--qubits", "10", "--layers", "1", "--index", "3",
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("l_hat=")
    assert line.endswith(("label=0", "label=1"))


def test_predict_index_out_of_range(small_csv, capsys):
    rc = cli.main([
        "predict", "--data", str(small_csv), "--qubits", "10", "--layers", "1",
        "--index", "99",
    ])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_export_curves(small_csv, tmp_path):
    out = tmp_path / "run"
    assert cli.main(train_args(small_csv, out)) == 0
    assert cli.main(["export-curves", "--out", str(out), "--patience", "5"]) == 0
    rows = read_csv(out / "curves.csv")
    assert rows[0] == ["iteration", "loss", "running_mean_loss", "rate"]
    assert len(rows) - 1 == 12


def test_export_curves_requires_prior_run(tmp_path, capsys):
    rc = cli.main(["export-curves", "--out", str(tmp_path / "empty")])
    assert rc == 1

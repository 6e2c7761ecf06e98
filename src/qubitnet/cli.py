"""Command-line front end: train / evaluate / predict / export-curves.

All output files are CSV (header row, comma-separated, newline-terminated).
Floats are serialized with 17 significant digits so a re-run from the
emitted config_echo reproduces every file bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import arch as arch_mod
from . import data as data_mod
from . import train as train_mod

DEFAULTS = {
    "topology": arch_mod.PARTIAL_CHAIN,
    "qubits": 10,
    "layers": 2,
    "rate": 0.2,
    "decay": 0.7,
    "patience": 200,
    "fd_step": 0.01,
    "epochs": 2,
    "train_count": 0,  # 0 = whole dataset
    "seed": 0,
    "out": "out",
    "thresholds": "0.01,0.05",
    "shuffle": False,
    "init": "zero",
    "record_params": False,
    "index": 0,
}


def fmt(x: float) -> str:
    return f"{x:.17g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitnet",
        description="Train and run a small entangled-qubit classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "evaluate", "predict", "export-curves"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--data", help="WDBC-layout CSV path")
        p.add_argument("--topology", choices=arch_mod.TOPOLOGIES)
        p.add_argument("--qubits", type=int)
        p.add_argument("--layers", type=int)
        p.add_argument("--rate", type=float)
        p.add_argument("--decay", type=float)
        p.add_argument("--patience", type=int)
        p.add_argument("--fd-step", dest="fd_step", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--train-count", dest="train_count", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--thresholds", help="comma-separated loss thresholds")
        p.add_argument("--params", help="final_params file from a train run")
        p.add_argument("--image", help="PGM image for patch prediction")
        p.add_argument("--patch-row", dest="patch_row", type=int)
        p.add_argument("--patch-col", dest="patch_col", type=int)
        p.add_argument("--index", type=int, help="CSV row index for predict")
        p.add_argument("--record-params", dest="record_params", action="store_true", default=None)
        p.add_argument("--shuffle", action="store_true", default=None)
        p.add_argument("--init", choices=("zero", "random"))
    return parser


def parse_config_file(path: str) -> list[tuple[int, str, str]]:
    """(1-based line, key, value) for each key=value line, in file order."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries.append((lineno, key.strip(), value.strip()))
    return entries


_BOOL_KEYS = ("shuffle", "record_params")
_INT_KEYS = ("qubits", "layers", "patience", "epochs", "train_count", "seed", "index", "patch_row", "patch_col")
_FLOAT_KEYS = ("rate", "decay", "fd_step")


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags."""
    cfg = dict(DEFAULTS)
    cfg.update({"data": None, "params": None, "image": None, "patch_row": None, "patch_col": None})
    if args.config:
        for lineno, key, value in parse_config_file(args.config):
            if key == "command":
                continue
            if key in _BOOL_KEYS:
                cfg[key] = value.lower() in ("1", "true", "yes")
            elif key in _INT_KEYS or key in _FLOAT_KEYS:
                convert, kind = (int, "an integer") if key in _INT_KEYS else (float, "a number")
                try:
                    cfg[key] = convert(value)
                except ValueError:
                    raise ValueError(
                        f"{args.config}:{lineno}: {key}={value!r} is not {kind}"
                    ) from None
            elif value.lower() == "none":
                cfg[key] = None
            else:
                cfg[key] = value
    for key in cfg:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    cfg["command"] = args.command
    return cfg


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_config_echo(cfg: dict, out: Path):
    lines = [f"{k}={cfg[k]}" for k in sorted(cfg) if cfg[k] is not None]
    out.joinpath("config_echo").write_text("\n".join(lines) + "\n")


def load_params_file(path: str, expected: int) -> np.ndarray:
    """The value column of a final_params file; errors name the file and line.

    The index column must read 0, 1, ..., P-1 in order, so a reordered or
    hand-edited file cannot assign values to the wrong parameters.
    """
    values = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader, None)  # header
        for k, row in enumerate(reader):
            where = f"params file {path} line {reader.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: expected index,value, got {row}")
            if row[0].strip() != str(k):
                raise ValueError(f"{where}: expected index {k}, got {row[0]!r}")
            try:
                values.append(float(row[1]))
            except ValueError:
                raise ValueError(f"{where}: value {row[1]!r} is not a number") from None
    if len(values) != expected:
        raise ValueError(
            f"params file {path} holds {len(values)} values, architecture expects {expected}"
        )
    return np.array(values)


def prepare_dataset(cfg: dict):
    """Load, optionally shuffle, split, and encode. Returns encoded sets."""
    if not cfg["data"]:
        raise ValueError("--data is required")
    samples = data_mod.load_wbc_csv(cfg["data"])
    if cfg["shuffle"]:
        samples = data_mod.shuffled(samples, cfg["seed"])
    train_count = cfg["train_count"] or len(samples)
    train_samples, test_samples = data_mod.split(samples, train_count)
    bounds = data_mod.compute_bounds(train_samples)
    encode = lambda ss: [(data_mod.encode(s, bounds), s.label) for s in ss]
    return encode(train_samples), encode(test_samples), encode(samples), bounds


def make_arch(cfg: dict) -> arch_mod.Architecture:
    return arch_mod.Architecture(cfg["qubits"], cfg["layers"], cfg["topology"])


def make_train_config(cfg: dict) -> train_mod.TrainConfig:
    return train_mod.TrainConfig(
        initial_rate=cfg["rate"],
        decay_factor=cfg["decay"],
        decay_patience=cfg["patience"],
        fd_step=cfg["fd_step"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
    )


def parse_thresholds(cfg: dict) -> list[float]:
    spec = cfg["thresholds"]
    if not spec:
        return []
    return [float(t) for t in str(spec).split(",") if t.strip()]


def summary_rows(metrics: train_mod.Metrics, prefix: str = ""):
    rows = [
        (f"{prefix}average_loss", fmt(metrics.average_loss)),
        (f"{prefix}accuracy", fmt(metrics.accuracy)),
    ]
    for t, frac in metrics.fraction_above.items():
        rows.append((f"{prefix}fraction_loss_above_{t:g}", fmt(frac)))
    return rows


def run_train(cfg: dict) -> int:
    train_set, test_set, full_set, _ = prepare_dataset(cfg)
    arch = make_arch(cfg)
    tcfg = make_train_config(cfg)
    init = train_mod.init_params(arch, cfg["init"], cfg["seed"])
    params, history = train_mod.train_online(
        arch, train_set, tcfg, init, record_params=cfg["record_params"]
    )
    thresholds = parse_thresholds(cfg)
    train_eval = train_mod.evaluate(arch, params, train_set, thresholds)

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "loss.csv",
        ["iteration", "sample_index", "loss", "rate"],
        [
            (i, s, fmt(l), fmt(r))
            for i, (s, l, r) in enumerate(
                zip(history.sample_indices, history.losses, history.rates)
            )
        ],
    )
    if history.param_snapshots is not None:
        write_csv(
            out / "params.csv",
            ["iteration"] + [f"p_{k}" for k in range(len(params))],
            [(i, *map(fmt, p)) for i, p in enumerate(history.param_snapshots)],
        )
    write_csv(
        out / "final_params",
        ["index", "value"],
        [(k, fmt(v)) for k, v in enumerate(params)],
    )
    rows = summary_rows(train_eval, prefix="train_")
    if test_set:
        full_eval = train_mod.evaluate(arch, params, full_set, thresholds)
        rows += summary_rows(full_eval, prefix="full_")
    write_csv(out / "summary", ["metric", "value"], rows)
    write_config_echo(cfg, out)
    return 0


def run_evaluate(cfg: dict) -> int:
    if not cfg["params"]:
        raise ValueError("--params is required for evaluate")
    _, _, full_set, _ = prepare_dataset(cfg)
    arch = make_arch(cfg)
    params = load_params_file(cfg["params"], arch_mod.param_count(arch))
    thresholds = parse_thresholds(cfg)
    dataset = full_set
    metrics = train_mod.evaluate(arch, params, dataset, thresholds)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "per_sample_loss.csv",
        ["sample_index", "label", "predicted", "loss"],
        [
            (i, lab, fmt(pred), fmt(l))
            for i, (lab, pred, l) in enumerate(
                zip(metrics.labels, metrics.predictions, metrics.per_sample_losses)
            )
        ],
    )
    write_csv(out / "summary", ["metric", "value"], summary_rows(metrics))
    write_config_echo(cfg, out)
    return 0


def run_predict(cfg: dict) -> int:
    arch = make_arch(cfg)
    if cfg["params"]:
        params = load_params_file(cfg["params"], arch_mod.param_count(arch))
    else:
        params = train_mod.init_params(arch, "zero")
    if cfg["image"]:
        image = data_mod.load_pgm(cfg["image"])
        patch = data_mod.extract_patch(image, cfg["patch_row"] or 0, cfg["patch_col"] or 0)
        angles = data_mod.patch_to_angles(patch)
    else:
        _, _, full_set, bounds = prepare_dataset(cfg)
        index = cfg["index"]
        if not 0 <= index < len(full_set):
            raise ValueError(f"--index {index} out of range for {len(full_set)} samples")
        angles = full_set[index][0]
    predicted = arch_mod.forward(arch, angles, params)
    print(f"l_hat={fmt(predicted)} label={1 if predicted >= 0.5 else 0}")
    return 0


def run_export_curves(cfg: dict) -> int:
    out = Path(cfg["out"])
    loss_path = out / "loss.csv"
    if not loss_path.exists():
        raise ValueError(f"{loss_path} not found; run train first")
    losses, rates = [], []
    with open(loss_path, newline="") as f:
        reader = csv.reader(f)
        next(reader, None)  # header
        for row in reader:
            where = f"{loss_path} line {reader.line_num}"
            if len(row) < 4:
                raise ValueError(f"{where}: expected iteration,sample_index,loss,rate, got {row}")
            for name, value in (("loss", row[2]), ("rate", row[3])):
                try:
                    float(value)
                except ValueError:
                    raise ValueError(f"{where}: {name} {value!r} is not a number") from None
            losses.append(float(row[2]))
            rates.append(row[3])
    losses = np.array(losses)
    window = cfg["patience"]
    running = [losses[max(0, i + 1 - window) : i + 1].mean() for i in range(len(losses))]
    write_csv(
        out / "curves.csv",
        ["iteration", "loss", "running_mean_loss", "rate"],
        [(i, fmt(l), fmt(m), r) for i, (l, m, r) in enumerate(zip(losses, running, rates))],
    )
    return 0


COMMANDS = {
    "train": run_train,
    "evaluate": run_evaluate,
    "predict": run_predict,
    "export-curves": run_export_curves,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

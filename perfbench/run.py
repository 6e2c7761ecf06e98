#!/usr/bin/env python3
"""Benchmark of the qubitnet CLI on WDBC, run in-process in one Python process.

    python3 perfbench/run.py --workload chain-train --seed 1 --seconds 30 --trace 0

Each workload is one real `qubitnet` command, called through
`qubitnet.cli.main` once, and again while the commands' total time, plus one
more call as long as the last, stays within `--seconds`. The seed makes the
program's only inputs: the row order (`--shuffle --seed`) of the train
workloads and the parameter file of `chain-eval`. Every command's outputs are
checked; a non-zero exit code or a failed check counts as a failed operation.

`--trace 0` reports the end-to-end metrics from untraced commands.
`--trace 1` alternates untraced and traced commands. It reports per-layer metrics from the spans that
`tracing.py` records around the package's public functions, and the tracing
overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records the environment. Run files go to
`.perfbench-runs/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "data" / "wdbc.csv"
RUNS_DIR = ROOT / ".perfbench-runs"
REFERENCE_DIR = BENCH_DIR / "reference"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units

REFERENCE_SEED = 0  # outputs at this seed must match REFERENCE_DIR
REFERENCE_TOL = 1e-6  # abs. and rel. tolerance on every number vs the reference
CHECK_TOL = 1e-12  # abs. and rel. tolerance between one run's own outputs
CHECK_ROWS = 4  # seed-chosen samples on which forward and forward_batch must agree
SETUP_REPEATS = 5  # set-up samples taken before each command, and after the last
EVAL_PARAM_NOISE = 0.05  # std. dev. added to the reference parameters for chain-eval


@dataclass(frozen=True)
class Workload:
    command: str  # "train" or "evaluate"
    flags: tuple[str, ...] = ()
    data_rows: int = 0  # if set, the data file is this many seed-chosen WDBC rows


WORKLOADS = {
    # The paper's run: partial-chain, 10 qubits, 2 layers, FD gradient, 2 epochs
    # over all 569 rows (1138 iterations, enough FD calls for a p99). The FD
    # batch is 40 x 1024 complex amplitudes, which fits in L2, so the run is
    # bound by Python dispatch.
    "chain-train": Workload("train"),
    # Scalar path only: 569 forwards of a seed-drawn trained-like model.
    "chain-eval": Workload("evaluate"),
    # 270 parameters: the FD batch is 540 x 1024 complex amplitudes (8.8 MB),
    # larger than L2. It trains on 4 rows of a 64-row data file, so the CLI also
    # scores those 64 rows through the scalar path, with 190 gates per circuit.
    # Scoring all 569 rows would take most of a command and leave room for only
    # two per run, whose median a single slow command moves.
    "full-train": Workload(
        "train",
        ("--topology", "fully-entangled", "--layers", "1", "--train-count", "4"),
        data_rows=64,
    ),
}

# Files a command writes whose bytes must not depend on tracing or repetition.
DETERMINISTIC_FILES = {
    "train": ("loss.csv", "final_params", "summary"),
    "evaluate": ("per_sample_loss.csv", "summary"),
}
REFERENCE_FILES = {
    "train": ("final_params", "summary"),
    "evaluate": ("per_sample_loss.csv", "summary"),
}

def close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def read_summary(out: Path) -> dict[str, float]:
    return {k: float(v) for k, v in read_csv(out / "summary")[1:]}


def write_eval_params(path: Path, seed: int):
    """chain-eval's input: the reference chain-train parameters plus seeded noise."""
    import numpy as np

    rows = read_csv(REFERENCE_DIR / "chain-train" / "final_params")[1:]
    base = np.array([float(v) for _, v in rows])
    params = base + np.random.default_rng(seed).normal(0.0, EVAL_PARAM_NOISE, len(base))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "value"])
        writer.writerows((k, f"{v:.17g}") for k, v in enumerate(params))


def write_data_subset(path: Path, rows: int, seed: int):
    """A data file of `rows` seed-chosen WDBC lines, in a seed-chosen order."""
    import numpy as np

    lines = DATA.read_text().splitlines()
    chosen = np.random.default_rng(seed).choice(len(lines), rows, replace=False)
    path.write_text("".join(lines[i] + "\n" for i in chosen))


class Run:
    """One workload at one seed: builds argv, runs commands, checks outputs."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        from qubitnet import cli

        self.name, self.seed, self.run_dir = name, seed, run_dir
        self.workload = WORKLOADS[name]
        self.params_file = run_dir / "params.csv"
        self.data_file = DATA
        if self.workload.data_rows:
            self.data_file = run_dir / "data.csv"
            write_data_subset(self.data_file, self.workload.data_rows, seed)
        if self.workload.command == "evaluate":
            write_eval_params(self.params_file, seed)
        self.cfg = cli.resolve_config(cli.build_parser().parse_args(self.argv(run_dir)))
        self.arch = cli.make_arch(self.cfg)
        self.commands = 0

    def argv(self, out: Path) -> list[str]:
        w = self.workload
        if w.command == "train":
            inputs = ["--shuffle", "--seed", str(self.seed)]
        else:
            inputs = ["--params", str(self.params_file)]
        return [w.command, "--data", str(self.data_file), *inputs, *w.flags, "--out", str(out)]

    def command(self) -> tuple[Path, int, float]:
        """Run the CLI once into a fresh directory: (out, exit code, wall s)."""
        from qubitnet import cli

        out = self.run_dir / f"cmd{self.commands}"
        self.commands += 1
        argv = self.argv(out)
        gc.collect()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return out, rc, time.perf_counter() - t0

    def samples(self, out: Path) -> int:
        """Training iterations, or evaluated rows, that the command reports."""
        name = "loss.csv" if self.workload.command == "train" else "per_sample_loss.csv"
        return len(read_csv(out / name)) - 1

    def same_outputs(self, a: Path, b: Path) -> list[str]:
        try:
            return [
                f"{f} differs between {a.name} and {b.name}"
                for f in DETERMINISTIC_FILES[self.workload.command]
                if (a / f).read_bytes() != (b / f).read_bytes()
            ]
        except OSError as e:
            return [f"unreadable output: {e!r}"]

    def check(self, out: Path) -> list[str]:
        """Full output checks of one command; returns the problems found."""
        try:
            if self.workload.command == "train":
                problems = self._check_train(out)
            else:
                problems = self._check_evaluate(out)
            if self.seed == REFERENCE_SEED:
                problems += self._check_reference(out)
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems = [f"unreadable output: {e!r}"]
        return problems

    def _datasets(self):
        from qubitnet import cli

        train_set, _, full_set, _ = cli.prepare_dataset(self.cfg)
        return train_set, full_set

    def _check_forward_paths(self, full_set, params) -> list[str]:
        """Scalar forward and batched forward agree on seed-chosen rows."""
        import numpy as np

        from qubitnet import arch

        rng = np.random.default_rng(self.seed)
        problems = []
        for i in rng.choice(len(full_set), CHECK_ROWS, replace=False):
            angles = full_set[i][0]
            rows = params + rng.normal(0.0, 0.1, (3, len(params))) * [[0], [1], [1]]
            batch = arch.forward_batch(self.arch, angles, rows)
            for row, b in zip(rows, batch):
                s = arch.forward(self.arch, angles, row)
                if not close(s, b, CHECK_TOL):
                    problems.append(f"row {i}: forward {s!r} != forward_batch {b!r}")
        return problems

    def _check_train(self, out: Path) -> list[str]:
        import numpy as np

        from qubitnet import arch, train

        train_set, full_set = self._datasets()
        problems = []
        losses = [float(r[2]) for r in read_csv(out / "loss.csv")[1:]]
        if len(losses) != len(train_set) * self.cfg["epochs"]:
            problems.append(f"loss.csv has {len(losses)} iterations")
        if not all(map(math.isfinite, losses)):
            problems.append("loss.csv holds a non-finite loss")
        params = np.array([float(v) for _, v in read_csv(out / "final_params")[1:]])
        if params.shape != (arch.param_count(self.arch),) or not np.all(np.isfinite(params)):
            problems.append(f"final_params has shape {params.shape} or non-finite values")
            return problems
        summary = read_summary(out)
        scored = [("train_", train_set)]
        if len(full_set) > len(train_set):  # the CLI also scores the whole data file
            scored.append(("full_", full_set))
        for prefix, rows in scored:
            predicted = [arch.forward(self.arch, a, params) for a, _ in rows]
            labels = [label for _, label in rows]
            mean_loss = float(np.mean([train.loss(y, p) for y, p in zip(labels, predicted)]))
            accuracy = float(np.mean([(p >= 0.5) == y for y, p in zip(labels, predicted)]))
            for name, want in (("average_loss", mean_loss), ("accuracy", accuracy)):
                got = summary[prefix + name]
                if not close(got, want, CHECK_TOL):
                    problems.append(f"{prefix}{name} {got} != {want}")
        return problems + self._check_forward_paths(full_set, params)

    def _check_evaluate(self, out: Path) -> list[str]:
        import numpy as np

        from qubitnet import arch, train

        _, full_set = self._datasets()
        problems = []
        rows = read_csv(out / "per_sample_loss.csv")[1:]
        if len(rows) != len(full_set):
            return [f"per_sample_loss.csv has {len(rows)} rows, expected {len(full_set)}"]
        labels = [int(r[1]) for r in rows]
        predicted = np.array([float(r[2]) for r in rows])
        losses = np.array([float(r[3]) for r in rows])
        if labels != [label for _, label in full_set]:
            problems.append("per_sample_loss.csv labels differ from the data")
        for y, p, l in zip(labels, predicted, losses):
            if not close(train.loss(y, p), l, CHECK_TOL):
                problems.append(f"loss {l!r} != loss of prediction {p!r}")
                break
        summary = read_summary(out)
        if not close(summary["average_loss"], float(losses.mean()), CHECK_TOL):
            problems.append(f"average_loss {summary['average_loss']} != mean {losses.mean()}")
        accuracy = float(np.mean((predicted >= 0.5) == np.array(labels)))
        if not close(summary["accuracy"], accuracy, CHECK_TOL):
            problems.append(f"accuracy {summary['accuracy']} != {accuracy}")
        params = np.array([float(v) for _, v in read_csv(self.params_file)[1:]])
        rng = np.random.default_rng(self.seed + 1)
        for i in rng.choice(len(full_set), CHECK_ROWS, replace=False):
            p = arch.forward(self.arch, full_set[i][0], params)
            if not close(p, predicted[i], CHECK_TOL):
                problems.append(f"row {i}: predicted {predicted[i]!r}, forward gives {p!r}")
        return problems + self._check_forward_paths(full_set, params)

    def _check_reference(self, out: Path) -> list[str]:
        problems = []
        for f in REFERENCE_FILES[self.workload.command]:
            got, want = read_csv(out / f), read_csv(REFERENCE_DIR / self.name / f)
            if len(got) != len(want):
                problems.append(f"{f}: {len(got)} lines, reference has {len(want)}")
                continue
            for g_row, w_row in zip(got, want):
                if not all(map(_cell_matches, g_row, w_row)) or len(g_row) != len(w_row):
                    problems.append(f"{f}: {g_row} differs from reference {w_row}")
                    break
        return problems


def _cell_matches(got: str, want: str) -> bool:
    try:
        return close(float(got), float(want), REFERENCE_TOL)
    except ValueError:
        return got == want


def measure_setup() -> float:
    """Import qubitnet afresh, then load, bound and encode the 569 rows.

    numpy is imported once before, so each sample times the package's own
    import and its data layer. Later commands use the modules imported here,
    as a fresh CLI process would.
    """
    for name in [m for m in sys.modules if m == "qubitnet" or m.startswith("qubitnet.")]:
        del sys.modules[name]
    gc.collect()  # a fresh process starts without the last sample's garbage
    t0 = time.perf_counter()
    from qubitnet import data

    samples = data.load_wbc_csv(DATA)
    bounds = data.compute_bounds(samples)
    for sample in samples:
        data.encode(sample, bounds)
    return time.perf_counter() - t0


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def report_failure(run: Run, out: Path, rc: int, problems: list[str]) -> bool:
    if rc != 0:
        problems = [f"exit code {rc}"] + problems
    for p in problems:
        print(f"{run.name} seed {run.seed} {out.name}: {p}", file=sys.stderr)
    return bool(problems)


def untraced(run: Run, seconds: float) -> tuple[dict, int, int, dict]:
    setup, times, samples, failed, first = [], [], [], 0, None
    # The window counts command time only, so output checks do not shorten it.
    while not times or sum(times) + times[-1] <= seconds:
        # Set-up is sampled before every command and after the last, so that
        # its median sees the machine conditions of the whole run.
        setup += [measure_setup() for _ in range(SETUP_REPEATS)]
        out, rc, run_s = run.command()
        problems = []
        if rc == 0:
            problems = run.check(out) if first is None else run.same_outputs(first, out)
            first = first or out
            samples.append(run.samples(out))
        failed += report_failure(run, out, rc, problems)
        times.append(run_s)
    setup += [measure_setup() for _ in range(SETUP_REPEATS)]
    run_s = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "samples_per_s": statistics.median(samples) / run_s if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - failed / len(times),
    }
    details = {"setup_s": setup, "run_s": times, "samples": samples}
    if first is not None:
        details["summary"] = read_summary(first)
    return metrics, len(times), failed, details


def traced_run(run: Run, seconds: float) -> tuple[dict, int, int, dict]:
    import tracing

    plain_s, traced_s, per_command, attempted, failed, first = [], [], [], 0, 0, None
    while not traced_s or sum(plain_s) + sum(traced_s) + plain_s[-1] + traced_s[-1] <= seconds:
        plain, rc, run_s = run.command()
        attempted += 1
        problems = []
        if rc == 0:
            problems = run.check(plain) if first is None else run.same_outputs(first, plain)
            first = first or plain
        failed += report_failure(run, plain, rc, problems)
        plain_s.append(run_s)

        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            out, rc, run_s = run.command()
        attempted += 1
        problems = run.same_outputs(first, out) if rc == 0 and first else []
        if rc == 0:
            m = tracing.layer_metrics(tracer, run.arch)
            summary = read_summary(out)
            prefix = "train_" if run.workload.command == "train" else ""
            m["train.mean_loss"] = summary[f"{prefix}average_loss"]
            m["train.accuracy"] = summary[f"{prefix}accuracy"]
            m["cli.bytes_written"] = bytes_written(out)
            if per_command:
                problems += [
                    f"count {k} is {m[k]}, was {per_command[0][k]} in the first traced command"
                    for k in tracing.COUNTS
                    if m[k] != per_command[0][k]
                ]
            per_command.append(m)
            tracer.dump(out / "spans.json")
        failed += report_failure(run, out, rc, problems)
        traced_s.append(run_s)

    metrics = {}
    if per_command:
        metrics.update({k: statistics.median(m[k] for m in per_command) for k in per_command[0]})
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    details = {"untraced_run_s": plain_s, "traced_run_s": traced_s}
    return metrics, attempted, failed, details


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    caches = {}  # from glibc, which reads them with cpuid
    try:
        done = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30)
        for line in done.stdout.splitlines():
            key, _, value = line.partition(" ")
            if key.endswith("CACHE_SIZE") and value.strip():
                caches[key.lower()] = int(value)
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        revision = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qubitnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_bytes": caches,
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "qubitnet", DATA) if not p.exists()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  imported once, outside the set-up samples

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(args.workload, args.seed, run_dir)
    if args.trace:
        metrics, attempted, failed, details = traced_run(run, args.seconds)
    else:
        metrics, attempted, failed, details = untraced(run, args.seconds)
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing and not failed:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # Only when every traced command failed can a metric be missing; it reads 0.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in spec},
    }
    record = {"env": environment(args.seed), "workload": args.workload, "details": details}
    (run_dir / "result.json").write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

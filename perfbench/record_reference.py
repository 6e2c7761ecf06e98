#!/usr/bin/env python3
"""Record the outputs at the reference seed that run.py checks every run against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: the files it
writes under perfbench/reference/ define the correct seed-0 outputs of every
workload for all later commits.
"""

import shutil
import sys

import run as bench


def main():
    sys.path.insert(0, str(bench.SRC))
    # Dict order matters: chain-eval's parameters derive from chain-train's reference.
    for name in bench.WORKLOADS:
        run_dir = bench.RUNS_DIR / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        run = bench.Run(name, bench.REFERENCE_SEED, run_dir)
        out, rc, run_s = run.command()
        if rc != 0:
            sys.exit(f"{name}: exit code {rc}")
        dest = bench.REFERENCE_DIR / name
        dest.mkdir(parents=True, exist_ok=True)
        for f in bench.REFERENCE_FILES[run.workload.command]:
            shutil.copyfile(out / f, dest / f)
        print(f"{name}: recorded in {run_s:.1f} s")


if __name__ == "__main__":
    main()

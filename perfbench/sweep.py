#!/usr/bin/env python3
"""Runs the benchmark over several seeds and saves each run's output.

    python3 perfbench/sweep.py --out .bench_results/a --seeds 1-10 [--trace 0]

Every workload of BENCHMARK.json runs once per seed, for its
`run_seconds`, so that every set of results is made alike. Each run's
standard output goes to `<out>/<workload>-seed<n>-trace<t>.txt`, the form
`compare.py` reads. Runs go one after another; a run that fails is
reported and the sweep goes on.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", args.trace]
            run = subprocess.run(cmd, capture_output=True, text=True)
            path = args.out / f"{workload}-seed{seed}-trace{args.trace}.txt"
            path.write_text(run.stdout)
            status = "ok" if run.returncode == 0 else f"FAILED ({run.returncode})"
            failures += run.returncode != 0
            print(f"{workload} seed {seed}: {status} -> {path}", flush=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

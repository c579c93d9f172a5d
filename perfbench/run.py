#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to the directory named
by CARGO_TARGET_DIR (default `.bench_build`), offline. The benchmark
binary's standard output is passed through; the git revision
(`git describe --always --dirty`) is printed just before its last line,
which is the JSON result. With `--trace 1` the spans are written to
`<target dir>/perfbench-traces/<workload>-seed<n>.jsonl`.

Exits non-zero, without a result line, if the build fails, if the binary
fails, or if the metrics it printed are not exactly the ones
BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"


def revision():
    """The checkout's `git describe --always --dirty`: the commit, marked
    `-dirty` when the work tree has uncommitted changes."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git repository)"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def run_child(cmd, **kwargs):
    """Runs `cmd` to completion; kills it if this process is interrupted."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = child.communicate()
    except BaseException:
        child.kill()
        child.wait()
        raise
    return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    code, _ = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return 1

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        trace_file = target / "perfbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-file", str(trace_file)]
    code, out = run_child(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print(f"perfbench: {args.workload} failed ({code})", file=sys.stderr)
        return code or 1

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        wanted = {m["name"] for m in spec["end_to_end" if args.trace == "0" else "per_layer"]}
        got = set(json.loads(lines[-1])["metrics"])
        if got != wanted:
            print(
                f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(wanted - got)}, "
                f"extra {sorted(got - wanted)}",
                file=sys.stderr,
            )
            return 1

    for line in lines[:-1]:
        print(line)
    print(f"revision {revision()}")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of benchmark results, or shows the spread of one.

    python3 perfbench/compare.py A [B]

A and B are directories of saved run outputs (as `sweep.py` writes them:
the benchmark's standard output, whose first line names the workload and
whose last line is the JSON result). For every workload, in its own rows,
and every metric, it prints each side's median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median.

Flags, and exits 1 on any of them:
  * SPREAD    an end-to-end metric whose spread on a side exceeds its
              bound in BENCHMARK.json;
  * REGRESSED an end-to-end metric whose median on B is worse than on A
              by more than its bound;
  * FAILED    runs whose share of failed operations differs between or
              within the sides, or that reported incorrect output;
  * SETTINGS  runs made with different `seconds` or `threads` (from each
              run's first line), between or within the sides.
Per-layer metrics (from `--trace 1` runs) are listed without a bound.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def load(directory):
    """{(workload, traced): [(settings, result), ...]} from every file in
    `directory`; `settings` is the run's (seconds, threads)."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text().splitlines()
        if not lines or not lines[0].startswith("workload ") or not lines[-1].startswith("{"):
            print(f"skipping {path}: not a complete run", file=sys.stderr)
            continue
        header = lines[0].split()
        field = lambda name: header[header.index(name) + 1]
        key = (field("workload"), field("trace") == "true")
        runs[key].append(((field("seconds"), field("threads")), json.loads(lines[-1])))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def failed_shares(results):
    return {r["failed"] / r["attempted"] for r in results}


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv[1:]]
    flags = 0
    for key in sorted(set().union(*sides)):
        workload, traced = key
        print(f"\n== {workload}{' (traced)' if traced else ''}")
        entries = [side.get(key, []) for side in sides]
        per_side = [[result for _, result in runs] for runs in entries]
        settings = [{s for s, _ in runs} for runs in entries]
        if len(set().union(*settings)) > 1:
            print(f"   SETTINGS (seconds, threads) differ: {' vs '.join(str(sorted(s)) for s in settings)}")
            flags += 1
        for i, results in enumerate(per_side):
            bad = [r for r in results if not r["correct"]]
            shares = failed_shares(results)
            if bad or len(shares) > 1:
                print(f"   FAILED side {'AB'[i]}: {len(bad)} incorrect runs, failed shares {sorted(shares)}")
                flags += 1
        if all(per_side) and len(per_side) == 2 and failed_shares(per_side[0]) != failed_shares(per_side[1]):
            print("   FAILED the failed-operation share differs between A and B")
            flags += 1
        names = sorted({m for results in per_side for r in results for m in r["metrics"]})
        head = f"   {'metric':<32} {'unit':<6}"
        for side in "AB"[: len(per_side)]:
            head += f" {side + ' n':>3} {side + ' q1':>12} {side + ' median':>12} {side + ' q3':>12} {'spread':>7}"
        print(head + ("  change" if len(per_side) == 2 else ""))
        for name in names:
            cols = [[r["metrics"][name]["value"] for r in results if name in r["metrics"]] for results in per_side]
            unit = next(r["metrics"][name]["unit"] for results in per_side for r in results if name in r["metrics"])
            line = f"   {name:<32} {unit:<6}"
            notes = []
            medians = []
            for side, values in zip("AB", cols):
                if not values:
                    line += f" {0:>3} {'':>12} {'':>12} {'':>12} {'':>7}"
                    medians.append(None)
                    continue
                q1, q2, q3 = quartiles(values)
                s = spread(values)
                medians.append(q2)
                line += f" {len(values):>3} {q1:>12.6g} {q2:>12.6g} {q3:>12.6g} {s:>7.2%}"
                metric = E2E.get(name)
                if metric and s > metric["bound"]:
                    notes.append(f"SPREAD on {side} > {metric['bound']:.0%}")
            if len(medians) == 2 and None not in medians:
                a, b = medians
                change = (b - a) / a if a else 0.0
                line += f" {change:>+7.2%}"
                metric = E2E.get(name)
                if metric:
                    worse = change if metric["better"] == "lower" else -change
                    if worse > metric["bound"]:
                        notes.append(f"REGRESSED by {worse:.1%} > {metric['bound']:.0%}")
            flags += len(notes)
            print(line + ("  " + "; ".join(notes) if notes else ""))
    print("\nflags:", flags)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

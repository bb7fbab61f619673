#!/usr/bin/env python3
"""Paired, same-host A/B comparison of two source trees.

Usage (from anywhere):

    python3 perfbench/ab.py --base PARENT_TREE --change CHANGED_TREE \\
        [--pairs 10]

Each tree is a checkout holding BENCHMARK.json and perfbench/ (for
example a `git archive` of the parent commit next to the working
tree). The workloads, run length and bounds come from the parent's
BENCHMARK.json. A change that edits BENCHMARK.json or any file under
its paths is refused, since it would otherwise be judged by its own
benchmark. For every workload
the helper runs `perfbench/run.py` in parent/change pairs, alternating
which side runs first, with seed i in pair i (1, 2, ...). It then
applies this gain rule to every end-to-end metric:

  improved    at least ten pairs ran, the change wins at least 9/10
              of them (ties count for neither side) and the medians
              differ, in the metric's better direction, by more than
              the parent's interquartile range;
  worse       the change's median is worse than the parent's by more
              than the metric's bound from BENCHMARK.json;
  unresolved  neither, and the parent's own spread (IQR / median) is
              wider than the bound, unless every change run reads
              better than every parent run;
  unchanged   otherwise.

A workload on which the change fails more correctness checks than the
parent is flagged: a gain does not count there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"ab: run failed in {tree}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def bench_files(tree, spec):
    """BENCHMARK.json and every file under the benchmark's paths."""
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    for p in spec["paths"]:
        for f in sorted((tree / p).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                files[str(f.relative_to(tree))] = f.read_bytes()
    return files


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    losses = sum(1 for b, c in zip(base, change) if better(b, c))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    iqr = bq3 - bq1
    spread = iqr / bmed if bmed else float("inf")
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    all_better = all(better(c, b) for c in change for b in base)
    if (len(base) >= 10 and wins >= 0.9 * len(base)
            and better(cmed, bmed) and abs(cmed - bmed) > iqr):
        v = "improved"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {
        "verdict": v, "wins": wins, "losses": losses,
        "base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
        "base_spread": spread, "change_vs_base": (cmed - bmed) / bmed
        if bmed else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    if bench_files(args.base, spec) != bench_files(args.change, spec):
        raise SystemExit("ab: the change edits the benchmark; compare "
                         "only trees that share the parent's benchmark")
    seconds = spec["run_seconds"]
    report = {}
    for w in (w["name"] for w in spec["workloads"]):
        base, change = {}, {}
        failed = {"base": 0, "change": 0}
        for i in range(args.pairs):
            seed = 1 + i
            order = [("base", args.base), ("change", args.change)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                out = run_once(tree, w, seed, seconds)
                failed[side] += out["failed"]
                dest = base if side == "base" else change
                for name, m in out["metrics"].items():
                    dest.setdefault(name, []).append(m["value"])
            print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows[name] = verdict(metric, base[name], change[name])
        report[w] = {"metrics": rows, "failed": failed,
                     "gain_counts": failed["change"] <= failed["base"]}

    def fmtq(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':13s} {'metric':20s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s} {'wins':>5s}  verdict")
    for w, r in report.items():
        for name, row in r["metrics"].items():
            print(f"{w:13s} {name:20s} {fmtq(row['base']):>34s} "
                  f"{fmtq(row['change']):>34s} {row['wins']:5d}  "
                  f"{row['verdict']}")
        if not r["gain_counts"]:
            print(f"{w:13s} more failed checks on the change "
                  f"({r['failed']['change']} vs {r['failed']['base']}): "
                  "no gain counts on this workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())

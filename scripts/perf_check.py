#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the checked-in baseline.

Usage: perf_check.py FRESH BASELINE [--max-regression FRAC]

Both files use the multi-entry trajectory form that every perf
benchmark writes (bench_kernel_throughput, bench_cluster):

  {"benchmark": "...", "entries": [{"name": ..., "events": ...,
   "wall_s": ..., "events_per_sec": ...}, ...]}

Entries are matched by name: every baseline entry must appear in the
fresh run (a vanished entry means the benchmark stopped measuring
something), extra fresh entries are reported but pass (new sweep points
need a baseline refresh to become load-bearing).

Fails (exit 1) when any matched entry's events/sec has regressed by
more than --max-regression (default 0.25, the CI gate) relative to the
baseline. Improvements always pass; baselines are refreshed by
re-running the benchmark and committing the new JSON alongside the
change that earned it.
"""

import argparse
import json
import sys


def load_entries(path):
    """Return {name: entry-dict} from a multi-entry BENCH_*.json."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)

    if "entries" not in doc:
        sys.exit(f"{path}: missing 'entries' (not a multi-entry "
                 "BENCH_*.json)")
    entries = {}
    for i, entry in enumerate(doc["entries"]):
        for key in ("name", "events", "wall_s", "events_per_sec"):
            if key not in entry:
                sys.exit(f"{path}: entries[{i}] missing '{key}'")
        name = entry["name"]
        if name in entries:
            sys.exit(f"{path}: duplicate entry name '{name}'")
        entries[name] = entry
    if not entries:
        sys.exit(f"{path}: 'entries' is empty")
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly measured BENCH_*.json")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional events/sec drop "
                             "(default 0.25)")
    args = parser.parse_args()

    fresh = load_entries(args.fresh)
    base = load_entries(args.baseline)
    floor = 1.0 - args.max_regression

    missing = [name for name in base if name not in fresh]
    if missing:
        sys.exit(
            f"baseline entries missing from fresh run: "
            f"{', '.join(sorted(missing))}; the benchmark no longer "
            "measures them — re-record the baseline if intentional")

    extra = [name for name in fresh if name not in base]
    for name in sorted(extra):
        print(f"{name}: not in baseline (new entry, not gated)")

    failures = []
    for name in sorted(base):
        f_entry = fresh[name]
        b_entry = base[name]

        # The event count is a pure function of the workload: a change
        # means the benchmark is no longer measuring the same work,
        # which would make the throughput comparison meaningless.
        if f_entry["events"] != b_entry["events"]:
            sys.exit(
                f"{name}: event count changed: fresh "
                f"{f_entry['events']} vs baseline {b_entry['events']}; "
                "re-record the baseline if the workload change is "
                "intentional")

        fresh_eps = float(f_entry["events_per_sec"])
        base_eps = float(b_entry["events_per_sec"])
        ratio = fresh_eps / base_eps if base_eps > 0 else float("inf")
        print(f"{name}: events/sec fresh {fresh_eps:.4g}  baseline "
              f"{base_eps:.4g}  ratio {ratio:.3f}  floor {floor:.2f}")
        if ratio < floor:
            failures.append(
                f"{name}: regressed {100 * (1 - ratio):.1f}% "
                f"(> {100 * args.max_regression:.0f}% allowed)")

    if failures:
        sys.exit("\n".join(failures))
    print("perf check OK")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the layered benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call in a checkout configures and builds the simulator
library and the perfbench binary (perfbench/CMakeLists.txt pulls in
the repository root) under .bench_build/perfbench; later calls reuse
that build. Build output goes to stderr. Standard output carries a
stamp line (commit, source digest, host fingerprint), the binary's
report lines, and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

Workloads, metrics and the layer map are described in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    # Environment knobs of the simulator (backend overrides, auditing,
    # worker counts) would change what is measured; the benchmark runs
    # the defaults only.
    return {k: v for k, v in os.environ.items() if not k.startswith("COSCALE_")}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(env):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no simulator sources next to perfbench/ (need CMakeLists.txt "
             "and src/ at the repository root)")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, cwd=ROOT)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = out / "perfbench"
    if not exe.is_file():
        fail("build produced no perfbench binary")
    return exe


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit_hash():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args):
    try:
        load = os.getloadavg()
    except OSError:
        load = (-1.0, -1.0, -1.0)
    fields = {
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count() or 0,
        "loadavg_1m": round(load[0], 2),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    parts = []
    for k, v in fields.items():
        val = f'"{v}"' if isinstance(v, str) else str(v)
        parts.append(f'"{k}": {val}')
    print("stamp {" + ", ".join(parts) + "}", flush=True)


def workload_names():
    """The workloads BENCHMARK.json at the repository root declares."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the workload list from BENCHMARK.json: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names())
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    env = clean_env()
    exe = build(env)
    stamp(args)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = exe.parent / f"spans_{args.workload}_{args.seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"benchmark exited with code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of the repository. The benchmark is a cargo package of
its own (perfbench/Cargo.toml); this script builds it offline into
$CARGO_TARGET_DIR (default perfbench/target) and runs it on one workload:
control-5k, mobile-data-1k or sharded-2k. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

`--workload all` runs every workload untraced, then traced, and ends with
one JSON object whose metric names are prefixed with the workload.

A failed build, a crash or a time-out exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["control-5k", "mobile-data-1k", "sharded-2k"]
# One run must finish within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
# Sources whose hash identifies the code measured when git is unavailable.
SOURCE_DIRS = ["crates", "src", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]


def build():
    """Builds the benchmark; returns its executable, or None on failure."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "perfbench/target"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def code_id():
    """The git commit, or failing that a hash of the measured sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run(exe, workload, seed, seconds, trace, host):
    """Runs one workload; echoes its output; returns its result object."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--rustc", host[0], "--commit", host[1]]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print(f"run.py: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: {workload} printed no result", file=sys.stderr)
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    exe = build()
    if exe is None:
        return 1
    host = (rustc_version(), code_id())
    if args.workload != "all":
        result = run(exe, args.workload, args.seed, args.seconds, args.trace, host)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for w in WORKLOADS:
            result = run(exe, w, args.seed, args.seconds, trace, host)
            if result is None:
                return 1
            print(json.dumps(result))
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{w}/{name}"] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

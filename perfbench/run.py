#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload resnet18_b1 --seed 3 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the library it
links, from ../src) into .bench_build/, prepares the workload's inputs
from the seed, measures one window and prints the result as the last
line of standard output: a JSON object with "correct", "attempted",
"failed" and "metrics" (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).

A traced run also merges the library's spans and the benchmark's spans
into .bench_out/<workload>.trace.json (Chrome trace format) and
validates it with tools/check_obs.py.

Exit status: 0 when every output was correct; non-zero on a mismatch, a
failed check or a build failure (then without a result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
OUT_ROOT = Path(".bench_out")
WORKLOADS = ("mlp_fleet_swap", "resnet18_b1")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then an incremental build (a no-op when current)."""
    build_log = BUILD_DIR / "perfbench-build.log"
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if not run_logged(cmd, build_log, timeout=300):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", jobs]
    if not run_logged(cmd, build_log, timeout=850):
        return None
    return BUILD_DIR / "perfbench"


def run_logged(cmd, path, timeout):
    with open(path, "a", encoding="utf-8") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            log(f"perfbench: timed out: {' '.join(cmd)}")
            return False
    if proc.returncode != 0:
        log(f"perfbench: build step failed: {' '.join(cmd)} (log: {path})")
        with open(path, encoding="utf-8") as f:
            log("".join(f.readlines()[-20:]))
        return False
    return True


def merge_traces(run_dir, merged_path):
    """One Chrome trace: the library's events (pid 1/2) plus the
    harness's (pid 3); both files share a time origin."""
    events = []
    for name in ("program_trace.json", "harness_trace.json"):
        with open(run_dir / name, encoding="utf-8") as f:
            events.extend(json.load(f)["traceEvents"])
    with open(merged_path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2

    run_dir = OUT_ROOT / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(run_dir)]
    try:
        prep = subprocess.run([str(binary), "--phase", "prepare"] + common,
                              stdout=subprocess.PIPE, text=True, timeout=60,
                              check=False)
        sys.stdout.write(prep.stdout)
        if prep.returncode != 0:
            log("perfbench: prepare failed")
            return 2
        meas = subprocess.run(
            [str(binary), "--phase", "measure", "--trace", str(args.trace)]
            + common, stdout=subprocess.PIPE, text=True, timeout=110,
            check=False)
    except subprocess.TimeoutExpired as e:
        log(f"perfbench: timed out: {e.cmd}")
        return 2

    lines = meas.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(meas.stdout)
        log(f"perfbench: no result line (exit {meas.returncode})")
        return 2
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    if args.trace:
        merged = OUT_ROOT / f"{args.workload}.trace.json"
        merge_traces(run_dir, merged)
        # The library's request lanes must tile (request = queue + batch)
        # and every lane, harness lanes included, must nest.
        check = subprocess.run(
            [sys.executable, "tools/check_obs.py", "--trace", str(merged)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=60, check=False)
        sys.stdout.write(check.stdout)
        if check.returncode != 0:
            result["correct"] = False
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and meas.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

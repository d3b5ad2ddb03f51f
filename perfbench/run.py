#!/usr/bin/env python3
"""Service benchmark runner: builds perfbench_e2e from source and runs one
workload against an in-process EventServer on loopback TCP.

    python3 perfbench/run.py --workload archive-sz --seed 1 --seconds 20 \
        --trace 0 [--workers 2 --omp-threads 1 --malloc-arenas 1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root, in a perfbench/ subdirectory. The last line
of standard output is the run's JSON result: {"correct", "attempted",
"failed", "metrics"}; --trace 0 reports the end-to-end metrics and --trace
1 the per-layer metrics (spans go to <build>/spans-<workload>-<seed>.jsonl).
The exit code is 0 only when the build succeeded, every output passed its
bound check and the result line is well formed.

The configuration is fixed: --workers server worker threads, each OpenMP
team of --omp-threads (OMP_NUM_THREADS), one client thread per connection
(two for interactive), and --malloc-arenas glibc malloc arenas
(MALLOC_ARENA_MAX) shared by all threads. README.md explains why.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"archive-sz": 1, "archive-aesz": 1, "interactive": 2}
MODEL = HERE / "model" / "cesm_cldhgh_2d.bin"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (when no binary exists yet) and build; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    binary = build_dir / "perfbench_e2e"
    steps = []
    if not binary.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_e2e"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return binary


def valid_result(obj):
    return (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(obj["attempted"], int) and obj["attempted"] >= 1
            and isinstance(obj["failed"], int)
            and isinstance(obj["metrics"], dict) and obj["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--omp-threads", type=int, default=1)
    ap.add_argument("--malloc-arenas", type=int, default=1)
    args = ap.parse_args()

    threads = args.workers * args.omp_threads + WORKLOADS[args.workload]
    if threads > (os.cpu_count() or 1):
        log(f"warning: {threads} compute threads on {os.cpu_count()} cores")
    if not MODEL.is_file():
        raise SystemExit(f"perfbench: model file missing: {MODEL}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)

    env = dict(os.environ, OMP_NUM_THREADS=str(args.omp_threads),
               MALLOC_ARENA_MAX=str(args.malloc_arenas))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workers", str(args.workers),
           "--omp-threads", str(args.omp_threads), "--model", str(MODEL),
           "--spans-out",
           str(build_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not valid_result(result):
        sys.stderr.write(done.stdout[-4000:])
        raise SystemExit(f"perfbench: no result line (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload msp-ladder --seed 1 --seconds 40 --trace 0

Run from the repository root. The perfbench binary and its reports go under
$CARGO_TARGET_DIR (default .bench_build) in the current directory:
    <dir>/perfbench/            CMake build of msplib + the perfbench binary
    <dir>/perfbench-out/        one JSON report per run, plus spans when traced
The last line of stdout is the result object; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("msp-ladder", "ref-ladder", "verify-fuzz")


def out_base():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    bdir = os.path.join(out_base(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    outdir = os.path.join(out_base(), "perfbench-out")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data", HERE, "--out", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]
    try:
        # The binary's stdout is ours: its last line is the result.
        return subprocess.run(cmd, timeout=args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

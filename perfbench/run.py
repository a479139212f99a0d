#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is the
result as one JSON object (see perfbench/NOTES.md). `--workload all` runs
every workload in turn and exits non-zero if any of them failed.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "iabench.exe")
WORKLOADS = ["smallbank-wan", "smallbank-lan", "blob-lan", "audit-replay"]
RUN_TIMEOUT_S = 170


def build():
    # Build output goes to stderr: stdout carries only the result.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/iabench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    return r.returncode == 0 and os.path.exists(EXE)


def pin():
    # One processor for the benchmark and its machine-speed reference
    # (see perfbench/calib.ml).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(args):
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S, preexec_fn=pin).returncode
    except subprocess.TimeoutExpired:
        print("iabench: timed out", file=sys.stderr)
        return 1


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in args and args[args.index("--workload") + 1] == "all":
        i = args.index("--workload")
        codes = [run(args[:i] + ["--workload", w] + args[i + 2 :]) for w in WORKLOADS]
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

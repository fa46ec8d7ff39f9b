#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_closed --seed 21 --seconds 20 --trace 0

Builds perfbench/ (and with it the simulator library, from the
repository's sources) into .bench_build/perfbench, then runs one
workload. The last line of standard output is the benchmark's JSON
result; build output goes to standard error. Extra flags:

    --smoke          tiny horizons
    --record FILE    append the run's record (provenance + metrics) to
                     FILE, one JSON object per line, for compare.py

Exits non-zero when the repository sources are missing, the build
fails, the run fails an output check, or it outlives its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("paper_closed", "open_server", "prepare_store")
# A run measures for --seconds, plus set-up, warm-up, the last pass and
# the output check; this much time beyond --seconds covers them.
RUN_ALLOWANCE_S = 140


def build(jobs):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs),
                    "--target", "pbt_perfbench"],
                   stdout=sys.stderr, check=True)


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: repository sources not found ({needed} missing "
                  f"under {ROOT})", file=sys.stderr)
            return 2

    try:
        build(min(4, os.cpu_count() or 1))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    work = os.path.join(WORK, args.workload)
    cmd = [os.path.join(BUILD, "pbt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--commit", commit_id()]
    if args.smoke:
        cmd.append("--smoke")
    timeout = args.seconds + RUN_ALLOWANCE_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 4

    lines = out.splitlines()
    records = [l[len("record: "):] for l in lines if l.startswith("record: ")]
    # The record repeats the result; keep it off stdout so the result
    # line stays the last word.
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]
                             if not l.startswith("record: ")))
    if args.record and records:
        with open(args.record, "a") as f:
            f.write(json.dumps(json.loads(records[-1])) + "\n")
    if lines:
        print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the perfbench end-to-end + per-layer benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of paper_sweep, manycore_run, solve_cold, serve_mix, or
``all`` to run every workload in turn.  The first call configures and
builds the model libraries and the perfbench binary from source into
``.perfbench-build/`` (CMake, RelWithDebInfo); later calls rebuild
incrementally.  Build output goes to stderr.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench-build")
WORKLOADS = ["paper_sweep", "manycore_run", "solve_cold", "serve_mix"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no model sources under %s/src: run from a full checkout"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 1)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(BUILD, "perfbench")


def run_one(exe, workload, seed, seconds, trace):
    """Run one workload; echo its output; return the parsed result."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(proc.stdout)
        fail("%s: no result (exit %d)" % (workload, proc.returncode), 1)
    return proc.returncode, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if args.workload != "all":
        code, lines, _ = run_one(exe, args.workload, args.seed,
                                 args.seconds, args.trace)
        print("\n".join(lines))
        sys.exit(code)

    # Every workload in turn; one combined result keyed workload.metric.
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines, result = run_one(exe, w, args.seed, args.seconds,
                                      args.trace)
        print("== %s ==" % w)
        print("\n".join(lines[:-1]))
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()

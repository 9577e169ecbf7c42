#!/usr/bin/env python3
"""Build and run the QAC benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: compile_cold, compile_warm, sample_tts, verify_oracle.

The first call configures and builds perfbench/ (the library sources
from src/ plus the driver) in Release mode under .bench_build/perfbench;
later calls only run an incremental build.  Build output goes to
stderr, so the last line on stdout is the JSON result.  Any build or
driver failure exits non-zero without printing a result.

Untraced runs of the workloads in PROCESSES are split over that many
driver processes, one after another, each with its share of the
seconds and one set-up of its own.  On a shared host a process may run
every ms-scale op about 40% slower for its whole life (its core's
sibling is busy; the driver's core picking makes this rarer but does
not rule it out), so a one-process run would measure that draw.  The
results are merged: op times by the minimum over the processes (the
one the host did not slow), setup_s by median, peak_rss_mb by
maximum, counts by sum; every process must print the same "# result"
line.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qac_perfbench")

# Workloads whose runs are split over several processes; the others run
# ops of seconds each in rounds too long to split.
PROCESSES = {"compile_warm": 3, "sample_tts": 3}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def option(args, name):
    return args[args.index(name) + 1] if name in args else None


def merge(results):
    """One result from the per-process results of one run."""
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            value = statistics.median(values)
        elif name == "peak_rss_mb":
            value = max(values)
        else:
            value = min(values)
        merged["metrics"][name] = {"value": value, "unit": first["unit"]}
    return merged


def run_split(args, processes):
    seconds = float(option(args, "--seconds"))
    share = list(args)
    share[share.index("--seconds") + 1] = repr(seconds / processes)
    share += ["--setups", "1"]
    results, result_lines = [], set()
    for k in range(processes):
        done = subprocess.run([BINARY] + share, stdout=subprocess.PIPE,
                              text=True)
        if done.returncode != 0:
            sys.exit(done.returncode)
        lines = done.stdout.strip().splitlines()
        print(f"# process {k + 1} of {processes}")
        for line in lines[:-1]:
            print(line)
            if line.startswith("# result "):
                result_lines.add(line)
        results.append(json.loads(lines[-1]))
    merged = merge(results)
    if len(result_lines) != 1:
        print("perfbench: the processes' results differ", file=sys.stderr)
        merged["correct"] = False
    print(json.dumps(merged), flush=True)


def main():
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        sys.exit("perfbench: run from the root of the checkout")
    build()
    args = sys.argv[1:]
    processes = PROCESSES.get(option(args, "--workload"), 1)
    if option(args, "--trace") == "0" and option(args, "--seconds") and \
            processes > 1:
        run_split(args, processes)
        return
    done = subprocess.run([BINARY] + args)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Determinism and trace self-check for the QAC benchmark.

Run from the root of a source checkout:

    python3 perfbench/test_determinism.py [workload ...]

For each workload (default: all four) it runs the benchmark twice at
the default thread count (one), once with --threads set to the
machine's CPU count and once traced, all at the same seed, and
requires

  * the "# result" line (every result metric plus a digest of every
    op's result) to be identical across all four runs;
  * the JSON result line to carry exactly the end-to-end metrics of
    BENCHMARK.json untraced and its per-layer metrics traced;
  * the traced replay to reproduce the untraced results (no failed
    answer check, no replay mismatch), with the layer shares the
    benchmark was defined with:
      - compile_cold: embed.find_s is at least 95% of op time;
      - compile_warm and sample_tts: embed.find_s is 0;
      - sample_tts: anneal.sample_s is the largest layer.

Exits 0 when every check passes.  Takes a few minutes: each run does
one full round of its workload.
"""

import json
import os
import re
import subprocess
import sys

WORKLOADS = ["compile_cold", "compile_warm", "sample_tts", "verify_oracle"]
SEED = "7"


def bench(workload, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1"]
    cmd += list(extra)
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = [l for l in lines if l.startswith("# result ")]
    layers = [l for l in lines if l.startswith("# layers ")]
    return {
        "json": json.loads(lines[-1]),
        "result": result[0] if result else None,
        "layers": json.loads(layers[0][len("# layers "):]) if layers else {},
        "stdout": done.stdout,
    }


def metric_names(kind):
    with open("BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)[kind]]


def check(workload):
    problems = []
    a = bench(workload, "--trace", "0")
    if list(a["json"]["metrics"]) != metric_names("end_to_end"):
        problems.append("untraced metrics differ from BENCHMARK.json")
    b = bench(workload, "--trace", "0")
    many = bench(workload, "--trace", "0",
                 "--threads", str(os.cpu_count() or 1))
    if a["result"] is None:
        problems.append("no # result line")
    if a["result"] != b["result"]:
        problems.append(f"result differs between runs:\n  {a['result']}\n"
                        f"  {b['result']}")
    if a["result"] != many["result"]:
        problems.append(f"result differs at --threads {os.cpu_count()}:\n"
                        f"  {a['result']}\n  {many['result']}")
    for run in (a, b, many):
        if not run["json"]["correct"]:
            problems.append("an answer check failed")

    t = bench(workload, "--trace", "1")
    if list(t["json"]["metrics"]) != metric_names("per_layer"):
        problems.append("traced metrics differ from BENCHMARK.json")
    if not t["json"]["correct"]:
        problems.append("traced run: an answer check failed")
    m = re.search(r"replay mismatches (\d+)", t["stdout"])
    if not m or int(m.group(1)) != 0:
        problems.append("traced run: a replay did not reproduce its call")
    if t["result"] != a["result"]:
        problems.append("traced run: results differ from the untraced run")
    metrics = t["json"]["metrics"]
    shares = t["layers"]
    if workload == "compile_cold" and shares.get("embed.find_s", 0) < 0.95:
        problems.append(f"embed.find_s share {shares.get('embed.find_s')}"
                        " < 0.95 on compile_cold")
    if workload in ("compile_warm", "sample_tts") and \
            metrics["embed.find_s"]["value"] != 0:
        problems.append("embed.find_s is not 0")
    if workload == "sample_tts" and \
            (not shares or max(shares, key=shares.get) != "anneal.sample_s"):
        problems.append(f"anneal.sample_s is not the largest layer: {shares}")
    return problems


def main():
    failed = False
    for workload in sys.argv[1:] or WORKLOADS:
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print("  " + p)
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark in perfbench/.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, with short runs of every workload in BENCHMARK.json:

  * a plain run prints exactly the end_to_end metrics, each with the
    unit BENCHMARK.json names and a finite nonzero value, reports
    correct with no failures, and exits 0;
  * a traced run prints exactly the per_layer metrics with their
    units;
  * the oracle trips: with --corrupt-pred the benchmark flips one
    served prediction, and the run must report
    correct=false with failed >= 1 and exit nonzero;
  * in a directory that holds only BENCHMARK.json and perfbench/,
    the command fails without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check_metrics(result, specs, errors, where):
    if result is None or set(result) != {"correct", "attempted",
                                         "failed", "metrics"}:
        errors.append(f"{where}: last stdout line is not a result")
        return
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                      "missing or unexpected")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                          f"BENCHMARK.json says {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r} not finite")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]),
                             (1, bench["per_layer"])):
            where = f"{workload} trace={trace}"
            proc, result = run(workload, trace)
            print(f"{where}: exit {proc.returncode}", flush=True)
            check_metrics(result, specs, errors, where)
            if proc.returncode != 0 or not result or \
                    not result.get("correct") or result.get("failed"):
                errors.append(f"{where}: run failed (exit "
                              f"{proc.returncode}): {proc.stderr[-500:]}")
            if trace == 0 and result:
                for name, entry in result["metrics"].items():
                    if entry.get("value") == 0:
                        errors.append(f"{where}: {name} is 0")

        where = f"{workload} --corrupt-pred"
        proc, result = run(workload, 0, ["--corrupt-pred"])
        print(f"{where}: exit {proc.returncode}", flush=True)
        if proc.returncode == 0 or not result or result.get("correct") \
                or result.get("failed", 0) < 1:
            errors.append(f"{where}: the oracle did not trip "
                          f"(exit {proc.returncode}, result {result})")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload",
         bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, capture_output=True,
        text=True, timeout=180)
    print(f"bare directory: exit {proc.returncode}", flush=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("bare directory: the command did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

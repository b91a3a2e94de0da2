"""Smoke run of the benchmark harness at its smallest size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second with the default
seed (so the golden digests are checked), untraced and traced, prints
each run's metrics with their units, failed_frac and output checks, and
checks the result line of each run: exactly the four keys, outputs
correct with no failed operation, and every metric that BENCHMARK.json
names for that mode present once, with its unit and a finite value
(end-to-end values also non-zero).  It also checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(stdout: str, declared, nonzero: bool):
    problems = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif nonzero and value == 0:
            problems.append(f"{name}: reads 0")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sections = {0: "end_to_end", 1: "per_layer"}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in sections.items():
            declared = {m["name"]: m["unit"] for m in bench[section]}
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = check_result(proc.stdout, declared, nonzero=trace == 0)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"== {workload} trace={trace}: {len(declared)} metrics {status}")
            for line in proc.stdout.splitlines()[:-1]:
                if not line.startswith(("note:", "provenance:")):
                    print("   " + line)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failures += not refused
    print(f"bare directory: exit {proc.returncode}, "
          f"{'refused as expected' if refused else 'FAIL: ran or printed a result'}")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

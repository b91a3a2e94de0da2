"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --runs 10 [--workloads rollout search traj]
                                [--first-seed 1] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
with ``run_seconds`` from BENCHMARK.json.  For each end-to-end metric it
reports the median and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound.  A spread at or above a third
of the bound is flagged.  Every run must report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=None, help="write the report as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    flagged = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        t0 = time.time()
        for seed in report["seeds"]:
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed its output checks")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{workload}: {args.runs} runs in {time.time() - t0:.0f} s")
        for name, bound in bounds.items():
            s = spread(values[name])
            flag = "" if s < bound / 3 else "  <-- spread >= bound/3"
            flagged += bool(flag) and name != "setup_s"
            print(f"  {name:16s} median {statistics.median(values[name]):12.6g}  "
                  f"spread {s:7.4f}  bound {bound:5.3f}{flag}")
            rows[name] = {"median": statistics.median(values[name]), "spread": s,
                          "bound": bound, "values": values[name]}
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

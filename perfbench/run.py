"""Benchmark of the quadcpg stack: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload rollout --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from
``src/`` of that checkout and nothing else.  ``--trace 0`` measures the
end-to-end metrics with no spans recorded; ``--trace 1`` records spans
around every layer's entry points and reports the per-layer metrics
(see ``perfbench/README.md``).  Both modes check the program's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it repeat every metric with its unit, the sample counts, each
output check and the provenance of the run.  Everything the run writes
goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: The seed whose first iteration is pinned by the golden digests.
DEFAULT_SEED = 0


def import_package():
    """Import quadcpg from this checkout's src/, refusing any other copy."""
    init = os.path.join(SRC, "quadcpg", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import quadcpg
    import quadcpg.plotting  # not imported by the package itself
    if os.path.abspath(quadcpg.__file__) != init:
        raise SystemExit(f"error: imported quadcpg from {quadcpg.__file__}, not {init}")
    return quadcpg


def declared_metrics(section: str):
    """(name, unit) pairs of one metric section of BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        doc = json.load(fh)
    return [(m["name"], m["unit"]) for m in doc[section]]


def git_commit() -> str:
    """HEAD of the checkout read from .git, or a note when there is none."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return f"unresolved ({ref})"


def src_line_count() -> int:
    pkg = os.path.join(SRC, "quadcpg")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def provenance(quadcpg, args, load_before) -> dict:
    import numpy
    return {
        "package": "quadcpg",
        "package_version": quadcpg.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_quadcpg_py_lines": src_line_count(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; at least one iteration always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    quadcpg = import_package()

    import setup_probe
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, "work")
    os.makedirs(work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        quadcpg, args.seed, work_dir, golden=args.seed == DEFAULT_SEED)

    probes = setup_probe.run_probes(SRC, workload.robot_name)
    if args.trace:
        metrics, notes = tracing.run_traced(quadcpg, workload, args.seconds, probes,
                                            spans_path=os.path.join(
                                                OUT, f"spans-{args.workload}.npz"))
        section = "per_layer"
    else:
        metrics, notes = workloads.run_timed(workload, args.seconds)
        metrics["setup_s"] = (probes["setup_s"], "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        section = "end_to_end"
    checks = workload.finish()

    declared = declared_metrics(section)
    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {', '.join(missing)}")
    prov = provenance(quadcpg, args, load_before)

    attempted, failed = workload.attempted, workload.failed
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    for name, unit in declared:
        print(f"{name:48s} {metrics[name][0]:>16.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} {workload.op_name}s failed)")
    notes += workload.notes
    for line in notes:
        print(f"note: {line}")
    print("note: every layer runs in one thread behind no queue, so no layer "
          "waits for work; waiting time is not reported")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name][0]), "unit": unit}
                    for name, unit in declared},
    }
    record = dict(result, provenance=prov, notes=notes, setup_probes=probes,
                  checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks])
    record_path = os.path.join(
        OUT, f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

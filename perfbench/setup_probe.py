"""Set-up time of a fresh interpreter, measured in child processes.

Run as a script (``python3 perfbench/setup_probe.py SRC ROBOT``) it
imports quadcpg from SRC, loads the registry, looks the robot up,
constructs and resets its environment, then prints one JSON line: the
``time.monotonic()`` reading at which the first step is ready, plus the
time of each stage.  ``run_probes`` starts several such children one
after another and reports the median of each figure; set-up time is
counted from just before the child is started, so it includes
interpreter start-up.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import reference

N_PROBES = 9


def probe(src: str, robot_name: str) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from quadcpg import environment, registry
    t1 = time.perf_counter()
    registry.load_registry()
    t2 = time.perf_counter()
    robot = registry.get_robot(robot_name)
    t3 = time.perf_counter()
    env = environment.QuadrupedEnv(robot)
    env.reset(seed=0)
    t4 = time.perf_counter()
    return {
        "ready_monotonic": time.monotonic(),
        "import_s": t1 - t0,
        "registry_load_ms": (t2 - t1) * 1e3,
        "registry_get_robot_us": (t3 - t2) * 1e6,
        "env_init_reset_us": (t4 - t3) * 1e6,
    }


def run_probes(src: str, robot_name: str, n: int = N_PROBES) -> dict:
    """Median over n child processes of set-up time and its stages.

    ``setup_s`` is normalised by the host slowdown timed just before and
    after each child (see reference.py); ``setup_s_raw`` is as measured.
    """
    samples = []
    for _ in range(n):
        before = reference.slowdown()
        t_spawn = time.monotonic()
        proc = subprocess.run([sys.executable, __file__, src, robot_name],
                              capture_output=True, text=True, timeout=120, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s_raw"] = doc.pop("ready_monotonic") - t_spawn
        doc["host_slowdown"] = (before + reference.slowdown()) / 2.0
        doc["setup_s"] = doc["setup_s_raw"] / doc["host_slowdown"]
        samples.append(doc)
    medians = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    medians["n_probes"] = n
    return medians


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1], sys.argv[2])))

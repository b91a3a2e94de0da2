"""Fingerprints of the outputs: every robot's rollout CSV and manifest bytes,
`evaluate_batch` returns and search JSON.

`cases()` runs the cases that `tests/test_behaviour.py` pins:

- all built-in robots at (mu, omega) (1.0, 2.5) and (4.0, 5.0 Hz) for 2 s
  each;
- 10 s rollouts of A1, Dog3 and Little Dog at (1.0, 2.5) and of A1 at
  (0.5, 0.0), which cross the batch kernel's tile boundaries and the
  amplitude's settle point (2,154 to 2,184 substeps from rest); at
  omega 0 the phases never move;
- `evaluate_batch` of the first 1, 3, 4 and 5 of `BATCH_COMMANDS` (the
  float recurrences take up to `batch.FLOAT_LANES` lanes, the array ones
  more) at horizons 1, 81 and 300 on A1, Dog3 and Little Dog: lanes that
  settle at different substeps, omega 0, and mu at both ends of the box;
- `evaluate_batch` of the 170 `WIDE_COMMANDS` on A1 at horizon 20: full
  lane chunks of one step per tile at a `batch.TILE_LANE_SUBSTEPS` of 800
  (80 lanes) and of 1,600 (160 lanes), then 10 lanes whose tiles of 8 or
  16 steps end inside the horizon;
- `search_constant_command` of A1, Dog3 and Little Dog at budget 40,
  horizon 60, seed 0, as the `search` subcommand writes it;
- all built-in robots for 1 s under the raw actions of `SCRIPT`, which
  change at step 1, so that `run_rollout` runs every step on
  `QuadrupedEnv.step`: diagonal legs (FR and RL, FL and RR) commanded
  alike, then an omega of -0.0 on RL alone, then each pair commanded a
  different mu or omega, then commands that clamp.

A rollout case is the SHA-256 of its CSV and of its manifest, an
`evaluate_batch` case that of the reprs of its returns, a search case that
of its JSON file.  numpy is loaded first, as in any process that has
imported it.

The bits depend on the platform's libm, so `goldens/behaviour.json` holds
one entry per (Python, numpy, libc) triple.  To add or refresh the entry of
the platform it runs on:

    python3 tests/behaviour.py

It prints the cases that changed.  An entry is made only by a run on its
platform, never by editing a hash.
"""

import hashlib
import json
import os
import pathlib
import platform
import sys
import tempfile

GOLDENS = pathlib.Path(__file__).resolve().with_name("goldens") / "behaviour.json"

COMMANDS = ((1.0, 2.5), (4.0, 5.0))
DURATION_S = 2.0
LONG_CASES = (("A1", 1.0, 2.5, 10.0), ("Dog3", 1.0, 2.5, 10.0),
              ("Little Dog", 1.0, 2.5, 10.0), ("A1", 0.5, 0.0, 10.0))   # 1,000 steps each
BATCH_ROBOTS = ("A1", "Dog3", "Little Dog")
BATCH_COMMANDS = ((1.0, 2.5), (0.5, 0.0), (4.0, 5.0), (2.7, 1.3), (3.3, 0.7))
BATCH_LANES = (1, 3, 4, 5)
BATCH_HORIZONS = (1, 81, 300)
WIDE_COMMANDS = tuple((0.5 + 0.02 * i, 0.05 * (i % 97)) for i in range(170))
WIDE_HORIZON = 20
SEARCH_ROBOTS = ("A1", "Dog3", "Little Dog")
SEARCH_BUDGET, SEARCH_HORIZON = 40, 60


def _trot(mu, omega):
    return (mu,) * 4 + (omega,) * 4


#: One raw action per step of a 1 s rollout (legs FR, FL, RR, RL).
SCRIPT = ([_trot(1.0, 2.5), _trot(1.5, 3.0)] * 10
          + [(1.0,) * 4 + (0.0, 0.0, 0.0, -0.0)] * 10   # RL's omega -0.0, FR's 0.0
          + [_trot(2.0, 3.5)] * 5
          + [(1.0, 1.0, 1.0, 1.5) + (2.5,) * 4]   # FR and RL apart in mu
          + [_trot(2.0, 3.5)] * 24
          + [(2.0,) * 4 + (3.0, 2.5, 3.0, 3.0)]   # FL and RR apart in omega
          + [_trot(4.0, 5.0)] * 19 + [_trot(9.0, -1.0)] * 20)
SCRIPT_S = 1.0   # len(SCRIPT) control steps


def platform_key():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "libc": list(platform.libc_ver())}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cases():
    """{case name: {"csv": sha256, "manifest": sha256}} of every rollout case,
    {case name: {"returns": sha256}} of every `evaluate_batch` case and
    {case name: {"json": sha256}} of every search case."""
    import numpy   # noqa: F401 - loaded, as in any process that imported it
    from quadcpg.batch import evaluate_batch
    from quadcpg.controllers import open_loop_trot, search_constant_command
    from quadcpg.registry import builtin_registry
    from quadcpg.rollout import run_rollout, write_record_csv, write_record_manifest

    registry = builtin_registry()
    runs = [(robot.name, mu, omega, DURATION_S) for robot in registry
            for mu, omega in COMMANDS] + list(LONG_CASES)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, manifest_path = os.path.join(tmp, "r.csv"), os.path.join(tmp, "r.json")
        for name, mu, omega, duration in runs:
            record = run_rollout(registry.get(name), open_loop_trot(mu, omega), duration)
            write_record_csv(record, csv_path)
            write_record_manifest(record, manifest_path)
            out[f"{name} mu={mu} omega={omega} {duration} s"] = {
                "csv": _sha256(csv_path), "manifest": _sha256(manifest_path)}
        for robot in registry:
            actions = iter(SCRIPT)
            record = run_rollout(robot, lambda obs: next(actions), SCRIPT_S)
            write_record_csv(record, csv_path)
            write_record_manifest(record, manifest_path)
            out[f"{robot.name} scripted {SCRIPT_S} s"] = {
                "csv": _sha256(csv_path), "manifest": _sha256(manifest_path)}
    for name in BATCH_ROBOTS:
        for lanes in BATCH_LANES:
            for horizon in BATCH_HORIZONS:
                returns = evaluate_batch(registry.get(name), BATCH_COMMANDS[:lanes], horizon)
                blob = repr(returns).encode()
                out[f"evaluate_batch {name} lanes={lanes} horizon={horizon}"] = {
                    "returns": hashlib.sha256(blob).hexdigest()}
    returns = evaluate_batch(registry.get("A1"), WIDE_COMMANDS, WIDE_HORIZON)
    out[f"evaluate_batch A1 lanes={len(WIDE_COMMANDS)} horizon={WIDE_HORIZON}"] = {
        "returns": hashlib.sha256(repr(returns).encode()).hexdigest()}
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "s.json")
        for name in SEARCH_ROBOTS:
            search_constant_command(registry.get(name), SEARCH_BUDGET, seed=0,
                                    horizon=SEARCH_HORIZON).to_json(json_path)
            out[f"search {name} budget={SEARCH_BUDGET} horizon={SEARCH_HORIZON} seed=0"] = {
                "json": _sha256(json_path)}
    return out


def load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def main():
    key = platform_key()
    doc = load() if GOLDENS.exists() else {"entries": []}
    entries = [e for e in doc["entries"] if e["platform"] != key]
    old = next((e["cases"] for e in doc["entries"] if e["platform"] == key), {})
    new = cases()
    changed = sorted(name for name in set(old) | set(new) if old.get(name) != new.get(name))
    entries.append({"platform": key, "cases": new})
    GOLDENS.parent.mkdir(exist_ok=True)
    with open(GOLDENS, "w") as fh:
        json.dump({"entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{GOLDENS}: {len(new)} cases for {key}; changed: {changed or 'none'}")


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    main()

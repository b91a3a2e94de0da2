"""Scalar-path outputs whose bits must not depend on the Python interpreter.

Run as ``python interpreter_probe.py SRC OUT_DIR`` it imports quadcpg from
SRC, writes its rollout files into OUT_DIR and prints one JSON line.  It
needs the standard library only: the scalar path loads neither numpy nor
PyYAML, so any interpreter that can run the package can run the probe.
"""

import hashlib
import json
import os
import sys

#: Rollouts at the top of the command box: Little Dog clamps its IK there.
ROLLOUT_ROBOTS = ("A1", "Dog3", "Spot-Micro", "Little Dog")
ROLLOUT_MU, ROLLOUT_OMEGA, ROLLOUT_S = 4.0, 5.0, 2.0

#: (robot, mu, omega, horizon) of the evaluate_constant_command returns.
RETURNS = (
    ("A1", 1.0, 2.5, 60),
    ("A1", 4.0, 5.0, 30),
    ("Dog3", 0.5, 0.0, 30),
    ("Dog3", 4.0, 5.0, 30),
    ("Spot-Micro", 2.2, 3.7, 30),
    ("Little Dog", 4.0, 5.0, 30),
)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def probe(out_dir):
    """{"rollouts": {robot: hashes and clamp count}, "returns": [repr, ...]}."""
    from quadcpg.controllers import evaluate_constant_command, open_loop_trot
    from quadcpg.registry import get_robot
    from quadcpg.rollout import run_rollout, write_record_csv, write_record_manifest

    rollouts = {}
    for name in ROLLOUT_ROBOTS:
        record = run_rollout(get_robot(name), open_loop_trot(ROLLOUT_MU, ROLLOUT_OMEGA),
                             ROLLOUT_S)
        csv_path = os.path.join(out_dir, "roll.csv")
        manifest_path = os.path.join(out_dir, "roll.json")
        write_record_csv(record, csv_path)
        write_record_manifest(record, manifest_path)
        rollouts[name] = {"csv_sha256": _sha256(csv_path),
                          "manifest_sha256": _sha256(manifest_path),
                          "workspace_violations": record.workspace_violations}
    returns = [repr(evaluate_constant_command(get_robot(name), mu, omega, horizon))
               for name, mu, omega, horizon in RETURNS]
    return {"rollouts": rollouts, "returns": returns}


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(json.dumps(probe(sys.argv[2]), sort_keys=True))

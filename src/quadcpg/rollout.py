"""Rollout execution and record export (CSV time series + JSON manifest).

CSV schema v1: one row per 100 Hz control step, in the column order of
`record_columns()`; limb suffixes follow `oscillator.LIMBS`, and foot_*
are the commanded targets in the hip frame.  Floats are written with repr
(shortest round-trip form), so identical rollouts serialize byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .batch import foot_targets
from .environment import CONTROL_DT, N_SUBSTEPS, QuadrupedEnv, sum_in_order
from .oscillator import (ALPHA, DT_INTEGRATION, LIMBS, TROT_PHASES, TWO_PI, advance,
                         check_command_box, init_cpg)
from .registry import RobotDescriptor

SCHEMA_VERSION = 1


def record_columns() -> List[str]:
    cols = ["t", "base_x", "base_y", "base_z", "roll", "pitch", "yaw",
            "vx", "vy", "vz"]
    for prefix in ("r", "theta", "mu", "omega"):
        cols += [f"{prefix}_{l}" for l in LIMBS]
    for l in LIMBS:
        cols += [f"foot_x_{l}", f"foot_y_{l}", f"foot_z_{l}"]
    cols += [f"contact_{l}" for l in LIMBS]
    cols += ["reward_forward", "reward_orientation", "reward_power", "reward_total"]
    return cols


@dataclass
class RolloutRecord:
    """Time series of one rollout plus its manifest's metadata: `config` holds
    all the rows depend on, `seed` is only a label."""

    seed: int
    columns: List[str]
    rows: List[List[float]]
    config: dict
    termination_step: Optional[int] = None
    workspace_violations: int = 0

    @property
    def mean_velocity(self) -> float:
        if not self.rows:
            return 0.0
        ix = self.columns.index("base_x")
        return self.rows[-1][ix] / (len(self.rows) * CONTROL_DT)

    @property
    def mean_reward(self) -> float:
        return self.column_mean("reward_total")

    def column_mean(self, name: str) -> float:
        """Mean of one column over all rows; 0.0 for an empty record."""
        if not self.rows:
            return 0.0
        ix = self.columns.index(name)
        return sum_in_order(row[ix] for row in self.rows) / len(self.rows)

    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def manifest(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "robot": self.config["robot"],
            "seed": self.seed,
            "duration": self.config["duration"],
            "control_dt": CONTROL_DT,
            "config": self.config,
            "config_hash": self.config_hash(),
            "columns": self.columns,
            "summary": {
                "steps": len(self.rows),
                "termination_step": self.termination_step,
                "workspace_violations": self.workspace_violations,
                "mean_velocity": self.mean_velocity,
                "mean_reward": self.mean_reward,
            },
        }


def _control_periods(duration: float) -> int:
    """Number of CONTROL_DT periods in `duration`, which must span one."""
    if not (math.isfinite(duration) and duration >= CONTROL_DT):
        raise ValueError(f"duration must be finite and at least one control period "
                         f"({CONTROL_DT} s), got {duration}")
    return int(round(duration / CONTROL_DT))


def run_rollout(robot: RobotDescriptor, policy, duration: float,
                seed: int = 0) -> RolloutRecord:
    """Run one episode of `duration` seconds with the given policy.

    The policy maps each Observation to a raw action of 8 finite reals
    (mu x4, omega x4), which the environment clamps.  The oscillators
    start from the policy's `initial_phases`, or from a trot if it has
    none.  The episode depends only on the robot, the policy and the
    duration; `seed` labels the record and its manifest.
    """
    n_steps = _control_periods(duration)
    env = QuadrupedEnv(robot)
    phases = getattr(policy, "initial_phases", TROT_PHASES)
    obs = env.reset(seed=seed, initial_phases=phases)

    columns = record_columns()
    rows: List[List[float]] = []
    termination_step = None
    violations = 0
    for k in range(n_steps):
        action = policy(obs)
        obs, _, done, info = env.step(action)
        violations += info["workspace_violations"]

        backend = env.backend
        cpg = env.cpg_states
        row = [env.time, *backend.base_pos, *backend.base_rpy, *backend.base_lin_vel]
        row += [s.r for s in cpg]
        row += [s.theta for s in cpg]
        row += info["command"].mu + info["command"].omega
        for tgt in info["foot_targets"]:
            row += tgt
        row += [1.0 if c else 0.0 for c in backend.foot_contacts]
        row += info["terms"]   # forward, orientation, power, total
        rows.append(row)
        if done:
            termination_step = k + 1
            break

    config = {
        "robot": robot.name,
        "duration": duration,
        "control_dt": CONTROL_DT,
        "alpha": ALPHA,
        "dt_integration": DT_INTEGRATION,
        "initial_phases": list(phases),
    }
    return RolloutRecord(
        seed=seed, columns=columns, rows=rows, config=config,
        termination_step=termination_step, workspace_violations=violations)


def trajectory_columns() -> List[str]:
    """The record columns an open-loop trajectory has, in record order."""
    return [c for c in record_columns()
            if c == "t" or c.startswith(("r_", "theta_", "foot_"))]


def run_open_loop_trajectory(robot: RobotDescriptor, mu: float, omega: float,
                             duration: float):
    """CPG + pattern formation only, no backend: sampled foot targets.

    The oscillators start from a trot, are integrated at the 1 kHz rate
    and are sampled once per control period.  A command outside the
    command box raises ValueError.  Returns (columns, rows).
    """
    check_command_box(mu, omega)
    n_samples = _control_periods(duration)
    # the legs share r and r_dot (one mu, all at rest), each has its phase; the
    # recurrence runs on floats, pattern formation over all samples at once
    cpg = init_cpg(TROT_PHASES)
    r, r_dot = cpg[0].r, cpg[0].r_dot
    fr, fl, rr, rl = (s.theta for s in cpg)
    theta_dot = TWO_PI * omega
    amplitudes, phases = [], []
    for _ in range(n_samples):
        for _ in range(N_SUBSTEPS):
            r, r_dot, fr, fl, rr, rl = advance(r, r_dot, mu, theta_dot, fr, fl, rr, rl)
        amplitudes.append(r)
        phases.append((fr, fl, rr, rl))
    feet = foot_targets(robot, amplitudes, phases).reshape(n_samples, -1).tolist()
    rows = [[(k + 1) * CONTROL_DT, r, r, r, r, *thetas, *targets]
            for k, (r, thetas, targets) in enumerate(zip(amplitudes, phases, feet))]
    return trajectory_columns(), rows


def write_csv(columns: Sequence[str], rows, path: str) -> None:
    """Write a table of floats as csv.writer would: repr values, none quoted, CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\r\n")


def write_record_csv(record: RolloutRecord, path: str) -> None:
    write_csv(record.columns, record.rows, path)


def write_record_manifest(record: RolloutRecord, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_record_csv(path: str):
    """Read a record CSV back as (columns, rows of floats)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            columns = next(reader)
        except StopIteration:
            raise ValueError(f"record file {path!r} is empty") from None
        rows = [list(map(float, row)) for row in reader]
    return columns, rows

"""Rollout execution and record export (CSV time series + JSON manifest).

CSV schema v1, one row per 100 Hz control step, columns in this fixed
order (limb suffixes fr, fl, rr, rl):

    t,
    base_x, base_y, base_z, roll, pitch, yaw, vx, vy, vz,
    r_*, theta_*, mu_*, omega_*,
    foot_x_*, foot_y_*, foot_z_*,          (commanded targets, hip frame)
    contact_*,
    reward_forward, reward_orientation, reward_power, reward_total

Floats are written with repr (shortest round-trip form), so identical
rollouts serialize byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .environment import CONTROL_DT, N_SUBSTEPS, QuadrupedEnv
from .foot_trajectory import leg_pf_params
from .oscillator import ALPHA, DT_INTEGRATION, TROT_PHASES, init_cpg
from .registry import RobotDescriptor

SCHEMA_VERSION = 1
_LIMBS = ("fr", "fl", "rr", "rl")


def record_columns() -> List[str]:
    cols = ["t", "base_x", "base_y", "base_z", "roll", "pitch", "yaw",
            "vx", "vy", "vz"]
    for prefix in ("r", "theta", "mu", "omega"):
        cols += [f"{prefix}_{l}" for l in _LIMBS]
    for l in _LIMBS:
        cols += [f"foot_x_{l}", f"foot_y_{l}", f"foot_z_{l}"]
    cols += [f"contact_{l}" for l in _LIMBS]
    cols += ["reward_forward", "reward_orientation", "reward_power", "reward_total"]
    return cols


@dataclass
class RolloutRecord:
    """Time series of one rollout plus the metadata for its manifest."""

    robot_name: str
    seed: int
    duration: float
    control_dt: float
    columns: List[str]
    rows: List[List[float]]
    config: dict = field(default_factory=dict)
    termination_step: Optional[int] = None
    workspace_violations: int = 0

    @property
    def mean_velocity(self) -> float:
        if not self.rows:
            return 0.0
        ix = self.columns.index("base_x")
        return self.rows[-1][ix] / (len(self.rows) * self.control_dt)

    @property
    def mean_reward(self) -> float:
        return self.column_mean("reward_total")

    def column_mean(self, name: str) -> float:
        """Mean of one column over all rows; 0.0 for an empty record."""
        if not self.rows:
            return 0.0
        ix = self.columns.index(name)
        return sum(row[ix] for row in self.rows) / len(self.rows)

    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def manifest(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "robot": self.robot_name,
            "seed": self.seed,
            "duration": self.duration,
            "control_dt": self.control_dt,
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


def run_rollout(robot: RobotDescriptor, policy, duration: float, seed: int = 0,
                backend=None) -> RolloutRecord:
    """Run one episode of `duration` seconds with the given policy.

    The oscillators start from the policy's `initial_phases`, or from a
    trot if it has none.
    """
    n_steps = _control_periods(duration)
    env = QuadrupedEnv(robot, backend=backend)
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

        backend_state = env.backend
        cmd = info["command"]
        terms = info["terms"]
        cpg = env.cpg_states
        row = [env.time,
               *backend_state.base_pos, *backend_state.base_rpy,
               *backend_state.base_lin_vel]
        row += [s.r for s in cpg]
        row += [s.theta for s in cpg]
        row += list(cmd.mu)
        row += list(cmd.omega)
        for tgt in info["foot_targets"]:
            row += [tgt.x, tgt.y, tgt.z]
        row += [1.0 if c else 0.0 for c in backend_state.foot_contacts]
        row += [terms.forward_progress, terms.orientation_penalty,
                terms.power_penalty, terms.total]
        rows.append(row)
        if done:
            termination_step = k + 1
            break

    config = {
        "robot": robot.name,
        "seed": seed,
        "duration": duration,
        "control_dt": env.control_dt,
        "alpha": ALPHA,
        "dt_integration": DT_INTEGRATION,
        "initial_phases": list(phases),
    }
    return RolloutRecord(
        robot_name=robot.name, seed=seed, duration=duration,
        control_dt=env.control_dt, columns=columns, rows=rows,
        config=config, termination_step=termination_step,
        workspace_violations=violations)


def trajectory_columns() -> List[str]:
    cols = ["t"]
    for prefix in ("r", "theta"):
        cols += [f"{prefix}_{l}" for l in _LIMBS]
    for l in _LIMBS:
        cols += [f"foot_x_{l}", f"foot_y_{l}", f"foot_z_{l}"]
    return cols


def run_open_loop_trajectory(robot: RobotDescriptor, mu: float, omega: float,
                             duration: float):
    """CPG + pattern formation only, no backend: sampled foot targets.

    The oscillators start from a trot, are integrated at the 1 kHz rate
    and are sampled once per control period.  Returns (columns, rows).
    """
    # looked up at call time, so replacements patched onto these modules see every call
    from .foot_trajectory import foot_target
    from .oscillator import step_oscillator

    n_samples = _control_periods(duration)
    cpg = init_cpg(TROT_PHASES)
    pf = leg_pf_params(robot)

    rows = []
    for k in range(n_samples):
        for _ in range(N_SUBSTEPS):
            for i in range(4):
                cpg[i] = step_oscillator(cpg[i], mu, omega)
        row = [(k + 1) * CONTROL_DT]
        row += [s.r for s in cpg]
        row += [s.theta for s in cpg]
        for i in range(4):
            tgt = foot_target(cpg[i], pf[i])
            row += [tgt.x, tgt.y, tgt.z]
        rows.append(row)
    return trajectory_columns(), rows


def write_csv(columns: Sequence[str], rows, path: str) -> None:
    """Write any (columns, rows) table with round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) for v in row])


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
        rows = [[float(v) for v in row] for row in reader]
    return columns, rows

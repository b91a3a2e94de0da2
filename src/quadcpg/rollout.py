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
import struct
import sys
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence

from .environment import CONTROL_DT, N_SUBSTEPS, Observation, QuadrupedEnv, sum_in_order
from .oscillator import (ALPHA, DT_INTEGRATION, LIMBS, TROT_PHASES, TWO_PI, advance,
                         amplitude_settled, check_command_box, clamp_command, init_cpg)
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
    termination_step: Optional[int] = None   # always None: the world cannot fall
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


#: The longest duration a run accepts, in s: 100,000 control periods.  A
#: rollout row (A1, x86-64, Python 3.11) takes ~165 us on the scalar env and
#: ~46 us through the held-command pass, peaks near 2 KB of memory and writes
#: ~560 B of CSV, so the longest rollout takes under 20 s, peaks near 0.2 GB
#: and writes ~56 MB.
MAX_DURATION = 1000.0


def _control_periods(duration: float) -> int:
    """Number of CONTROL_DT periods in `duration`, which must span one and
    not exceed MAX_DURATION."""
    if not (math.isfinite(duration) and duration >= CONTROL_DT):
        raise ValueError(f"duration must be finite and at least one control period "
                         f"({CONTROL_DT} s), got {duration}")
    if duration > MAX_DURATION:
        raise ValueError(f"duration must be at most {MAX_DURATION} s, got {duration}")
    return int(round(duration / CONTROL_DT))


def _bits(values) -> bytes:
    """The IEEE bits of a sequence of floats: unlike ==, they tell -0.0 from 0.0."""
    return struct.pack(f"{len(values)}d", *values)


def run_rollout(robot: RobotDescriptor, policy, duration: float,
                seed: int = 0) -> RolloutRecord:
    """Run one episode of `duration` seconds with the given policy.

    The policy maps each Observation to a raw action of 8 finite reals
    (mu x4, omega x4), which the environment clamps.  The oscillators
    start from the policy's `initial_phases`, or from a trot if it has
    none.  The episode depends only on the robot, the policy and the
    duration; `seed` labels the record and its manifest.

    The policy is called once per step, on the observation the scalar env
    would give it.  When numpy is already loaded (this function never loads
    it), the phases are the trot's, and the clamped commands of steps 0 and
    1 are one trot command (the same bits in all four mu and in all four
    omega), the rest of the episode that this held command implies is taken
    from one pass of the batch kernel (`_held_steps`), step by step for as
    long as the policy returns those bits.  At the first step where it
    returns another command, the env, which ran step 0, replays the held
    command up to that step and runs the episode on from there.  The
    result is the env's, bit for bit, either way.

    While the pass holds a command, a step whose raw action `is` an object
    that clamped to it skips the clamp: that object is an exact tuple of
    exact floats, immutable, so it clamps to the same bits every time.  Any
    other raw action (a new tuple, a list, a namedtuple, a tuple holding an
    int or a numpy value) is clamped at every step, as is every action
    before a command is held.
    """
    n_steps = _control_periods(duration)
    env = QuadrupedEnv(robot)
    phases = getattr(policy, "initial_phases", TROT_PHASES)
    obs = env.reset(seed=seed, initial_phases=phases)
    trot = "numpy" in sys.modules and _bits([s.theta for s in env.cpg_states]) == _bits(
        TROT_PHASES)

    columns = record_columns()
    rows: List[List[float]] = []
    violations = 0
    held = None   # the bits of the command the pass holds, while the policy holds it
    held_raw = None   # an immutable raw action that clamped to those bits
    for k in range(n_steps):
        raw = policy(obs)
        if held is not None and raw is held_raw:
            row, obs, clamps = next(steps)
            rows.append(row)
            violations += clamps
            continue
        cmd = clamp_command(raw)
        action = cmd.mu + cmd.omega
        bits = _bits(action)
        if k == 1 and trot and bits == first == _bits(cmd.mu[:1] * 4 + cmd.omega[:1] * 4):
            held, held_action, steps = bits, action, _held_steps(robot, cmd, n_steps)
        if held is not None:
            if bits == held:
                if type(raw) is tuple and all(type(v) is float for v in raw):
                    held_raw = raw
                row, obs, clamps = next(steps)
                rows.append(row)
                violations += clamps
                continue
            for _ in range(1, k):
                env.step(held_action)
            held = None
        first = bits
        obs, _, _, info = env.step(action)
        violations += info["workspace_violations"]

        backend = env.backend
        cpg = env.cpg_states
        row = [env.time, *backend.base_pos, *backend.base_rpy, *backend.base_lin_vel]
        row += [s.r for s in cpg]
        row += [s.theta for s in cpg]
        row += action
        for tgt in info["foot_targets"]:
            row += tgt
        row += [1.0 if c else 0.0 for c in backend.foot_contacts]
        row += info["terms"]   # forward, orientation, power, total
        rows.append(row)

    config = {
        "robot": robot.name,
        "duration": duration,
        "control_dt": CONTROL_DT,
        "alpha": ALPHA,
        "dt_integration": DT_INTEGRATION,
        "initial_phases": list(phases),
    }
    return RolloutRecord(seed=seed, columns=columns, rows=rows, config=config,
                         workspace_violations=violations)


def _held_steps(robot: RobotDescriptor, cmd, n_steps: int):
    """(record row, observation, IK clamp count) of steps 1, 2, ... of the
    trot from rest that holds the clamped trot command `cmd`, each as
    `QuadrupedEnv.step` gives it, from one pass of `batch.trot_streams`."""
    from .batch import trot_streams   # numpy is loaded: run_rollout comes here only then
    s = {name: a[:, 0].tolist()
         for name, a in trot_streams(robot, cmd.mu[0], cmd.omega[0], n_steps).items()}
    action, still = cmd.mu + cmd.omega, (0.0, 0.0, 0.0)
    theta_dot = (TWO_PI * cmd.omega[0],) * 4
    bz, ys = robot.height_nominal, [leg.abd_offset for leg in robot.legs]
    steps = zip(*(s[name] for name in (
        "time", "x", "y", "vx", "vy", "r", "r_dot", "theta", "target_x", "target_z",
        "contact", "feet", "forward", "orientation", "power", "total", "clamps")))
    next(steps)   # step 0 ran on the env
    for (t, x, y, vx, vy, r, r_dot, theta, tx, tz, contact, feet,
         *terms, clamps) in steps:
        row = [t, x, y, bz, 0.0, 0.0, 0.0, vx, vy, 0.0, r, r, r, r, *theta, *action]
        for target in zip(tx, ys, tz):
            row += target
        row += [1.0 if c else 0.0 for c in contact]
        row += terms
        obs = Observation(still, (vx, vy, 0.0), still, tuple(contact), tuple(feet), action,
                          (r, r, r, r, r_dot, r_dot, r_dot, r_dot, *theta, *theta_dot))
        yield row, obs, clamps


def trajectory_columns() -> List[str]:
    """The record columns an open-loop trajectory has, in record order."""
    return [c for c in record_columns()
            if c == "t" or c.startswith(("r_", "theta_", "foot_"))]


def run_open_loop_trajectory(robot: RobotDescriptor, mu: float, omega: float,
                             duration: float):
    """CPG + pattern formation only, no backend: sampled foot targets.

    The oscillators start from a trot, are integrated at the 1 kHz rate
    and are sampled once per control period.  A command outside the
    command box raises ValueError.  Returns (columns, rows).  All legs share
    r (one mu, all at rest), and legs with one start phase share theta: the
    same IEEE operations on the same inputs.  So the recurrence advances each
    distinct start once (the trot has two), and each leg takes its start's.
    Once a sample's last substep leaves (r, r_dot) as it found them
    (`oscillator.amplitude_settled`), r holds for good, and the remaining
    substeps advance the phases alone by `advance`'s own phase line,
    (theta + theta_dot * DT_INTEGRATION) % TWO_PI, which the two share.
    """
    check_command_box(mu, omega)
    n_samples = _control_periods(duration)
    cpg = init_cpg(TROT_PHASES)
    r, r_dot = cpg[0].r, cpg[0].r_dot
    a, b = starts = list(dict.fromkeys(s.theta for s in cpg))   # the trot's: 0, pi
    theta_dot = TWO_PI * omega
    amplitudes, phases = [], []
    for _ in range(n_samples):
        for _ in range(N_SUBSTEPS):
            last = r, r_dot
            r, r_dot, a, b = advance(r, r_dot, mu, theta_dot, a, b)
        amplitudes.append(r)
        phases.append((a, b))
        if amplitude_settled(*last, r, r_dot):
            break
    step = theta_dot * DT_INTEGRATION
    for _ in range(n_samples - len(phases)):   # r has settled: the phases alone
        for _ in range(N_SUBSTEPS):
            a = (a + step) % TWO_PI
            b = (b + step) % TWO_PI
        phases.append((a, b))
    amplitudes += [r] * (n_samples - len(amplitudes))
    import numpy as np   # imported here, on first use
    from .batch import foot_targets
    thetas = np.take(phases, [starts.index(s.theta) for s in cpg], axis=1)   # each leg's
    x, z = foot_targets(robot, amplitudes, thetas)   # y is each leg's abd_offset
    y = np.broadcast_to([leg.abd_offset for leg in robot.legs], x.shape)
    feet = np.stack((x, y, z), axis=-1).reshape(n_samples, -1)
    rows = [[(k + 1) * CONTROL_DT, r, r, r, r, *cells] for k, (r, cells)
            in enumerate(zip(amplitudes, np.hstack((thetas, feet)).tolist()))]
    return trajectory_columns(), rows


class _Reprs(dict):
    """repr of each float, stored on first use but for 0.0, equal to -0.0, and NaN."""

    def __missing__(self, value: float) -> str:
        if value == value != 0.0:
            return self.setdefault(value, repr(value))
        return repr(value)


def write_csv(columns: Sequence[str], rows: Sequence[Sequence[float]], path: str) -> None:
    """Write a table as csv.writer would over repr of each cell: none quoted, CRLF.
    An all-float table forms each distinct value's repr once (rows repeat many);
    any other forms each cell's, for 1, True and np.float64(1.0) key as 1.0."""
    floats = set(map(type, chain.from_iterable(rows))) <= {float}
    form = _Reprs().__getitem__ if floats else repr
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for row in rows:
            fh.write(",".join(map(form, row)) + "\r\n")


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
        rows = []
        for k, row in enumerate(reader, 1):
            if len(row) != len(columns):
                raise ValueError(f"record file {path!r}: data row {k} has {len(row)} "
                                 f"cells, the header has {len(columns)}")
            rows.append(list(map(float, row)))
    return columns, rows

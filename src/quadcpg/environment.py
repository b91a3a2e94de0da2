"""Locomotion MDP: 100 Hz actions over a 1 kHz inner control loop.

Each control step clamps the 8-D command, then runs ten inner substeps.
Every substep advances the four oscillators, maps them to task-space
foot targets, solves the analytical IK and hands the desired joint
positions to the kinematic backend.  The reward is computed once per
control step from the accumulated forward progress; its sums, like every
sum `batch.py` and the rollout manifest must match bit for bit, go through
`sum_in_order`, never the builtin `sum()`.

`step` does this work leg-major: each leg runs its oscillator, pattern
formation and IK through all ten substeps, filling its row of a legs x
substeps table of desired joint positions, and then the backend advances
the whole step in one call.  It too goes leg by leg first (joint lag and FK
through every substep), then runs contacts and the base substep by
substep.  The result is the substep-major loop's, bit for bit: the
command is held for the whole step, the CPG runs feed-forward (no backend
state flows back into oscillator -> pattern formation -> IK) and a leg's
joints and FK read no other leg, so every value is computed from the same
inputs by the same operations, only at a different time.

The observation is a fixed 49-vector for every robot, regardless of DoF
count and morphology:

    base orientation (3) + base linear velocity (3) + base angular
    velocity (3) + foot contacts (4) + feet positions (12) + previous
    action (8) + oscillator states r, r_dot, theta, theta_dot (16)

Joint positions and velocities are deliberately absent; feet positions
are recomputed from the backend's joint positions through forward
kinematics rather than read from any foot sensor.

The world is KinematicBackend, a simplified stand-in for a physics
simulator: stance feet are treated as ground anchors, so the base moves
opposite to the mean stance-foot velocity, and joints track their
targets through a first-order lag derived from the PD gains.  The base
keeps its reset height, level, so it cannot fall: no step ends an episode.
It draws no random number, so an episode depends only on the robot and
the commands; it validates the control stack analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Tuple

from .foot_trajectory import FootTarget, foot_target, foot_xz
from .kinematics import _foot_in_hip, _solve, fk_all_feet
from .oscillator import (DT_INTEGRATION, TROT_PHASES, TWO_PI, OscillatorState,
                         advance, clamp_command, init_cpg)
from .registry import RobotDescriptor

OBSERVATION_SIZE = 49
ACTION_SIZE = 8

#: Reward weights: forward progress, orientation penalty, power penalty.
W_FORWARD = 8.0
W_ORIENTATION = -0.25
W_POWER = -1e-5

#: Control period (100 Hz actions over the 1 kHz inner loop), the
#: oscillator steps per period (N_SUBSTEPS * DT_INTEGRATION == CONTROL_DT)
#: and the velocity cap that sets the per-step forward-progress clip d_max.
CONTROL_DT = 0.01
N_SUBSTEPS = 10
V_CAP = 1.5

#: KinematicBackend: joint-lag time-constant ceiling (s), ground-contact
#: tolerance (m).
LAG_TAU_MAX = 0.005
CONTACT_TOL = 1e-9


#: An oscillator at zero amplitude and phase: its foot target is the
#: pattern-formation set-point, the standing pose of `reset`.
_AT_REST = OscillatorState(0.0, 0.0, 0.0, 0.0)


def sum_in_order(terms: Iterable):
    """0 + terms[0] + terms[1] + ... left to right: `sum()` as Python 3.11 rounds
    it.  From 3.12 the builtin compensates float sums (Neumaier summation)."""
    total = 0
    for term in terms:
        total = total + term
    return total


def check_horizon(horizon: int) -> None:
    """The episode-length rule of evaluate_batch and evaluate_constant_command."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


class RewardTerms(NamedTuple):
    """Weighted reward contributions; total is their exact sum."""

    forward_progress: float
    orientation_penalty: float
    power_penalty: float
    total: float


def compute_reward(f_x: float, d_max: float, o_base: Sequence[float],
                   tau: Sequence[float], qdot_t: Sequence[float],
                   qdot_prev: Sequence[float]) -> RewardTerms:
    """Reward: clipped forward progress minus orientation and power terms.

    total = 8.0 * min(f_x, d_max) - 0.25 * ||o_base|| - 1e-5 * |tau . dqdot|

    The power term uses the *difference* of consecutive joint-velocity
    samples, as specified; dimensionally odd, kept literal.
    """
    if len(o_base) != 3:
        raise ValueError(f"o_base must have 3 entries, got {len(o_base)}")
    if not (len(tau) == len(qdot_t) == len(qdot_prev)):
        raise ValueError(
            f"dimension mismatch: tau {len(tau)}, qdot_t {len(qdot_t)}, "
            f"qdot_prev {len(qdot_prev)}")
    forward = W_FORWARD * min(f_x, d_max)
    orientation = W_ORIENTATION * math.sqrt(sum_in_order(o * o for o in o_base))
    power = W_POWER * abs(sum_in_order(
        t * (a - b) for t, a, b in zip(tau, qdot_t, qdot_prev)))
    return RewardTerms(forward, orientation, power, forward + orientation + power)


@dataclass(frozen=True)
class Observation:
    """Fixed-size sensory vector, identical layout for all 16 robots."""

    base_orientation: Tuple[float, float, float]   # roll, pitch, yaw, rad
    base_lin_vel: Tuple[float, float, float]       # m/s, body frame
    base_ang_vel: Tuple[float, float, float]       # rad/s
    foot_contacts: Tuple[bool, bool, bool, bool]   # FR, FL, RR, RL
    feet_positions: Tuple[float, ...]              # 12, body frame
    prev_action: Tuple[float, ...]                 # 8, clamped
    cpg_state: Tuple[float, ...]                   # r x4, r_dot x4, theta x4, theta_dot x4

    def to_array(self):
        """The 49 values as a numpy array (numpy is imported on first use)."""
        import numpy as np
        return np.concatenate([
            self.base_orientation,
            self.base_lin_vel,
            self.base_ang_vel,
            np.asarray(self.foot_contacts, dtype=float),
            self.feet_positions,
            self.prev_action,
            self.cpg_state,
        ])

    def __len__(self) -> int:
        return OBSERVATION_SIZE


class KinematicBackend:
    """Stance-anchored kinematic body model, advanced one control step
    (N_SUBSTEPS substeps of DT_INTEGRATION) per call.

    Joints close `lag_factor` of their error to the desired positions per
    substep: a first-order lag whose time constant, the PD gain ratio kd/kp,
    is clamped to [DT_INTEGRATION, LAG_TAU_MAX] so tracking stays stable
    and fast enough for the stance-sweep velocity model to hold.  Torques
    follow the PD law tau = kp * (q_des - q) - kd * qdot.  Feet at or below
    the ground plane count as contacts and anchor the base: its planar
    velocity is the negative mean stance-foot velocity in the body frame.
    The base keeps the height and the flat attitude that `reset` gave it.
    Joint torques are kept for the last substep of a call only: the reward
    reads no other.
    """

    def __init__(self, robot: RobotDescriptor):
        self.robot = robot
        dt = DT_INTEGRATION
        self.lag_factor = dt / min(max(robot.kd / robot.kp, dt), LAG_TAU_MAX)
        self.reset([[0.0] * robot.leg_dof for _ in range(4)])

    def reset(self, q0) -> None:
        robot = self.robot
        self.base_pos = (0.0, 0.0, robot.height_nominal)
        self.base_rpy = (0.0, 0.0, 0.0)
        self.base_lin_vel = (0.0, 0.0, 0.0)
        self.base_ang_vel = (0.0, 0.0, 0.0)
        self.joint_positions = [list(q) for q in q0]
        self.joint_velocities = [[0.0] * robot.leg_dof for _ in range(4)]
        self.joint_torques = [[0.0] * robot.leg_dof for _ in range(4)]
        self._feet = fk_all_feet(robot, self.joint_positions)
        self.foot_contacts = tuple(robot.height_nominal + f[2] <= CONTACT_TOL
                                   for f in self._feet)

    def advance(self, q_des) -> None:
        """One control step: q_des holds each leg's desired joint positions,
        a row of N_SUBSTEPS substeps per leg, run in order.

        Each leg runs its joint lag and its FK through every substep first;
        the torques are those of the last substep, the ones the reward
        reads.  Then contacts, stance sums and the base go substep by
        substep, over the legs in order.
        """
        robot = self.robot
        kp, kd = robot.kp, robot.kd
        a, dt = self.lag_factor, DT_INTEGRATION

        paths = []   # per leg, its body-frame foot after each substep
        for geom, q, qd, trq, leg_des in zip(
                robot.legs, self.joint_positions, self.joint_velocities,
                self.joint_torques, q_des):
            cols = []   # per joint, its position after each substep
            for j, des_j in enumerate(zip(*leg_des)):
                qj, dq = q[j], None
                col = []
                for des in des_j[:-1]:
                    dq = (des - qj) * a
                    qj += dq
                    col.append(qj)
                e = des_j[-1] - qj
                trq[j] = kp * e - kd * (qd[j] if dq is None else dq / dt)
                dq = e * a
                qj += dq
                col.append(qj)
                q[j], qd[j] = qj, dq / dt
                cols.append(col)
            links, d = geom.link_lengths, geom.abd_offset
            hx, hy, hz = geom.hip_offset
            path = []
            for qk in zip(*cols):
                fx, fy, fz = _foot_in_hip(links, d, qk)
                path.append((fx + hx, fy + hy, fz + hz))
            paths.append(path)

        bx, by, bz = self.base_pos
        vx, vy, _ = self.base_lin_vel
        prev = self._feet
        for feet in zip(*paths):
            n_stance = 0
            sx = sy = 0.0
            contacts = []
            for (x, y, z), (px, py, _) in zip(feet, prev):
                contact = bz + z <= CONTACT_TOL
                contacts.append(contact)
                if contact:
                    n_stance += 1
                    sx += x - px
                    sy += y - py
            if n_stance > 0:
                vx = -sx / (n_stance * dt)
                vy = -sy / (n_stance * dt)
            bx, by = bx + vx * dt, by + vy * dt
            prev = feet
        self._feet = prev
        self.foot_contacts = tuple(contacts)
        self.base_pos = (bx, by, bz)
        self.base_lin_vel = (vx, vy, 0.0)


def build_observation(robot: RobotDescriptor, backend, cpg_states,
                      prev_action) -> Observation:
    """Assemble the 49-vector observation from backend and CPG state.

    Feet positions always come from forward kinematics over the
    backend's joint positions, never from backend foot state.
    """
    feet = fk_all_feet(robot, backend.joint_positions)
    feet_flat = tuple(c for foot in feet for c in foot)
    cpg_flat = (tuple(s.r for s in cpg_states)
                + tuple(s.r_dot for s in cpg_states)
                + tuple(s.theta for s in cpg_states)
                + tuple(s.theta_dot for s in cpg_states))
    return Observation(
        base_orientation=tuple(backend.base_rpy),
        base_lin_vel=tuple(backend.base_lin_vel),
        base_ang_vel=tuple(backend.base_ang_vel),
        foot_contacts=tuple(backend.foot_contacts),
        feet_positions=feet_flat,
        prev_action=tuple(prev_action),
        cpg_state=cpg_flat,
    )


class NonFiniteStateError(ValueError):
    """Raised by `QuadrupedEnv.step` when its reward is not finite: the
    backend state, written between steps, is one the world cannot step from."""


def _non_finite(backend, terms: RewardTerms) -> str:
    """The first non-finite value of the backend's state fields, else the
    first non-finite reward term: finite joints can still overflow the power."""
    for name in ("joint_positions", "joint_velocities", "joint_torques", "base_pos",
                 "base_rpy", "base_lin_vel", "base_ang_vel"):
        value = getattr(backend, name)
        cells = ([(f"[{i}][{j}]", v) for i, leg in enumerate(value) for j, v in enumerate(leg)]
                 if name.startswith("joint") else [(f"[{i}]", v) for i, v in enumerate(value)])
        for at, v in cells:
            if not math.isfinite(v):
                return f"backend.{name}{at} is {v!r}"
    return next(f"its {name} is {value!r}, from finite backend state"
                for name, value in zip(terms._fields, terms) if not math.isfinite(value))


class QuadrupedEnv:
    """One robot's episodes over a KinematicBackend that cannot fall: no step ends one."""

    def __init__(self, robot: RobotDescriptor):
        self.robot = robot
        self.backend = KinematicBackend(robot)
        self.d_max = V_CAP * CONTROL_DT
        self._cpg = None
        self.time = 0.0

    def reset(self, seed: int = 0, initial_phases: Sequence[float] = TROT_PHASES
              ) -> Observation:
        """Standing start at nominal height with the given phase offsets.

        `seed` does not affect the episode, which draws no random number.
        """
        robot = self.robot
        self._cpg = init_cpg(initial_phases)
        standing = (_solve(leg, *foot_target(_AT_REST, robot.pf, leg.abd_offset))
                    for leg in robot.legs)
        self.backend.reset([q for q, _ in standing])
        self._prev_action = (0.0,) * ACTION_SIZE
        self._prev_qdot = [0.0] * robot.dof_total
        self.time = 0.0
        return build_observation(robot, self.backend, self._cpg, self._prev_action)

    def step(self, action: Sequence[float]):
        """Apply one 100 Hz command; returns (obs, reward, done, info), with
        info's keys terms, command, foot_targets and workspace_violations; done
        is always False, as in an infinite-horizon task: the world cannot fall.
        A reward that is not finite raises NonFiniteStateError, which names
        the first non-finite backend field; a write to the backend's state
        between steps is the one known cause."""
        if self._cpg is None:
            raise RuntimeError("environment must be reset before stepping")
        cmd = clamp_command(action)
        mu, omega = cmd.mu, cmd.omega

        # Leg-major, exact because the chain takes no feedback (module docstring).
        backend = self.backend
        cpg = self._cpg
        pf = self.robot.pf
        q_des = [None] * 4   # per leg, its desired joints at each substep
        targets = [None] * 4
        workspace_violations = 0
        for i, leg in enumerate(self.robot.legs):
            y = leg.abd_offset
            mu_i, theta_dot = mu[i], TWO_PI * omega[i]
            r, r_dot, theta, _ = cpg[i]
            row = q_des[i] = []
            for _ in range(N_SUBSTEPS):
                r, r_dot, theta = advance(r, r_dot, mu_i, theta_dot, theta)
                x, z = foot_xz(r, theta, pf)
                q, clamped = _solve(leg, x, y, z)
                if clamped:
                    workspace_violations += 1
                row.append(q)
            cpg[i] = OscillatorState(r, r_dot, theta, theta_dot)
            targets[i] = FootTarget(x, y, z)

        x0 = backend.base_pos[0]
        backend.advance(q_des)

        f_x = backend.base_pos[0] - x0
        qdot = [v for leg in backend.joint_velocities for v in leg]
        tau = [t for leg in backend.joint_torques for t in leg]
        terms = compute_reward(f_x, self.d_max, backend.base_rpy, tau, qdot,
                               self._prev_qdot)
        if not math.isfinite(terms.total):
            raise NonFiniteStateError(f"step reward {terms.total!r} is not finite: "
                                      f"{_non_finite(backend, terms)}")
        self._prev_qdot = qdot
        self._prev_action = mu + omega
        self.time += CONTROL_DT

        obs = build_observation(self.robot, backend, cpg, self._prev_action)
        info = {
            "terms": terms,
            "workspace_violations": workspace_violations,
            "foot_targets": tuple(targets),
            "command": cmd,
        }
        return obs, terms.total, False, info

    @property
    def n_substeps(self) -> int:
        """Inner-loop substeps per control step: N_SUBSTEPS, read-only."""
        return N_SUBSTEPS

    @property
    def cpg_states(self):
        return tuple(self._cpg) if self._cpg is not None else ()

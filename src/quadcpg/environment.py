"""Locomotion MDP: 100 Hz actions over a 1 kHz inner control loop.

Each control step clamps the 8-D command, then runs ten inner substeps.
Every substep advances the four oscillators, maps them to task-space
foot targets, solves the analytical IK and hands the desired joint
positions to the kinematic backend.  The reward is computed once per
control step from the accumulated forward progress.

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
targets through a first-order lag derived from the PD gains.  It draws
no random number, so an episode depends only on the robot and the
commands; it validates the control stack analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .foot_trajectory import foot_target, leg_pf_params
from .kinematics import _solve_3dof, _solve_4dof, fk_all_feet
from .oscillator import (DT_INTEGRATION, TROT_PHASES, clamp_command, init_cpg,
                         step_oscillator)
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

#: Termination: |roll| or |pitch| above FALL_ANGLE_LIMIT (rad), or base
#: height below MIN_HEIGHT_FRAC of the nominal standing height.
FALL_ANGLE_LIMIT = 1.0
MIN_HEIGHT_FRAC = 0.3

#: KinematicBackend: joint-lag time-constant ceiling (s), base-height
#: servo time constant (s), ground-contact tolerance (m).
LAG_TAU_MAX = 0.005
HEIGHT_SERVO_TAU = 0.05
CONTACT_TOL = 1e-9


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
    orientation = W_ORIENTATION * math.sqrt(sum(o * o for o in o_base))
    power = W_POWER * abs(sum(t * (a - b) for t, a, b in zip(tau, qdot_t, qdot_prev)))
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

    def to_array(self) -> np.ndarray:
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
    """Stance-anchored kinematic body model, advanced DT_INTEGRATION per call.

    Joints close `lag_factor` of their error to the desired positions per
    step: a first-order lag whose time constant, the PD gain ratio kd/kp,
    is clamped to [DT_INTEGRATION, LAG_TAU_MAX] so tracking stays stable
    and fast enough for the stance-sweep velocity model to hold.  Torques
    follow the PD law tau = kp * (q_des - q) - kd * qdot.  Feet at or below
    the ground plane count as contacts and anchor the base: its planar
    velocity is the negative mean stance-foot velocity in the body frame.
    The base height closes `servo_factor` of its error to the nominal
    standing height per step; orientation remains flat.
    """

    def __init__(self, robot: RobotDescriptor):
        self.robot = robot
        dt = DT_INTEGRATION
        tau_lag = min(max(max(robot.kd / robot.kp, 1e-6), dt), LAG_TAU_MAX)
        self.lag_factor = dt / max(tau_lag, dt)
        self.servo_factor = min(1.0, dt / HEIGHT_SERVO_TAU)
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
        self.foot_contacts = self._compute_contacts()

    def _compute_contacts(self):
        base_z = self.base_pos[2]
        return tuple(base_z + f[2] <= CONTACT_TOL for f in self._feet)

    def advance(self, q_des) -> None:
        robot = self.robot
        kp, kd = robot.kp, robot.kd
        a, dt = self.lag_factor, DT_INTEGRATION

        q_all = self.joint_positions
        qd_all = self.joint_velocities
        trq_all = self.joint_torques
        for leg in range(4):
            q = q_all[leg]
            qd = qd_all[leg]
            trq = trq_all[leg]
            des = q_des[leg]
            for j in range(len(q)):
                e = des[j] - q[j]
                trq[j] = kp * e - kd * qd[j]
                dq = e * a
                q[j] += dq
                qd[j] = dq / dt

        feet_prev = self._feet
        feet = fk_all_feet(robot, q_all)
        self._feet = feet
        contacts = self._compute_contacts()
        self.foot_contacts = contacts

        n_stance = 0
        sx = sy = 0.0
        for i in range(4):
            if contacts[i]:
                n_stance += 1
                sx += feet[i][0] - feet_prev[i][0]
                sy += feet[i][1] - feet_prev[i][1]
        if n_stance > 0:
            vx = -sx / (n_stance * dt)
            vy = -sy / (n_stance * dt)
        else:
            vx, vy = self.base_lin_vel[0], self.base_lin_vel[1]

        bx, by, bz = self.base_pos
        dz = (robot.height_nominal - bz) * self.servo_factor
        self.base_pos = (bx + vx * dt, by + vy * dt, bz + dz)
        self.base_lin_vel = (vx, vy, dz / dt)


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


class QuadrupedEnv:
    """One robot's episodes over its KinematicBackend; step raises from done to reset."""

    def __init__(self, robot: RobotDescriptor):
        self.robot = robot
        self.backend = KinematicBackend(robot)
        self.control_dt = CONTROL_DT
        self.d_max = V_CAP * CONTROL_DT
        self.min_height = MIN_HEIGHT_FRAC * robot.height_nominal
        self.n_substeps = N_SUBSTEPS
        self._pf = leg_pf_params(robot)
        self._solvers = tuple(
            _solve_3dof if leg.dof == 3 else _solve_4dof for leg in robot.legs)
        self._n_joints = robot.dof_total
        self._cpg = None
        self.time = 0.0
        self.done = False

    def reset(self, seed: int = 0, initial_phases: Sequence[float] = TROT_PHASES
              ) -> Observation:
        """Standing start at nominal height with the given phase offsets.

        `seed` does not affect the episode, which draws no random number.
        """
        robot = self.robot
        self._cpg = init_cpg(initial_phases)
        q0 = []
        for leg, pf, solve in zip(robot.legs, self._pf, self._solvers):
            q, _ = solve(leg, pf.x_off, pf.y_nominal, pf.z_off - pf.h)
            q0.append(list(q))
        self.backend.reset(q0)
        self._prev_action = (0.0,) * ACTION_SIZE
        self._prev_qdot = [0.0] * self._n_joints
        self.time = 0.0
        self.done = False
        return build_observation(robot, self.backend, self._cpg, self._prev_action)

    def step(self, action: Sequence[float]):
        """Apply one 100 Hz command; returns (obs, reward, done, info)."""
        if self._cpg is None:
            raise RuntimeError("environment must be reset before stepping")
        if self.done:
            raise RuntimeError("episode is done; reset before stepping again")
        cmd = clamp_command(action)
        mu, omega = cmd.mu, cmd.omega

        backend = self.backend
        legs = self.robot.legs
        pf = self._pf
        solvers = self._solvers
        cpg = self._cpg

        x0 = backend.base_pos[0]
        workspace_violations = 0
        q_des = [None] * 4
        targets = [None] * 4
        for _ in range(self.n_substeps):
            for i in range(4):
                state = step_oscillator(cpg[i], mu[i], omega[i])
                cpg[i] = state
                tgt = foot_target(state, pf[i])
                targets[i] = tgt
                q, clamped = solvers[i](legs[i], tgt.x, tgt.y, tgt.z)
                if clamped:
                    workspace_violations += 1
                q_des[i] = q
            backend.advance(q_des)

        f_x = backend.base_pos[0] - x0
        qdot = [v for leg in backend.joint_velocities for v in leg]
        tau = [t for leg in backend.joint_torques for t in leg]
        terms = compute_reward(f_x, self.d_max, backend.base_rpy, tau, qdot,
                               self._prev_qdot)
        self._prev_qdot = qdot
        self._prev_action = mu + omega
        self.time += self.control_dt

        roll, pitch, _ = backend.base_rpy
        fell = (abs(roll) > FALL_ANGLE_LIMIT or abs(pitch) > FALL_ANGLE_LIMIT
                or backend.base_pos[2] < self.min_height)
        self.done = fell

        obs = build_observation(self.robot, backend, cpg, self._prev_action)
        info = {
            "terms": terms,
            "workspace_violations": workspace_violations,
            "foot_targets": tuple(targets),
            "command": cmd,
            "time": self.time,
            "fell": fell,
        }
        return obs, terms.total, self.done, info

    @property
    def cpg_states(self):
        return tuple(self._cpg) if self._cpg is not None else ()

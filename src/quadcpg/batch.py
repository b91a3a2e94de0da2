"""Batched constant-command trot episodes: N environments stepped together.

`evaluate_batch` returns, for each (mu, omega), the float that
`evaluate_constant_command` returns, bit for bit: every lane of the (N, 4)
and (N, 4, dof) arrays does the scalar code's IEEE operations in its order.
numpy supplies + - * /, sqrt, comparisons, where, minimum/maximum, abs, %
and sin/cos (equal to `math`'s); acos, atan2 and hypot, whose last bit
differs in numpy, go element by element through `math`; sums run joint by
joint and leg by leg, never pairwise.  numpy's per-call overhead is paid
per layer, not per element, so the kernel pays off only over many lanes:
the scalar `QuadrupedEnv` stays the single-env path and the oracle.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, List, Tuple

import numpy as np

from .environment import (CONTACT_TOL, N_SUBSTEPS, W_FORWARD, W_ORIENTATION, W_POWER,
                          QuadrupedEnv)
from .foot_trajectory import leg_pf_params
from .kinematics import _CLAMP_TOL, ELBOW_DOWN, FOOT_COUPLING_RATIO
from .oscillator import ALPHA, DT_INTEGRATION, TROT_PHASES, TWO_PI, clamp_command
from .registry import RobotDescriptor

#: Lanes stepped together.  Past about a thousand lanes numpy's per-call
#: overhead is already amortised, so larger chunks only hold more memory.
LANES_PER_CHUNK = 1024


def _math(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn applied element by element through `math` to same-shape arrays."""
    flat = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(flat, float, arrays[0].size).reshape(arrays[0].shape)


def _wrap(angle: np.ndarray) -> np.ndarray:
    """atan2(sin a, cos a): the angle wrapped to (-pi, pi] as the IK does."""
    return _math(math.atan2, np.sin(angle), np.cos(angle))


class _Legs:
    """The four legs' geometry as (4,) arrays, with the IK's constant prefixes."""

    def __init__(self, robot: RobotDescriptor):
        legs = robot.legs
        self.dof = legs[0].dof
        self.links = [np.array(col) for col in zip(*(leg.link_lengths for leg in legs))]
        self.d = np.array([leg.abd_offset for leg in legs])
        self.dd = self.d * self.d
        self.hip_x, _, self.hip_z = np.array([leg.hip_offset for leg in legs]).T
        self.down = np.array([leg.knee_config == ELBOW_DOWN for leg in legs])
        l1, l2 = self.links[:2]
        if self.dof == 3:
            self.lo, self.hi = np.abs(l1 - l2), l1 + l2
        else:
            l3 = self.links[2]
            self.qa, self.qb = 4.0 * l1 * l2, 2.0 * (l1 + l2) * l3
            self.qk0 = l1 * l1 + l2 * l2 + l3 * l3 - 2.0 * l1 * l2

    def ik(self, x, y, z):
        """_abduction, then _solve_3dof or _solve_4dof, over (N, 4) targets:
        q as (N, 4, dof).  The 3-DoF clamp flags go unread, so are not computed."""
        rr = y * y + z * z
        inside = rr < self.dd
        clamped = inside & (rr < self.dd * (1.0 - _CLAMP_TOL))
        rr = np.where(inside, self.dd, rr)
        z_leg = -np.sqrt(rr - self.dd)
        positive = rr > 0.0
        ratio = np.where(positive, self.d / np.sqrt(np.where(positive, rr, 1.0)), 1.0)
        ratio = np.minimum(1.0, np.maximum(-1.0, ratio))
        q_abd = _wrap(_math(math.atan2, z, y) + _math(math.acos, ratio))
        if self.dof == 3:
            l1, l2 = self.links
            rho = _math(math.hypot, x, z_leg)
            over = rho > self.hi
            moved, nonzero = over | (rho < self.lo), rho > 0.0
            bound = np.where(over, self.hi, self.lo)
            scale = bound / np.where(nonzero, rho, 1.0)
            x = np.where(moved, np.where(nonzero, x * scale, 0.0), x)
            z_leg = np.where(moved, np.where(nonzero, z_leg * scale, -self.lo), z_leg)
            rho = np.where(moved, bound, rho)
            cos_knee = (rho * rho - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
            knee = _math(math.acos, np.minimum(1.0, np.maximum(-1.0, cos_knee)))
            knee = np.where(self.down, -knee, knee)
            a = l1 + l2 * np.cos(knee)
            b = l2 * np.sin(knee)
            hip = _math(math.atan2, -x, -z_leg) - _math(math.atan2, b, a)
            return np.stack((q_abd, _wrap(hip), knee), axis=-1)

        l1, l2, l3 = self.links
        qk = self.qk0 - (x * x + z_leg * z_leg)
        disc = self.qb * self.qb - 4.0 * self.qa * qk
        negative = disc < 0.0
        clamped |= negative & (disc < -_CLAMP_TOL * self.qb * self.qb)
        c = (-self.qb + np.sqrt(np.where(negative, 0.0, disc))) / (2.0 * self.qa)
        clamped |= (c > 1.0 + _CLAMP_TOL) | (c < -1.0)
        psi = _math(math.acos, np.minimum(1.0, np.maximum(-1.0, c)))
        psi = np.where(self.down, -psi, psi)
        knee = 2.0 * psi
        a = l1 + l3 * np.cos(psi) + l2 * np.cos(2.0 * psi)
        b = l3 * np.sin(psi) + l2 * np.sin(2.0 * psi)
        u, v = -x, -z_leg
        if clamped.any():
            # project the (possibly unreachable) direction onto the clamped reach
            norm = _math(math.hypot, u[clamped], v[clamped])
            reach = _math(math.hypot, a[clamped], b[clamped])
            zero = norm == 0.0
            scale = reach / np.where(zero, 1.0, norm)
            u[clamped] = np.where(zero, 0.0, u[clamped] * scale)
            v[clamped] = np.where(zero, reach, v[clamped] * scale)
        hip = _math(math.atan2, u, v) - _math(math.atan2, b, a)
        return np.stack((q_abd, _wrap(hip), knee, FOOT_COUPLING_RATIO * knee), axis=-1)

    def feet_xz(self, q):
        """Body-frame foot x and z of fk_all_feet over (N, 4, dof) joints."""
        a1 = q[..., 1]
        a2 = q[..., 1] + q[..., 2]
        l1, l2 = self.links[:2]
        sx = l1 * np.sin(a1) + l2 * np.sin(a2)
        cz = l1 * np.cos(a1) + l2 * np.cos(a2)
        if self.dof == 4:
            a3 = a2 + q[..., 3]
            sx = sx + self.links[2] * np.sin(a3)
            cz = cz + self.links[2] * np.cos(a3)
        z = self.d * np.sin(q[..., 0]) + -cz * np.cos(q[..., 0])
        return -sx + self.hip_x, z + self.hip_z


def evaluate_batch(robot: RobotDescriptor, commands: Iterable[Tuple[float, float]],
                   horizon: int) -> List[float]:
    """evaluate_constant_command of every (mu, omega), LANES_PER_CHUNK at a time."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    env = QuadrupedEnv(robot)
    env.reset(initial_phases=TROT_PHASES)
    legs = _Legs(robot)
    returns: List[float] = []
    lanes = iter(commands)
    while chunk := list(islice(lanes, LANES_PER_CHUNK)):
        returns += _episodes(env, legs, chunk, horizon)
    return returns


def _episodes(env: QuadrupedEnv, legs: _Legs, commands, horizon: int) -> List[float]:
    """The returns of one chunk of episodes, from the state `env` was reset to."""
    cmds = [clamp_command((mu,) * 4 + (omega,) * 4) for mu, omega in commands]
    n = len(cmds)
    robot, backend, cpg = env.robot, env.backend, env.cpg_states
    pf = robot.pf
    y = np.array([[p.y_nominal for p in leg_pf_params(robot)]] * n)
    mu = np.array([c.mu for c in cmds])
    theta_dot = TWO_PI * np.array([c.omega for c in cmds])
    r, r_dot, theta, _ = np.moveaxis(np.array([cpg] * n), -1, 0)
    q = np.array([backend.joint_positions] * n, dtype=float)
    qd = np.array([backend.joint_velocities] * n, dtype=float)
    prev_qd = np.zeros_like(qd)
    fx_prev, _ = legs.feet_xz(q)
    bx, _, bz = (np.full(n, v) for v in backend.base_pos)
    vx = np.full(n, backend.base_lin_vel[0])

    # the constants of step_oscillator; the rest are the env's and backend's own
    dt = DT_INTEGRATION
    gain = ALPHA * ALPHA / 4.0
    lag, servo = backend.lag_factor, backend.servo_factor
    orientation = W_ORIENTATION * 0.0   # the kinematic backend keeps the base flat

    total = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for _ in range(horizon):
        x0 = bx
        for _ in range(N_SUBSTEPS):
            k1_rd = gain * (mu - r) - ALPHA * r_dot
            r_mid = r + dt * r_dot
            rd_mid = r_dot + dt * k1_rd
            k2_rd = gain * (mu - r_mid) - ALPHA * rd_mid
            r = r + 0.5 * dt * (r_dot + rd_mid)
            r_dot = r_dot + 0.5 * dt * (k1_rd + k2_rd)
            theta = (theta + theta_dot * dt) % TWO_PI
            s = np.sin(theta)
            x = pf.x_off - pf.l_step * r * np.cos(theta)
            z = np.where(s > 0.0, pf.z_off - pf.h + pf.l_clrnc * s,
                         pf.z_off - pf.h + pf.l_pntr * s)
            e = legs.ik(x, y, z) - q
            trq = robot.kp * e - robot.kd * qd
            dq = e * lag
            q = q + dq
            qd = dq / dt
            fx, fz = legs.feet_xz(q)
            contact = bz[:, None] + fz <= CONTACT_TOL
            sx = np.zeros(n)
            for i in range(4):
                sx = np.where(contact[:, i], sx + (fx[:, i] - fx_prev[:, i]), sx)
            fx_prev = fx
            n_stance = np.count_nonzero(contact, axis=1)
            vx = np.where(n_stance > 0, -sx / (np.maximum(n_stance, 1) * dt), vx)
            bx = bx + vx * dt
            bz = bz + (robot.height_nominal - bz) * servo

        forward = W_FORWARD * np.minimum(bx - x0, env.d_max)
        power = 0   # compute_reward's sum(): the same start and joint order
        for i, j in np.ndindex(4, legs.dof):
            power = power + trq[:, i, j] * (qd[:, i, j] - prev_qd[:, i, j])
        prev_qd = qd
        reward = forward + orientation + W_POWER * np.abs(power)
        total = np.where(alive, total + reward, total)
        alive &= ~(bz < env.min_height)
        if not alive.any():
            break
    return total.tolist()

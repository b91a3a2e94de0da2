"""Batched constant-command trot episodes: N environments stepped together.

`evaluate_batch` returns, for each (mu, omega), the float that
`evaluate_constant_command` returns, bit for bit: every lane of the (N, 4)
and (N, 4, dof) arrays does the scalar code's IEEE operations in its order.
numpy supplies + - * /, sqrt, comparisons, where, minimum/maximum, abs, %
and sin/cos (equal to `math`'s); acos, atan2 and hypot, whose last bit
differs in numpy, go element by element through `math`; sums run joint by
joint and leg by leg, never pairwise, the power term through the scalar
reward's own `environment.sum_in_order`, and running values (base x, the
held stance velocity) through the strictly in-order `np.add.accumulate` and
`np.maximum.accumulate`.  Only the two recurrences -- oscillator and joint
lag -- go substep by substep; every other stage runs once per tile of
(substep, lane) pairs, so numpy's per-call overhead is paid per tile.
Every episode runs its whole horizon: the kinematic world cannot fall.
The scalar `QuadrupedEnv` stays the closed-loop path and the oracle.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, List, Tuple

import numpy as np

from .environment import (CONTACT_TOL, N_SUBSTEPS, W_FORWARD, W_ORIENTATION, W_POWER,
                          QuadrupedEnv, sum_in_order)
from .kinematics import _CLAMP_TOL, FOOT_COUPLING_RATIO
from .oscillator import DT_INTEGRATION, TROT_PHASES, TWO_PI, advance, clamp_command
from .registry import RobotDescriptor

#: (lane, substep) pairs per tile: a tile holds as many lanes and whole
#: control steps as fit, at least one of each, so its arrays, not the number
#: of commands or the horizon, bound the kernel's memory.
TILE_LANE_SUBSTEPS = 800


def _math(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn applied element by element through `math` to same-shape arrays."""
    flat = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(flat, float, arrays[0].size).reshape(arrays[0].shape)


def _wrap(angle: np.ndarray) -> np.ndarray:
    """atan2(sin a, cos a): the angle wrapped to (-pi, pi] as the IK does."""
    return _math(math.atan2, np.sin(angle), np.cos(angle))


class _Legs:
    """The four legs' geometry and IK constants (`LegGeometry.ik_constants`) as (4,) arrays."""

    def __init__(self, robot: RobotDescriptor):
        legs = robot.legs
        self.dof = legs[0].dof
        self.links = [np.array(col) for col in zip(*(leg.link_lengths for leg in legs))]
        self.d = np.array([leg.abd_offset for leg in legs])
        self.hip_x, _, self.hip_z = np.array([leg.hip_offset for leg in legs]).T
        for name in legs[0].ik_constants:
            setattr(self, name, np.array([getattr(leg, name) for leg in legs]))

    def ik(self, x, y, z):
        """kinematics._solve over (N, 4) targets: q as (N, 4, dof).
        The 3-DoF clamp flags go unread, so are not computed."""
        rr = y * y + z * z
        inside = rr < self.dd
        clamped = inside & (rr < self.dd_in)
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
            cos_knee = (rho * rho - self.l1l1 - self.l2l2) / self.two_l1l2
            knee = _math(math.acos, np.minimum(1.0, np.maximum(-1.0, cos_knee)))
            knee = np.where(self.elbow_down, -knee, knee)
            a = l1 + l2 * np.cos(knee)
            b = l2 * np.sin(knee)
            hip = _math(math.atan2, -x, -z_leg) - _math(math.atan2, b, a)
            return np.stack((q_abd, _wrap(hip), knee), axis=-1)

        l1, l2, l3 = self.links
        qk = self.qk0 - (x * x + z_leg * z_leg)
        disc = self.qbqb - self.four_qa * qk
        negative = disc < 0.0
        clamped |= negative & (disc < self.disc_in)
        c = (-self.qb + np.sqrt(np.where(negative, 0.0, disc))) / self.two_qa
        clamped |= (c > 1.0 + _CLAMP_TOL) | (c < -1.0 - _CLAMP_TOL)
        psi = _math(math.acos, np.minimum(1.0, np.maximum(-1.0, c)))
        psi = np.where(self.elbow_down, -psi, psi)
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


def check_horizon(horizon: int) -> None:
    """The episode-length rule of evaluate_batch and evaluate_constant_command."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def foot_targets(robot: RobotDescriptor, r, theta) -> np.ndarray:
    """foot_target of every leg over arrays: theta (..., 4) phases, r (...) their
    shared amplitude; the (..., 4, 3) x, y, z targets in each leg's hip frame."""
    pf = robot.pf
    r, theta = np.asarray(r)[..., None], np.asarray(theta)
    s = np.sin(theta)
    x = pf.x_off - pf.l_step * r * np.cos(theta)
    z = np.where(s > 0.0, pf.z_off - pf.h + pf.l_clrnc * s,
                 pf.z_off - pf.h + pf.l_pntr * s)
    y = np.broadcast_to([leg.abd_offset for leg in robot.legs], theta.shape)
    return np.stack((x, y, z), axis=-1)


def evaluate_batch(robot: RobotDescriptor, commands: Iterable[Tuple[float, float]],
                   horizon: int) -> List[float]:
    """evaluate_constant_command of every (mu, omega), tile by tile."""
    check_horizon(horizon)
    env = QuadrupedEnv(robot)
    env.reset(initial_phases=TROT_PHASES)
    legs = _Legs(robot)
    returns: List[float] = []
    lanes = iter(commands)
    while chunk := list(islice(lanes, max(1, TILE_LANE_SUBSTEPS // N_SUBSTEPS))):
        returns += _episodes(env, legs, chunk, horizon)
    return returns


def _episodes(env: QuadrupedEnv, legs: _Legs, commands, horizon: int) -> List[float]:
    """The returns of one chunk of episodes, from the state `env` was reset to.

    Each tile of whole control steps runs the two recurrences (oscillator,
    joint lag) substep by substep, then every later stage in one pass over
    the tile's (substep, lane, leg[, joint]) arrays.  The base holds its start
    height and flat attitude.
    """
    cmds = [clamp_command((mu,) * 4 + (omega,) * 4) for mu, omega in commands]
    n = len(cmds)
    robot, backend, cpg = env.robot, env.backend, env.cpg_states
    # a trot from rest: the legs share mu, omega, r and r_dot, each has its phase
    mu = np.array([c.mu[0] for c in cmds])
    theta_dot = TWO_PI * np.array([c.omega[0] for c in cmds])[:, None]
    r, r_dot = np.full(n, cpg[0].r), np.full(n, cpg[0].r_dot)
    theta = np.array([[s.theta for s in cpg]] * n)
    q = np.array([backend.joint_positions] * n, dtype=float)
    qd = np.zeros_like(q)   # the joint velocities the reward last saw
    fx_prev, _ = legs.feet_xz(q)
    bx, _, bz = backend.base_pos
    bx = np.full(n, bx)
    vx = np.full(n, backend.base_lin_vel[0])

    # the backend's and env's own constants
    dt, lag = DT_INTEGRATION, backend.lag_factor
    orientation = W_ORIENTATION * 0.0   # the kinematic backend keeps the base flat
    per_tile = max(1, TILE_LANE_SUBSTEPS // (n * N_SUBSTEPS))

    total = np.zeros(n)
    for first in range(0, horizon, per_tile):
        n_steps = min(per_tile, horizon - first)
        t = n_steps * N_SUBSTEPS
        rs, thetas = np.empty((t, n)), np.empty((t, n, 4))
        for k in range(t):
            r, r_dot, theta = advance(r, r_dot, mu, theta_dot, theta)
            rs[k], thetas[k] = r, theta
        des = legs.ik(*np.moveaxis(foot_targets(robot, rs, thetas), -1, 0))
        e, qs = np.empty_like(des), np.empty_like(des)
        for k in range(t):
            e[k] = des[k] - q
            q = qs[k] = q + e[k] * lag

        fx, fz = legs.feet_xz(qs)
        contact = bz + fz <= CONTACT_TOL
        step_x = fx - np.concatenate((fx_prev[None], fx[:-1]))
        fx_prev = fx[-1]
        sx = np.zeros((t, n))
        for i in range(4):
            sx = np.where(contact[..., i], sx + step_x[..., i], sx)
        n_stance = np.count_nonzero(contact, axis=-1)
        v = -sx / (np.maximum(n_stance, 1) * dt)
        # with no stance foot vx is held: the latest stance substep's, else the carried
        latest = np.maximum.accumulate(np.where(n_stance > 0, np.arange(t)[:, None], -1))
        held = np.take_along_axis(v, np.maximum(latest, 0), axis=0)
        vxs = np.where(latest >= 0, held, vx)
        vx = vxs[-1]
        xs = np.add.accumulate(np.concatenate((bx[None], vxs * dt)))   # in order
        bx = xs[-1]

        forward = W_FORWARD * np.minimum(xs[N_SUBSTEPS::N_SUBSTEPS] - xs[:-1:N_SUBSTEPS],
                                         env.d_max)
        # the power term reads each step's last torques and joint velocities
        qds = e * lag / dt
        ends = slice(N_SUBSTEPS - 1, None, N_SUBSTEPS)
        trq = robot.kp * e[ends] - robot.kd * qds[N_SUBSTEPS - 2::N_SUBSTEPS]
        qd_end = qds[ends]
        qd_prev = np.concatenate((qd[None], qd_end[:-1]))
        qd = qd_end[-1]
        power = sum_in_order(trq[..., i, j] * (qd_end[..., i, j] - qd_prev[..., i, j])
                             for i, j in np.ndindex(4, legs.dof))
        reward = forward + orientation + W_POWER * np.abs(power)
        for k in range(n_steps):
            total = total + reward[k]
    return total.tolist()

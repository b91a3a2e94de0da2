"""Batched constant-command trot episodes: N environments stepped together.

`evaluate_batch` returns, for each (mu, omega), the float that
`evaluate_constant_command` returns, bit for bit: every lane of the (N, 4)
and (N, 4, dof) arrays does the scalar code's IEEE operations in its order.
numpy supplies + - * /, sqrt, comparisons, where, minimum/maximum, abs, %
and sin/cos (equal to `math`'s); acos, atan2 and hypot, whose last bit
differs in numpy, go element by element through `math`.  Each sum is one
in-order `np.add.accumulate` from its start: base x and the return over the
steps from the carried value, the stance steps over the legs and the power
term over legs and joints from +0.0 (`_sum`), as `environment.sum_in_order`
adds.  A swing leg adds +0.0, and x + 0.0 == x unless x is -0.0, which a
sum from +0.0 never is: in round-to-nearest a + b is -0.0 only if both are.
Only the two recurrences -- oscillator and joint lag -- go substep by
substep; every other stage runs once per tile of (substep, lane) pairs.
A chunk of at most FLOAT_LANES lanes runs the two on Python floats, lane by
lane and joint by joint, which are the scalar code's own operations with no
numpy call per substep; a wider chunk runs them on arrays.  Every episode
runs its whole horizon: the kinematic world cannot fall.

The float lanes do only the work that varies.  A lane's amplitude reads
only (r, r_dot, mu), so once one step returns its own input
(`oscillator.amplitude_settled`, after 2,154 to 2,184 substeps from rest)
every later step would too, and the lane repeats that (r, r_dot).  Legs
with the same start phase (by bits) get the same phase line, so each
distinct start advances once (a trot has two).  The joint lag runs the
abduction of every leg but the sagittal joints of one leg per twin class
(`_Legs.solved`): twins start from equal standing joints and are driven to
equal desired joints, so their lag is the same IEEE operations on the same
inputs.  The array lag keeps every column: each substep's array operation
costs numpy's per-call overhead more than its elements (1.9 against 1.7 us
at 40 lanes of 16 against 10 columns), which a per-tile gather would eat.

Asked for them, `_episodes` also returns per-step streams: env.time, base
x, y, vx and vy, the step-end contacts and feet, r, r_dot and theta, the
last substep's targets, the four reward terms and the IK clamp count.  The
y chain is the x chain's (`_sweep`): both stance sums start from +0.0, as
the scalar loop's do, so vx and vy carry its -0.0 wherever it has one.
`trot_streams` gives them for one lane, and `rollout.run_rollout` builds
from them the rows and observations of a policy that holds one trot
command.  The scalar `QuadrupedEnv` stays the path of every other policy,
and the oracle.

Pattern formation's targets: `foot_targets` gives each leg's x and z, as
`foot_xz` does; y is the leg's abd_offset d, so rr = dd + z*z >= dd = d*d
and the scalar solver's abduction clamp, which never fires, is left out.

Twin legs solve once.  The trot runs its diagonal legs in phase
(`TROT_PHASES`: FR with RL, FL with RR), so such a pair gets the same x and
z.  Two legs are twins when they also have the same |abd_offset|, link
lengths and knee branch: then (-d)*(-d) == d*d gives them the same rr and
z_leg, and the sagittal chain (the reach clamp or knee quadratic, the knee,
the hip) is the same IEEE operations on the same inputs.  Twins start from
the same standing joints and are driven to the same desired joints, so the
joint lag keeps their sagittal joints equal, and the FK's planar sums are
equal too.  `_Legs` takes the twin classes from `twin_legs` once per
robot and runs those stages on one leg of each class; the abduction, the
FK's abduction rotation and the hip offsets run on every leg.  A mixed robot,
whose rear knees bend the other way, has four classes and solves every leg.
As in the scalar solver, the abduction's wrap skips angles below
`kinematics.TINY_ANGLE`, its own wrap there: a trot's are 0 up to rounding.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, List, Tuple

import numpy as np

from .environment import (CONTACT_TOL, CONTROL_DT, N_SUBSTEPS, W_FORWARD, W_ORIENTATION,
                          W_POWER, QuadrupedEnv, check_horizon)
from .kinematics import _CLAMP_TOL, FOOT_COUPLING_RATIO, TINY_ANGLE
from .oscillator import (DT_INTEGRATION, TROT_PHASES, TWO_PI, advance, amplitude_settled,
                         clamp_command)
from .registry import RobotDescriptor
from .rollout import _bits

#: (lane, substep) pairs per tile: a tile holds as many lanes and whole
#: control steps as fit, at least one of each, so its arrays, not the number
#: of commands or the horizon, bound the kernel's memory.
TILE_LANE_SUBSTEPS = 1600

#: Chunks of at most this many lanes run the two recurrences on floats,
#: lane by lane and joint by joint; wider ones on (lane, ...) arrays.
FLOAT_LANES = 4


def _math(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn applied element by element through `math` to same-shape float64
    arrays, each read as a 1-D memoryview of its raveled buffer: the same
    doubles as `tolist()` gives, with no list built."""
    flat = map(fn, *(memoryview(a.ravel()) for a in arrays))
    return np.fromiter(flat, float, arrays[0].size).reshape(arrays[0].shape)


def _sum(start, terms: np.ndarray) -> np.ndarray:
    """start + terms[0] + terms[1] + ... left to right along the first axis:
    the last row of the in-order np.add.accumulate, never a pairwise sum."""
    return np.add.accumulate(np.concatenate((np.full((1, *terms.shape[1:]), start), terms)))[-1]


def _wrap(angle: np.ndarray) -> np.ndarray:
    """atan2(sin a, cos a): the angle wrapped to (-pi, pi] as the IK does."""
    return _math(math.atan2, np.sin(angle), np.cos(angle))


def twin_legs(legs) -> List[int]:
    """Each leg's twin source in a trot: the first leg with its start phase
    (`TROT_PHASES`), |abd_offset|, link lengths and knee branch, itself if no
    earlier leg has them (module docstring)."""
    keys = [(phase, abs(leg.abd_offset), leg.link_lengths, leg.knee_config)
            for phase, leg in zip(TROT_PHASES, legs)]
    return [keys.index(key) for key in keys]


class _Legs:
    """The four legs' geometry and IK constants (`LegGeometry.ik_constants`):
    the abduction's over all four legs, the sagittal chain's over the legs in
    `solved`, one of each twin class, which `twin` maps back to four legs."""

    def __init__(self, robot: RobotDescriptor):
        legs = robot.legs
        self.dof = legs[0].dof
        source = twin_legs(legs)
        solved = list(dict.fromkeys(source))   # one leg of each class, in order
        self.solved = np.array(solved)
        self.twin = np.array([solved.index(leg) for leg in source])
        sagittal = [legs[i] for i in solved]
        self.links = [np.array(col) for col in zip(*(leg.link_lengths for leg in sagittal))]
        self.d = np.array([leg.abd_offset for leg in legs])
        self.hip_x, self.hip_y, self.hip_z = np.array([leg.hip_offset for leg in legs]).T
        for name in legs[0].ik_constants:   # dd, the abduction's, on every leg
            on = legs if name == "dd" else sagittal
            setattr(self, name, np.array([getattr(leg, name) for leg in on]))

    def ik(self, x, z):
        """kinematics._solve over (N, 4) targets (x, d, z), d each leg's abd_offset:
        q as (N, 4, dof) and the (N, 4) clamp flags.  Twin legs get the same x
        and z, so the sagittal chain runs on `solved` only."""
        rr = self.dd + z * z
        z_leg = -np.sqrt(rr - self.dd)
        positive = rr > 0.0
        ratio = np.where(positive, self.d / np.sqrt(np.where(positive, rr, 1.0)), 1.0)
        ratio = np.minimum(1.0, np.maximum(-1.0, ratio))
        y = np.broadcast_to(self.d, z.shape)
        q_abd = _math(math.atan2, z, y) + _math(math.acos, ratio)
        wrap = ~(np.abs(q_abd) < TINY_ANGLE)   # a tiny angle is its own wrap
        if wrap.any():
            q_abd[wrap] = _wrap(q_abd[wrap])
        x, z_leg = x[..., self.solved], z_leg[..., self.solved]
        if self.dof == 3:
            l1, l2 = self.links
            rho = _math(math.hypot, x, z_leg)
            clamped = (rho > self.hi_out) | (rho < self.lo_in)
            over = rho > self.hi
            moved = over | (rho < self.lo)
            bound = np.where(over, self.hi, self.lo)
            away = rho > bound * 2.0 ** -1022   # else the hip, as in kinematics._solve
            scale = bound / np.where(away, rho, 1.0)
            x = np.where(moved, np.where(away, x * scale, 0.0), x)
            z_leg = np.where(moved, np.where(away, z_leg * scale, -self.lo), z_leg)
            rho = np.where(moved, bound, rho)
            cos_knee = (rho * rho - self.l1l1 - self.l2l2) / self.two_l1l2
            knee = _math(math.acos, np.minimum(1.0, np.maximum(-1.0, cos_knee)))
            knee = np.where(self.elbow_down, -knee, knee)
            a = l1 + l2 * np.cos(knee)
            b = l2 * np.sin(knee)
            hip = _math(math.atan2, -x, -z_leg) - _math(math.atan2, b, a)
            return self._joints(q_abd, _wrap(hip), knee), clamped[..., self.twin]

        l1, l2, l3 = self.links
        qk = self.qk0 - (x * x + z_leg * z_leg)
        disc = self.qbqb - self.four_qa * qk
        negative = disc < 0.0
        clamped = negative & (disc < self.disc_in)
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
            away = norm > reach * 2.0 ** -1022   # else the hip, as in kinematics._solve
            scale = reach / np.where(away, norm, 1.0)
            u[clamped] = np.where(away, u[clamped] * scale, 0.0)
            v[clamped] = np.where(away, v[clamped] * scale, reach)
        hip = _math(math.atan2, u, v) - _math(math.atan2, b, a)
        q = self._joints(q_abd, _wrap(hip), knee, FOOT_COUPLING_RATIO * knee)
        return q, clamped[..., self.twin]

    def _joints(self, q_abd, *sagittal):
        """(N, 4, dof) joints: each leg's abduction, then its twin class's sagittal joints."""
        return np.stack((q_abd, *(joint[..., self.twin] for joint in sagittal)), axis=-1)

    def _planar(self, q):
        """Each leg's planar sums (sx, cz) of `kinematics._foot_in_hip` over
        (N, 4, dof) joints in which twin legs hold equal sagittal joints, as
        they do all episode."""
        a1 = q[..., self.solved, 1]
        a2 = a1 + q[..., self.solved, 2]
        l1, l2 = self.links[:2]
        sx = l1 * np.sin(a1) + l2 * np.sin(a2)
        cz = l1 * np.cos(a1) + l2 * np.cos(a2)
        if self.dof == 4:
            a3 = a2 + q[..., self.solved, 3]
            sx = sx + self.links[2] * np.sin(a3)
            cz = cz + self.links[2] * np.cos(a3)
        return sx[..., self.twin], cz[..., self.twin]

    def feet_xz(self, q):
        """Body-frame foot x and z of fk_all_feet over (N, 4, dof) joints."""
        sx, cz = self._planar(q)
        z = self.d * np.sin(q[..., 0]) + -cz * np.cos(q[..., 0])
        return -sx + self.hip_x, z + self.hip_z

    def feet_y(self, q):
        """Body-frame foot y of fk_all_feet over (N, 4, dof) joints."""
        _, cz = self._planar(q)
        return self.d * np.cos(q[..., 0]) - -cz * np.sin(q[..., 0]) + self.hip_y


def foot_targets(robot: RobotDescriptor, r, theta):
    """foot_xz of every leg over arrays: theta (..., 4) phases, r (...) their
    shared amplitude; the (..., 4) x and z of the targets, y being abd_offset."""
    pf = robot.pf
    r, theta = np.asarray(r)[..., None], np.asarray(theta)
    s = np.sin(theta)
    x = pf.x_off - pf.l_step * r * np.cos(theta)
    z = np.where(s > 0.0, pf.z_off - pf.h + pf.l_clrnc * s,
                 pf.z_off - pf.h + pf.l_pntr * s)
    return x, z


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
        returns += _episodes(env, legs, chunk, horizon)[0]
    return returns


def trot_streams(robot: RobotDescriptor, mu: float, omega: float, horizon: int) -> dict:
    """The per-step streams of `_episodes` for one trot from rest that holds
    (mu, omega) for `horizon` control steps, each as a (horizon, 1, ...) array."""
    env = QuadrupedEnv(robot)
    env.reset(initial_phases=TROT_PHASES)
    return _episodes(env, _Legs(robot), [(mu, omega)], horizon, streams=True)[1]


def _oscillate(r, r_dot, mu, theta_dot, theta, t: int):
    """t substeps of `advance` on floats, lane by lane: r, r_dot (t, N) and
    theta (t, N, 4) after each.  A lane's amplitude runs only until it
    settles (`amplitude_settled`), then holds; each of its distinct start
    phases, keyed by bits, runs `advance`'s phase line alone."""
    rs, thetas = [], []
    for r0, rd0, m, w, start in zip(r.tolist(), r_dot.tolist(), mu.tolist(),
                                    theta_dot.ravel().tolist(), theta.tolist()):
        amplitude = []
        for _ in range(t):
            r1, rd1 = advance(r0, rd0, m, w)
            amplitude.append((r1, rd1))
            if amplitude_settled(r0, rd0, r1, rd1):
                break
            r0, rd0 = r1, rd1
        rs.append(amplitude + amplitude[-1:] * (t - len(amplitude)))
        keys = [_bits([a]) for a in start]
        step, paths = w * DT_INTEGRATION, {}
        for key, a in dict(zip(keys, start)).items():   # each distinct start once
            path = paths[key] = []
            for _ in range(t):
                a = (a + step) % TWO_PI
                path.append(a)
        thetas.append([paths[key] for key in keys])
    rs = np.array(rs).transpose(2, 1, 0)   # (2, t, N)
    return rs[0], rs[1], np.array(thetas).transpose(2, 0, 1)


def _lag(legs: _Legs, q, des, lag: float):
    """The joint lag over a tile on floats, joint by joint: the positions
    after each substep, shaped as `des`, from positions q.  The abduction
    runs on every leg, the sagittal joints on `legs.solved` only, and each
    twin takes its class's columns."""
    out = np.empty_like(des)
    out[..., 0] = _lag_columns(q[..., 0], des[..., 0], lag)
    sagittal = _lag_columns(q[:, legs.solved, 1:], des[:, :, legs.solved, 1:], lag)
    out[..., 1:] = sagittal[:, :, legs.twin]
    return out


def _lag_columns(q, des, lag: float):
    """The joint lag of every column of `des` (t, ...) from q (...)."""
    t = len(des)
    cols = []
    for qj, col in zip(q.ravel().tolist(), des.reshape(t, -1).T.tolist()):
        path = []
        for d in col:
            qj = qj + (d - qj) * lag
            path.append(qj)
        cols.append(path)
    return np.array(cols).T.reshape(des.shape)


def _sweep(f, f_prev, contact, v, b):
    """One planar base coordinate over a tile, from its feet's coordinate f
    (t, N, 4) and their contacts: its velocity and position after each
    substep, from velocity v and position b, as `KinematicBackend.advance`
    sums them.  With no stance foot the velocity is held: the latest stance
    substep's, else v."""
    step = f - np.concatenate((f_prev[None], f[:-1]))
    s = _sum(0.0, np.moveaxis(np.where(contact, step, 0.0), -1, 0))
    n_stance = np.count_nonzero(contact, axis=-1)
    vs = -s / (np.maximum(n_stance, 1) * DT_INTEGRATION)
    latest = np.maximum.accumulate(np.where(n_stance > 0, np.arange(len(f))[:, None], -1))
    vs = np.where(latest >= 0, np.take_along_axis(vs, np.maximum(latest, 0), axis=0), v)
    return vs, np.add.accumulate(np.concatenate((b[None], vs * DT_INTEGRATION)))   # in order


def _episodes(env: QuadrupedEnv, legs: _Legs, commands, horizon: int, streams=False):
    """The returns of one chunk of episodes, from the state `env` was reset
    to, and with `streams` the per-step streams (else None).

    Each tile of whole control steps runs the two recurrences (oscillator,
    joint lag) substep by substep, then every later stage in one pass over
    the tile's (substep, lane, leg[, joint]) arrays.  The base holds its start
    height and flat attitude.  The streams are arrays of (step, lane, ...):
    env.time, base x, y, vx and vy, the step-end contacts and body-frame feet
    (x, y, z), each leg's r, r_dot and theta, the last substep's target x and
    z, the four reward terms and each step's IK clamp count.
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
    fy_prev = legs.feet_y(q) if streams else None
    bx, by, bz = backend.base_pos
    bx, by = np.full(n, bx), np.full(n, by)
    vx, vy, _ = (np.full(n, v) for v in backend.base_lin_vel)
    tiles = []   # with streams, each tile's

    # the backend's and env's own constants
    dt, lag = DT_INTEGRATION, backend.lag_factor
    orientation = W_ORIENTATION * 0.0   # the kinematic backend keeps the base flat
    per_tile = max(1, TILE_LANE_SUBSTEPS // (n * N_SUBSTEPS))

    total = np.zeros(n)
    for first in range(0, horizon, per_tile):
        n_steps = min(per_tile, horizon - first)
        t = n_steps * N_SUBSTEPS
        if n <= FLOAT_LANES:
            rs, rds, thetas = _oscillate(r, r_dot, mu, theta_dot, theta, t)
        else:
            rs, rds, thetas = np.empty((t, n)), np.empty((t, n)), np.empty((t, n, 4))
            for k in range(t):
                r, r_dot, theta = advance(r, r_dot, mu, theta_dot, theta)
                rs[k], rds[k], thetas[k] = r, r_dot, theta
        # what crosses into the next tile is a copy: a view would keep this
        # tile's whole array alive through the next one
        r, r_dot, theta = rs[-1].copy(), rds[-1].copy(), thetas[-1].copy()
        tx, tz = foot_targets(robot, rs, thetas)
        des, clamped = legs.ik(tx, tz)
        if n <= FLOAT_LANES:
            qs = _lag(legs, q, des, lag)
        else:
            qs = np.empty_like(des)
            for k in range(t):
                q = qs[k] = q + (des[k] - q) * lag
        # the power term reads each step's last torques and joint velocities,
        # so the error des - q is formed at its last two substeps only, from
        # the positions before them (N_SUBSTEPS >= 3)
        e_end = des[N_SUBSTEPS - 1::N_SUBSTEPS] - qs[N_SUBSTEPS - 2::N_SUBSTEPS]
        e_pre = des[N_SUBSTEPS - 2::N_SUBSTEPS] - qs[N_SUBSTEPS - 3::N_SUBSTEPS]
        q = qs[-1].copy()

        fx, fz = legs.feet_xz(qs)
        contact = bz + fz <= CONTACT_TOL
        vxs, xs = _sweep(fx, fx_prev, contact, vx, bx)
        fx_prev, vx, bx = fx[-1].copy(), vxs[-1].copy(), xs[-1].copy()

        forward = W_FORWARD * np.minimum(xs[N_SUBSTEPS::N_SUBSTEPS] - xs[:-1:N_SUBSTEPS],
                                         env.d_max)
        trq = robot.kp * e_end - robot.kd * (e_pre * lag / dt)
        qd_end = e_end * lag / dt
        qd_prev = np.concatenate((qd[None], qd_end[:-1]))
        qd = qd_end[-1].copy()
        work = (trq * (qd_end - qd_prev)).reshape(n_steps, n, -1)   # leg-major
        power = W_POWER * np.abs(_sum(0.0, np.moveaxis(work, -1, 0)))
        reward = forward + orientation + power
        total = _sum(total, reward)
        if streams:
            fy = legs.feet_y(qs)
            vys, ys = _sweep(fy, fy_prev, contact, vy, by)
            fy_prev, vy, by = fy[-1].copy(), vys[-1].copy(), ys[-1].copy()
            at = np.arange(N_SUBSTEPS - 1, t, N_SUBSTEPS)   # step ends: copies, not views
            tiles.append({"x": xs[at + 1], "y": ys[at + 1], "vx": vxs[at], "vy": vys[at],
                          "contact": contact[at],
                          "feet": np.stack((fx[at], fy[at], fz[at]), -1).reshape(-1, n, 12),
                          "r": rs[at], "r_dot": rds[at], "theta": thetas[at],
                          "target_x": tx[at], "target_z": tz[at], "forward": forward,
                          "orientation": np.full_like(forward, orientation),
                          "power": power, "total": reward,
                          "clamps": np.count_nonzero(
                              clamped.reshape(n_steps, N_SUBSTEPS, n, 4), axis=(1, 3))})
            del fy, vys, ys
        # this tile's arrays die here, before the next tile's IK
        del (rs, rds, thetas, tx, tz, des, clamped, qs, fx, fz, contact, vxs, xs,
             e_end, e_pre, trq, qd_end, qd_prev, work)
    if not streams:
        return total.tolist(), None
    out = {name: np.concatenate([tile[name] for tile in tiles]) for name in tiles[0]}
    # env.time: CONTROL_DT added once per step, in order from 0.0
    out["time"] = np.add.accumulate(np.full((horizon, n), CONTROL_DT))
    return total.tolist(), out

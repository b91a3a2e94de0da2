"""Test-side oracles that share no work between legs, and the robots the
fast paths are checked on.

`env_rollout` is `run_rollout` as the plain `QuadrupedEnv.step` loop it
once was: the oracle of its held-command pass.  `substep_loop_step` is
`QuadrupedEnv.step` as the per-substep loop it once was: every substep
steps all four oscillators, solves all four IKs and advances the backend by
`substep_advance`, which runs every leg's joint lag and FK.  No leg takes
another's result, so it is the oracle of the env's leg-major step and of
the batch kernel's twin legs.  `drawn_robots` draws robots whose four legs
are twins, near-twins one float step apart, or unrelated.
"""

import dataclasses
import math

from hypothesis import assume
from hypothesis import strategies as st

from quadcpg.environment import (CONTACT_TOL, CONTROL_DT, N_SUBSTEPS, QuadrupedEnv,
                                 build_observation, compute_reward)
from quadcpg.foot_trajectory import foot_target
from quadcpg.kinematics import ELBOW_DOWN, ELBOW_UP, LegGeometry, _solve, fk_all_feet
from quadcpg.oscillator import (ALPHA, DT_INTEGRATION, TROT_PHASES, clamp_command,
                                step_oscillator)
from quadcpg.registry import RegistryError, builtin_registry
from quadcpg.rollout import RolloutRecord, _control_periods, record_columns

REG = builtin_registry()


def env_rollout(robot, policy, duration, seed=0):
    """run_rollout as one `env.step` per step, on the policy's own action."""
    env = QuadrupedEnv(robot)
    phases = getattr(policy, "initial_phases", TROT_PHASES)
    obs = env.reset(seed=seed, initial_phases=phases)
    rows, violations = [], 0
    record = RolloutRecord(seed=seed, columns=record_columns(), rows=rows, config={
        "robot": robot.name, "duration": duration, "control_dt": CONTROL_DT,
        "alpha": ALPHA, "dt_integration": DT_INTEGRATION, "initial_phases": list(phases)})
    for _ in range(_control_periods(duration)):
        obs, _, _, info = env.step(policy(obs))
        violations += info["workspace_violations"]
        backend, cpg, cmd = env.backend, env.cpg_states, info["command"]
        row = [env.time, *backend.base_pos, *backend.base_rpy, *backend.base_lin_vel]
        row += [s.r for s in cpg] + [s.theta for s in cpg] + list(cmd.mu + cmd.omega)
        for target in info["foot_targets"]:
            row += target
        row += [1.0 if c else 0.0 for c in backend.foot_contacts] + list(info["terms"])
        rows.append(row)
    record.workspace_violations = violations
    return record


def substep_advance(backend, q_des):
    """KinematicBackend.advance as it was before it took a whole control
    step: one substep per call, every leg's FK through fk_all_feet and the
    torques stored at every substep; the base keeps its height.  Returns the
    number of stance feet."""
    robot = backend.robot
    kp, kd = robot.kp, robot.kd
    a, dt = backend.lag_factor, DT_INTEGRATION
    q_all = backend.joint_positions
    for q, qd, trq, des in zip(q_all, backend.joint_velocities,
                               backend.joint_torques, q_des):
        for j in range(len(q)):
            e = des[j] - q[j]
            trq[j] = kp * e - kd * qd[j]
            dq = e * a
            q[j] += dq
            qd[j] = dq / dt
    feet_prev = backend._feet
    feet = fk_all_feet(robot, q_all)
    backend._feet = feet
    contacts = tuple(backend.base_pos[2] + f[2] <= CONTACT_TOL for f in feet)
    backend.foot_contacts = contacts
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
        vx, vy = backend.base_lin_vel[0], backend.base_lin_vel[1]
    bx, by, bz = backend.base_pos
    backend.base_pos = (bx + vx * dt, by + vy * dt, bz)
    backend.base_lin_vel = (vx, vy, 0.0)
    return n_stance


def substep_loop_step(env, action):
    """QuadrupedEnv.step as the per-substep loop it replaced: each substep
    steps the four oscillators, forms their foot targets, solves their IK
    and advances the backend by `substep_advance`; done is False, as the
    world cannot fall.  Returns step's four outputs and the number of
    substeps with no stance foot."""
    cmd = clamp_command(action)
    backend, cpg, legs = env.backend, env._cpg, env.robot.legs
    x0 = backend.base_pos[0]
    violations = flights = 0
    targets = [None] * 4
    for _ in range(N_SUBSTEPS):
        q_des = []
        for i in range(4):
            cpg[i] = step_oscillator(cpg[i], cmd.mu[i], cmd.omega[i])
            targets[i] = foot_target(cpg[i], env.robot.pf, legs[i].abd_offset)
            q, clamped = _solve(legs[i], *targets[i])
            violations += clamped
            q_des.append(q)
        flights += substep_advance(backend, q_des) == 0
    qdot = [v for leg in backend.joint_velocities for v in leg]
    tau = [t for leg in backend.joint_torques for t in leg]
    terms = compute_reward(backend.base_pos[0] - x0, env.d_max, backend.base_rpy, tau,
                           qdot, env._prev_qdot)
    env._prev_qdot = qdot
    env._prev_action = cmd.mu + cmd.omega
    env.time += CONTROL_DT
    obs = build_observation(env.robot, backend, cpg, env._prev_action)
    info = {"terms": terms, "workspace_violations": violations,
            "foot_targets": tuple(targets), "command": cmd}
    return (obs, terms.total, False, info), flights


def backend_state(backend):
    """Every field of the backend's state, as repr (which tells -0.0 from 0.0)."""
    return repr((backend.joint_positions, backend.joint_velocities,
                 backend.joint_torques, backend.base_pos, backend.base_lin_vel,
                 backend.foot_contacts))


def substep_return(robot, mu, omega, horizon):
    """evaluate_constant_command through substep_loop_step: the return of a
    constant-command trot over `horizon` control steps."""
    env = QuadrupedEnv(robot)
    env.reset(initial_phases=TROT_PHASES)
    action = (mu,) * 4 + (omega,) * 4
    total = 0.0
    for _ in range(horizon):
        total += substep_loop_step(env, action)[0][1]
    return total


def ulp(value):
    return math.nextafter(value, math.inf)


@st.composite
def drawn_robots(draw):
    """A built-in's gait and gains on four independently drawn legs: the
    template's leg values, one float step off them, or anything in range."""
    base = REG.get(draw(st.sampled_from(["A1", "Dog3"])))
    links0 = base.legs[0].link_lengths
    d0 = draw(st.just(abs(base.legs[0].abd_offset)) | st.floats(0.0, 2.0 * base.height_nominal))

    def value(v):   # mostly the template's own, so that legs are often twins
        drawn = draw(st.sampled_from([v] * 6 + [ulp(v), math.nextafter(v, 0.0), None]))
        return draw(st.floats(0.5 * v, 1.5 * v)) if drawn is None else drawn

    legs = []
    for own in base.legs:
        links = list(links0)
        for i in draw(st.sets(st.sampled_from(range(len(links))), max_size=len(links))):
            links[i] = value(links[i])
        legs.append(LegGeometry(
            hip_offset=draw(st.just(own.hip_offset) | st.tuples(*[st.floats(-0.5, 0.5)] * 3)),
            abd_offset=draw(st.sampled_from([1.0, -1.0])) * value(d0),
            link_lengths=tuple(links),
            knee_config=draw(st.sampled_from([ELBOW_UP] * 3 + [ELBOW_DOWN]))))
    try:
        return dataclasses.replace(base, name="Drawn", legs=tuple(legs))
    except RegistryError:
        assume(False)

import math
import random
from types import SimpleNamespace

import pytest

from quadcpg import environment
from quadcpg.environment import (ACTION_SIZE, CONTROL_DT, FALL_ANGLE_LIMIT, N_SUBSTEPS,
                                 OBSERVATION_SIZE, QuadrupedEnv, build_observation,
                                 compute_reward)
from quadcpg.foot_trajectory import FootTarget, foot_target
from quadcpg.kinematics import fk_all_feet, ik_leg_clamped
from quadcpg.oscillator import (DT_INTEGRATION, TROT_PHASES, InvalidCommandError,
                                clamp_command, step_oscillator)
from quadcpg.registry import builtin_registry

REG = builtin_registry()
A1 = REG.get("A1")

TROT_ACTION = (1.0,) * 4 + (2.5,) * 4


def make_env(robot=A1):
    return QuadrupedEnv(robot)


class TestReset:
    def test_a1_standing_feet(self):
        env = make_env()
        obs = env.reset(seed=0, initial_phases=TROT_PHASES)
        feet_z = obs.feet_positions[2::3]
        for z in feet_z:
            assert z == pytest.approx(-0.30, abs=1e-9)
        assert all(obs.foot_contacts)

    def test_observation_size_contract(self):
        for robot in REG:
            env = make_env(robot)
            obs = env.reset(seed=0)
            assert len(obs.to_array()) == OBSERVATION_SIZE

    def test_reset_determinism(self):
        a = make_env().reset(seed=3)
        b = make_env().reset(seed=3)
        assert a == b

    def test_cpg_phases_in_observation(self):
        env = make_env()
        obs = env.reset(seed=0, initial_phases=TROT_PHASES)
        assert obs.cpg_state[8:12] == pytest.approx(TROT_PHASES)


class TestStep:
    def test_zero_frequency_no_motion(self):
        # constant phase: amplitude ramp sweeps diagonal feet in opposite
        # directions, so the anchored base stays put
        env = make_env()
        env.reset(seed=0)
        action = (1.0,) * 4 + (0.0,) * 4
        for _ in range(100):
            _, _, _, info = env.step(action)
        assert env.backend.base_pos[0] == pytest.approx(0.0, abs=1e-12)
        assert info["terms"].forward_progress == pytest.approx(0.0, abs=1e-10)

    def test_trot_speed_matches_stance_sweep_model(self):
        env = make_env()
        env.reset(seed=0)
        x1 = None
        for k in range(1000):
            env.step(TROT_ACTION)
            if k == 99:
                x1 = env.backend.base_pos[0]
        mean_speed = (env.backend.base_pos[0] - x1) / 9.0
        assert mean_speed == pytest.approx(4 * A1.pf.l_step * 1.0 * 2.5, rel=0.03)

    def test_duty_factor_half(self):
        env = make_env()
        obs = env.reset(seed=0)
        swing = [0] * 4
        n = 0
        for k in range(100 + 5 * 50):  # settle, then 5 cycles at 2 Hz
            obs, _, _, _ = env.step((1.0,) * 4 + (2.0,) * 4)
            if k >= 100:
                n += 1
                for i in range(4):
                    swing[i] += 0 if obs.foot_contacts[i] else 1
        for s in swing:
            assert s / n == pytest.approx(0.5, abs=0.01)

    def test_timing(self):
        env = make_env()
        env.reset(seed=0)
        for _ in range(37):
            env.step(TROT_ACTION)
        assert env.time == pytest.approx(0.37)
        assert env.n_substeps == N_SUBSTEPS == 10

    def test_n_substeps_is_read_only(self):
        env = make_env()
        with pytest.raises(AttributeError):
            env.n_substeps = 5
        assert env.n_substeps == N_SUBSTEPS

    def test_non_finite_action_rejected(self):
        env = make_env()
        env.reset(seed=0)
        with pytest.raises(InvalidCommandError):
            env.step((math.nan,) * ACTION_SIZE)

    def test_step_before_reset_rejected(self):
        with pytest.raises(RuntimeError):
            make_env().step(TROT_ACTION)

    def test_step_after_done_rejected_until_reset(self, monkeypatch):
        # the kinematic backend holds the nominal height, so a fall threshold
        # above it ends every episode after its first step
        monkeypatch.setattr(environment, "MIN_HEIGHT_FRAC", 1.5)
        env = make_env()
        first = env.reset(seed=0)
        _, _, done, _ = env.step(TROT_ACTION)
        assert done
        x = env.backend.base_pos
        with pytest.raises(RuntimeError, match="done"):
            env.step(TROT_ACTION)
        assert env.backend.base_pos == x
        assert env.reset(seed=0) == first
        assert not env.done
        assert env.step(TROT_ACTION)[2]

    def test_workspace_fallback_flagged_not_fatal(self):
        env = make_env()
        env.reset(seed=0)
        flagged = 0
        for _ in range(100):
            _, _, _, info = env.step((4.0,) * 4 + (2.5,) * 4)
            flagged += info["workspace_violations"]
        assert flagged > 0  # mu=4 strides exceed the A1 workspace

    def test_reward_decomposition(self):
        env = make_env()
        env.reset(seed=0)
        for _ in range(50):
            _, reward, _, info = env.step(TROT_ACTION)
            t = info["terms"]
            assert reward == t.total
            assert t.total == pytest.approx(
                t.forward_progress + t.orientation_penalty + t.power_penalty,
                abs=1e-12)
            assert t.forward_progress <= 8.0 * env.d_max + 1e-12

    def test_prev_action_echoes_clamped_action(self):
        env = make_env()
        env.reset(seed=0)
        obs, _, _, _ = env.step([5.0, 1, 1, 1, 2.5, 2.5, 2.5, -3.0])
        assert obs.prev_action == (4.0, 1, 1, 1, 2.5, 2.5, 2.5, 0.0)

    def test_mid_swing_contact_false(self):
        env = make_env()
        obs = env.reset(seed=0)
        for _ in range(200):  # well into steady trot
            obs, _, _, _ = env.step(TROT_ACTION)
        theta = obs.cpg_state[8:12]
        for i in range(4):
            s = math.sin(theta[i])
            if s > 0.2:
                assert not obs.foot_contacts[i]
            elif s < -0.2:
                assert obs.foot_contacts[i]


def substep_advance(backend, q_des):
    """KinematicBackend.advance as it was before it took a whole control
    step: one substep per call, every leg's FK through fk_all_feet and the
    torques stored at every substep.  Returns the number of stance feet."""
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
    contacts = backend._compute_contacts()
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
    dz = (robot.height_nominal - bz) * backend.servo_factor
    backend.base_pos = (bx + vx * dt, by + vy * dt, bz + dz)
    backend.base_lin_vel = (vx, vy, dz / dt)
    return n_stance


def substep_loop_step(env, action):
    """QuadrupedEnv.step as the per-substep loop it replaced: each substep
    steps the four oscillators, forms their foot targets, solves their IK
    and advances the backend by `substep_advance`.  Returns step's four
    outputs and the number of substeps with no stance foot."""
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
            q, clamped = ik_leg_clamped(legs[i], targets[i])
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
    roll, pitch, _ = backend.base_rpy
    env.done = (abs(roll) > FALL_ANGLE_LIMIT or abs(pitch) > FALL_ANGLE_LIMIT
                or backend.base_pos[2] < env.min_height)
    obs = build_observation(env.robot, backend, cpg, env._prev_action)
    info = {"terms": terms, "workspace_violations": violations,
            "foot_targets": tuple(targets), "command": cmd}
    return (obs, terms.total, env.done, info), flights


def backend_state(backend):
    """Every field of the backend's state, as repr (which tells -0.0 from 0.0)."""
    return repr((backend.joint_positions, backend.joint_velocities,
                 backend.joint_torques, backend.base_pos, backend.base_lin_vel,
                 backend.foot_contacts))


class TestStepEqualsSubstepLoop:
    """The leg-major step == the per-substep loop, output for output."""

    @pytest.mark.parametrize("name", REG.names())
    def test_every_robot(self, name):
        robot = REG.get(name)
        rng = random.Random(name)
        # unequal per-leg commands, some clamping the IK, some outside the box
        actions = [(4.0, 3.5, 0.7, 2.0, 5.0, 4.5, 1.0, 0.0),
                   (9.0, -1.0, 4.0, 0.5, 7.0, -2.0, 5.0, 2.5)]
        actions += [[rng.uniform(-1.0, 6.0) for _ in range(4)]
                    + [rng.uniform(-2.0, 7.0) for _ in range(4)] for _ in range(30)]
        # then a pronk, its four feet in swing together: substeps with no
        # stance foot, where the base holds its planar velocity
        pronk = [(2.0,) * 4 + (3.0,) * 4] * 20
        clamped = flights = 0
        for phases, episode in (([rng.uniform(-7.0, 7.0) for _ in range(4)], actions),
                                ([rng.uniform(-7.0, 7.0)] * 4, pronk)):
            env, ref = QuadrupedEnv(robot), QuadrupedEnv(robot)
            assert env.reset(initial_phases=phases) == ref.reset(initial_phases=phases)
            for action in episode:
                obs, reward, done, info = env.step(action)
                (ref_obs, ref_reward, ref_done, ref_info), ref_flights = substep_loop_step(
                    ref, action)
                assert tuple(obs.to_array()) == tuple(ref_obs.to_array())
                assert (reward, done, info) == (ref_reward, ref_done, ref_info)
                assert env.cpg_states == ref.cpg_states
                assert backend_state(env.backend) == backend_state(ref.backend)
                clamped += info["workspace_violations"]
                flights += ref_flights
                if done:
                    break
        assert flights > 0
        if name == "A1":
            assert clamped > 0   # strides at mu near 4 leave A1's workspace

    def test_reset_stands_on_the_pattern_formation_set_point(self):
        for robot in REG:
            env = QuadrupedEnv(robot)
            env.reset()
            pf = robot.pf
            for leg, q in zip(robot.legs, env.backend.joint_positions):
                standing = FootTarget(pf.x_off, leg.abd_offset, pf.z_off - pf.h)
                assert list(ik_leg_clamped(leg, standing)[0]) == q

    def test_backend_advances_once_per_step(self, monkeypatch):
        rows = []
        advance = environment.KinematicBackend.advance

        def counted(backend, q_des):
            rows.append(len(q_des))
            advance(backend, q_des)

        monkeypatch.setattr(environment.KinematicBackend, "advance", counted)
        env = make_env()
        env.reset(seed=0)
        for _ in range(3):
            env.step(TROT_ACTION)
        assert rows == [N_SUBSTEPS] * 3


class TestDeterminism:
    def test_identical_rollouts(self):
        def run():
            env = make_env()
            env.reset(seed=5)
            trace = []
            for k in range(200):
                obs, reward, done, _ = env.step(TROT_ACTION)
                trace.append((tuple(obs.to_array()), reward, done))
            return trace

        assert run() == run()


class TestComputeReward:
    def test_reference_value(self):
        terms = compute_reward(0.02, 0.015, (0.1, 0.0, 0.0), [1.0], [2.0], [0.0])
        assert terms.total == pytest.approx(8 * 0.015 - 0.25 * 0.1 - 1e-5 * 2.0,
                                            abs=1e-15)
        assert terms.total == pytest.approx(0.09498, abs=1e-12)

    def test_all_zero(self):
        terms = compute_reward(0.0, 0.015, (0.0, 0.0, 0.0), [0.0], [0.0], [0.0])
        assert terms.total == 0.0

    def test_clip_boundary(self):
        terms = compute_reward(0.015, 0.015, (0.0, 0.0, 0.0), [0.0], [0.0], [0.0])
        assert terms.forward_progress == pytest.approx(8.0 * 0.015)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_reward(0.0, 0.015, (0.0, 0.0, 0.0), [0.0, 0.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            compute_reward(0.0, 0.015, (0.0, 0.0), [0.0], [0.0], [0.0])

    def test_randomized_against_hand_formula(self):
        import random
        rng = random.Random(23)
        for _ in range(20):
            f_x = rng.uniform(-0.01, 0.03)
            d_max = rng.uniform(0.005, 0.02)
            o = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            n = rng.choice([12, 16])
            tau = [rng.uniform(-30, 30) for _ in range(n)]
            qd = [rng.uniform(-5, 5) for _ in range(n)]
            qp = [rng.uniform(-5, 5) for _ in range(n)]
            terms = compute_reward(f_x, d_max, o, tau, qd, qp)
            expected = (8.0 * min(f_x, d_max)
                        - 0.25 * math.sqrt(sum(v * v for v in o))
                        - 1e-5 * abs(sum(t * (a - b)
                                         for t, a, b in zip(tau, qd, qp))))
            assert terms.total == pytest.approx(expected, abs=1e-12)


class TestKinematicBackend:
    def test_static_feet_zero_velocity(self):
        env = QuadrupedEnv(A1)
        env.reset(seed=0)
        backend = env.backend
        hold = [[list(q) for q in backend.joint_positions]] * N_SUBSTEPS
        for _ in range(10):
            backend.advance(hold)
        assert backend.base_lin_vel[0] == pytest.approx(0.0, abs=1e-12)
        assert backend.base_pos[0] == pytest.approx(0.0, abs=1e-12)

    def test_height_servoed_to_nominal(self):
        env = QuadrupedEnv(A1)
        env.reset(seed=0)
        for _ in range(500):
            env.step(TROT_ACTION)
        assert env.backend.base_pos[2] == pytest.approx(A1.height_nominal, abs=1e-6)

    def test_displacement_per_cycle(self):
        # one full trot cycle sweeps ~4 * L_step * r forward
        env = make_env()
        env.reset(seed=0)
        for _ in range(100):  # settle amplitude
            env.step(TROT_ACTION)
        x0 = env.backend.base_pos[0]
        for _ in range(40):  # one cycle at 2.5 Hz
            env.step(TROT_ACTION)
        dx = env.backend.base_pos[0] - x0
        assert dx == pytest.approx(4 * A1.pf.l_step, rel=0.02)

    def test_build_observation_uses_joint_fk(self):
        # a snapshot holding just these five fields must do (perfbench
        # replays build_observation on one), so the feet come from FK over
        # joint_positions, never from feet cached in the backend
        for robot in (A1, REG.get("Dog3")):
            env = QuadrupedEnv(robot)
            env.reset(seed=0)
            for _ in range(7):
                env.step(TROT_ACTION)
            b = env.backend
            snapshot = SimpleNamespace(
                joint_positions=[list(q) for q in b.joint_positions], base_rpy=b.base_rpy,
                base_lin_vel=b.base_lin_vel, base_ang_vel=b.base_ang_vel,
                foot_contacts=b.foot_contacts)
            obs = build_observation(robot, snapshot, env.cpg_states, TROT_ACTION)
            feet = fk_all_feet(robot, b.joint_positions)
            assert obs.feet_positions == tuple(c for foot in feet for c in foot)
            assert obs == build_observation(robot, b, env.cpg_states, TROT_ACTION)

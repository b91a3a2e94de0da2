import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import backend_state, drawn_robots, substep_advance, substep_loop_step
from quadcpg import batch, environment
from quadcpg.environment import (ACTION_SIZE, N_SUBSTEPS, OBSERVATION_SIZE,
                                 NonFiniteStateError, QuadrupedEnv, build_observation,
                                 compute_reward)
from quadcpg.foot_trajectory import FootTarget
from quadcpg.kinematics import _solve, fk_all_feet
from quadcpg.oscillator import TROT_PHASES, InvalidCommandError
from quadcpg.registry import builtin_registry

REG = builtin_registry()
A1 = REG.get("A1")

TROT_ACTION = (1.0,) * 4 + (2.5,) * 4

#: Action entries drawn often: the infinities, NaN, the largest and smallest
#: magnitudes (subnormals among them) and both zeros.
EDGE_FLOATS = [math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324,
               2.0 ** -1030, 0.0, -0.0]


@st.composite
def trot_actions(draw):
    """Equal per-limb commands inside and outside the box; now and then one
    limb's mu or omega apart, or a zero of either sign."""
    mu, omega = draw(st.floats(-1.0, 6.0)), draw(st.floats(-1.0, 7.0))
    action = [mu] * 4 + [omega] * 4
    if draw(st.booleans()):
        action[draw(st.integers(0, 7))] = draw(
            st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 7.0))
    return tuple(action)


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


def write_joint_position(backend, value):
    backend.joint_positions[0][1] = value


def write_joint_velocity(backend, value):
    backend.joint_velocities[0][1] = value


def write_base(axis):
    def write(backend, value):
        pos = list(backend.base_pos)
        pos[axis] = value
        backend.base_pos = tuple(pos)
    return write


def stepped_after_write(write, value):
    """A1 trot: three steps, one write to the backend's state, a fourth step."""
    env = make_env()
    env.reset()
    for _ in range(3):
        env.step(TROT_ACTION)
    write(env.backend, value)
    return env.step(TROT_ACTION)


class TestBackendStateContract:
    """A step whose reward is not finite raises NonFiniteStateError, which
    names the first non-finite backend field; finite writes still step."""

    @pytest.mark.parametrize("value, reward, names", [
        # finite joints whose torque times joint-velocity change overflows
        (1e200, "-inf", "its power_penalty is -inf, from finite backend state"),
        (1e308, "nan", "backend.joint_velocities[0][1] is -inf"),
        (math.nan, "nan", "backend.joint_positions[0][1] is nan")])
    def test_a_joint_position_write_that_breaks_the_reward_raises(self, value, reward, names):
        with pytest.raises(NonFiniteStateError) as raised:
            stepped_after_write(write_joint_position, value)
        assert str(raised.value) == f"step reward {reward} is not finite: {names}"
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("write, value", [
        (write_joint_velocity, 1e300), (write_base(0), 1e308), (write_base(2), -1e308)],
        ids=["joint velocity", "base x", "base z"])
    def test_finite_writes_still_step(self, write, value):
        obs, reward, _, info = stepped_after_write(write, value)
        assert math.isfinite(reward) and reward == info["terms"].total
        assert all(map(math.isfinite, obs.to_array()))


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
        assert flights > 0
        if name == "A1":
            assert clamped > 0   # strides at mu near 4 leave A1's workspace

    @settings(max_examples=150, deadline=None)
    @given(robot=st.sampled_from(list(REG)),
           actions=st.lists(st.tuples(*[st.floats() | st.sampled_from(EDGE_FLOATS)] * 8),
                            min_size=1, max_size=3))
    def test_any_action_raises_or_equals_substep_loop(self, robot, actions):
        # a step raises exactly when an entry is not finite, and then leaves
        # the env as it was; any other step is finite and the oracle's
        env, ref = QuadrupedEnv(robot), QuadrupedEnv(robot)
        env.reset()
        ref.reset()
        for action in actions:
            if not all(map(math.isfinite, action)):
                with pytest.raises(InvalidCommandError):
                    env.step(action)
                continue
            got = env.step(action)
            want, _ = substep_loop_step(ref, action)
            assert repr(got) == repr(want)
            obs, reward, _, _ = got
            assert math.isfinite(reward)
            assert all(math.isfinite(v) for part in vars(obs).values() for v in part)
        assert backend_state(env.backend) == backend_state(ref.backend)
        assert repr(env.cpg_states) == repr(ref.cpg_states)

    def test_reset_stands_on_the_pattern_formation_set_point(self):
        for robot in REG:
            env = QuadrupedEnv(robot)
            env.reset()
            pf = robot.pf
            for leg, q in zip(robot.legs, env.backend.joint_positions):
                standing = FootTarget(pf.x_off, leg.abd_offset, pf.z_off - pf.h)
                assert list(_solve(leg, *standing)[0]) == q

    def test_backend_advances_once_per_step(self, monkeypatch):
        tables = []
        advance = environment.KinematicBackend.advance

        def counted(backend, q_des):
            tables.append([len(row) for row in q_des])
            advance(backend, q_des)

        monkeypatch.setattr(environment.KinematicBackend, "advance", counted)
        env = make_env()
        env.reset(seed=0)
        for _ in range(3):
            env.step(TROT_ACTION)
        # leg-major: a row of N_SUBSTEPS desired joint vectors per leg
        assert tables == [[N_SUBSTEPS] * 4] * 3


def run_both(robot, phases, actions):
    """Step `robot` through `actions` from `phases` with env.step and with
    the oracle, which shares nothing between legs; each step's outputs, CPG
    and backend state must have the same repr (which tells -0.0 from 0.0)."""
    env, ref = QuadrupedEnv(robot), QuadrupedEnv(robot)
    assert repr(env.reset(initial_phases=phases)) == repr(ref.reset(initial_phases=phases))
    for k, action in enumerate(actions):
        got = env.step(action)
        want, _ = substep_loop_step(ref, action)
        assert repr(got) == repr(want), k
        assert repr(env.cpg_states) == repr(ref.cpg_states), k
        assert backend_state(env.backend) == backend_state(ref.backend), k


#: Episodes of the batch kernel's twin legs (`batch.twin_legs`): equal
#: commands, a pair commanded apart for one step (RL, FR's twin), an omega of
#: -0.0 on one leg of a pair (clamping keeps it: max(-0.0, 0.0) is -0.0) and a
#: pronk, one class of four legs where the knees bend alike.
TWIN_EPISODES = {
    "clamping trot": (TROT_PHASES, [(4.0,) * 4 + (5.0,) * 4] * 30),
    "one step apart": (TROT_PHASES, [TROT_ACTION] * 5 + [(1.0, 1.0, 1.0, 1.5) + (2.5,) * 4]
                       + [TROT_ACTION] * 10 + [(1.0,) * 4 + (2.5, 3.0, 2.5, 2.5)]
                       + [TROT_ACTION] * 5),
    "omega -0.0": (TROT_PHASES, [(1.0,) * 4 + (0.0, 0.0, 0.0, -0.0)] * 10
                   + [(1.0,) * 4 + (-0.0, 0.0, 0.0, 0.0)] * 10 + [TROT_ACTION] * 10),
    "pronk": ((1.0,) * 4, [(2.0,) * 4 + (3.0,) * 4] * 20),
}


class TestTwinLegs:
    """env.step on the kernel's twin legs, commanded alike and apart: the
    oracle's outputs, bit for bit."""

    @pytest.mark.parametrize("episode", TWIN_EPISODES)
    @pytest.mark.parametrize("name", REG.names())
    def test_equals_substep_loop(self, name, episode):
        run_both(REG.get(name), *TWIN_EPISODES[episode])

    @pytest.mark.parametrize("name", ["A1", "Dog3"])
    def test_joint_writes_between_steps_hold(self, name):
        # a write to a twin's pitch joint and its velocity moves that leg
        # alone, as in the oracle
        robot = REG.get(name)
        assert batch.twin_legs(robot.legs)[3] == 0   # RL is FR's twin
        env, ref = QuadrupedEnv(robot), QuadrupedEnv(robot)
        env.reset()
        ref.reset()
        for k in range(10):
            if k in (5, 7):
                for backend in (env.backend, ref.backend):
                    backend.joint_positions[3][1] += 0.1
                    backend.joint_velocities[3][1] += 1.0
            got = env.step(TROT_ACTION)
            want, _ = substep_loop_step(ref, TROT_ACTION)
            assert repr(got) == repr(want), k
            assert backend_state(env.backend) == backend_state(ref.backend), k

    @settings(max_examples=40, deadline=None)
    @given(robot=drawn_robots(),
           phases=st.sampled_from([TROT_PHASES, (1.0,) * 4])
           | st.tuples(*[st.sampled_from([0.0, -0.0, math.pi, 2.0 * math.pi])] * 4),
           actions=st.lists(trot_actions(), min_size=1, max_size=12))
    def test_drawn_robots_equal_substep_loop(self, robot, phases, actions):
        run_both(robot, phases, actions)


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
        hold = [[list(q)] * N_SUBSTEPS for q in backend.joint_positions]
        for _ in range(10):
            backend.advance(hold)
        assert backend.base_lin_vel[0] == pytest.approx(0.0, abs=1e-12)
        assert backend.base_pos[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", REG.names())
    def test_advance_equals_substep_advance(self, name):
        # random leg-major tables around the standing pose, one step of them
        # around a pose with every foot lifted: substeps with no stance foot
        robot = REG.get(name)
        rng = random.Random(name)
        pf = robot.pf
        lift = 0.3 * robot.height_nominal
        lifted = [list(_solve(leg, pf.x_off, leg.abd_offset, pf.z_off - pf.h + lift)[0])
                  for leg in robot.legs]
        env = QuadrupedEnv(robot)
        env.reset()
        backend, ref = env.backend, environment.KinematicBackend(robot)
        standing = [list(q) for q in backend.joint_positions]
        ref.reset(standing)
        stance_counts = []
        for k in range(8):
            pose = lifted if k == 3 else standing
            table = [[[q + rng.uniform(-0.2, 0.2) for q in leg] for _ in range(N_SUBSTEPS)]
                     for leg in pose]
            backend.advance(table)
            for substep in zip(*table):
                stance_counts.append(substep_advance(ref, substep))
            assert backend_state(backend) == backend_state(ref), k
        assert 0 in stance_counts and max(stance_counts) > 0

    def test_base_keeps_a_height_set_after_reset(self):
        for robot in (A1, REG.get("Dog3")):
            env = QuadrupedEnv(robot)
            env.reset(seed=0)
            backend = env.backend
            backend.base_pos = (0.0, 0.0, 3.0 * robot.height_nominal)
            env.step(TROT_ACTION)
            assert backend.base_pos[2] == 3.0 * robot.height_nominal
            assert backend.base_lin_vel[2] == 0.0

    @pytest.mark.parametrize("name", ["A1", "Dog3"])
    def test_base_writes_between_steps_hold(self, name):
        # no servo, no fall: a base lifted to 1.3x its nominal height, then
        # rolled by 1.2 rad, stays so, in the env and in the oracle alike
        robot = REG.get(name)
        lifted = 1.3 * robot.height_nominal
        env, ref = QuadrupedEnv(robot), QuadrupedEnv(robot)
        env.reset()
        ref.reset()
        for k in range(10):
            for backend in (env.backend, ref.backend):
                if k == 3:
                    x, y, _ = backend.base_pos
                    backend.base_pos = (x, y, lifted)
                if k == 6:
                    backend.base_rpy = (1.2, 0.0, 0.0)
            got = env.step(TROT_ACTION)
            want, _ = substep_loop_step(ref, TROT_ACTION)
            assert repr(got) == repr(want), k
            assert backend_state(env.backend) == backend_state(ref.backend), k
        assert env.backend.base_pos[2] == lifted
        assert env.backend.base_rpy == (1.2, 0.0, 0.0)

    def test_height_held_at_nominal(self):
        env = QuadrupedEnv(A1)
        env.reset(seed=0)
        for _ in range(500):
            env.step(TROT_ACTION)
        assert env.backend.base_pos[2] == A1.height_nominal

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

import math

import pytest

from quadcpg import environment
from quadcpg.environment import (ACTION_SIZE, OBSERVATION_SIZE, QuadrupedEnv,
                                 build_observation, compute_reward)
from quadcpg.oscillator import TROT_PHASES, InvalidCommandError
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
        assert env.n_substeps == 10

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
        _, _, done, info = env.step(TROT_ACTION)
        assert done and info["fell"]
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
        q_hold = [list(q) for q in backend.joint_positions]
        for _ in range(100):
            backend.advance(q_hold)
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
        env = make_env()
        env.reset(seed=0)
        obs = build_observation(A1, env.backend, env.cpg_states,
                                (0.0,) * ACTION_SIZE)
        from quadcpg.kinematics import fk_all_feet
        feet = fk_all_feet(A1, env.backend.joint_positions)
        flat = tuple(c for foot in feet for c in foot)
        assert obs.feet_positions == flat

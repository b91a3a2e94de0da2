import json
import math

import pytest

from quadcpg.controllers import (ConstantCommandPolicy, evaluate_constant_command,
                                 open_loop_trot, search_constant_command)
from quadcpg.environment import QuadrupedEnv
from quadcpg.oscillator import TROT_PHASES, clamp_command
from quadcpg.registry import builtin_registry

REG = builtin_registry()
A1 = REG.get("A1")


class TestOpenLoopTrot:
    def test_constant_action(self):
        policy = open_loop_trot(1.0, 2.5)
        action = policy(None)
        assert action == (1.0, 1.0, 1.0, 1.0, 2.5, 2.5, 2.5, 2.5)
        assert policy(None) == action
        assert policy.initial_phases == TROT_PHASES

    def test_out_of_limit_rejected(self):
        with pytest.raises(ValueError):
            open_loop_trot(4.5, 2.5)
        with pytest.raises(ValueError):
            open_loop_trot(1.0, -0.1)
        with pytest.raises(ValueError):
            open_loop_trot(0.4, 1.0)
        for mu, omega in [(math.nan, 2.5), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="outside"):
                open_loop_trot(mu, omega)

    def test_passes_clamp_unchanged(self):
        action = open_loop_trot(1.3, 3.1)(None)
        cmd = clamp_command(action)
        assert tuple(cmd.mu) + tuple(cmd.omega) == action

    def test_zero_frequency_zero_displacement(self):
        env = QuadrupedEnv(A1)
        env.reset(seed=0, initial_phases=TROT_PHASES)
        policy = open_loop_trot(1.0, 0.0)
        obs = env.reset(seed=0, initial_phases=policy.initial_phases)
        for _ in range(200):
            obs, _, _, _ = env.step(policy(obs))
        assert env.backend.base_pos[0] == pytest.approx(0.0, abs=1e-10)

    def test_trot_speed(self):
        env = QuadrupedEnv(A1)
        policy = open_loop_trot(1.0, 2.5)
        obs = env.reset(seed=0, initial_phases=policy.initial_phases)
        x1 = None
        for k in range(600):
            obs, _, _, _ = env.step(policy(obs))
            if k == 99:
                x1 = env.backend.base_pos[0]
        speed = (env.backend.base_pos[0] - x1) / 5.0
        assert speed == pytest.approx(1.30, rel=0.03)

    def test_diagonal_pairs_antiphase_contacts(self):
        env = QuadrupedEnv(A1)
        policy = open_loop_trot(1.0, 2.0)
        obs = env.reset(seed=0, initial_phases=policy.initial_phases)
        agree_diag = 0
        agree_lateral = 0
        n = 0
        for k in range(100 + 250):
            obs, _, _, _ = env.step(policy(obs))
            if k >= 100:
                n += 1
                c = obs.foot_contacts
                agree_diag += 1 if c[0] == c[3] else 0       # FR vs RL
                agree_lateral += 1 if c[0] == c[1] else 0    # FR vs FL
        assert agree_diag / n > 0.95
        assert agree_lateral / n < 0.05

    def test_all_robots_nominal_stride_in_workspace(self):
        # mu=1 trot must fit every robot's default geometry, 10 s rollout
        policy = open_loop_trot(1.0, 2.5)
        for robot in REG:
            env = QuadrupedEnv(robot)
            obs = env.reset(seed=0, initial_phases=policy.initial_phases)
            violations = 0
            for _ in range(1000):
                obs, _, done, info = env.step(policy(obs))
                violations += info["workspace_violations"]
                assert not done
            assert violations == 0, robot.name


class TestSearch:
    def test_budget_one_returns_single_sample(self):
        result = search_constant_command(A1, budget=1, seed=4, horizon=20)
        assert len(result.samples) == 1
        mu, omega, ret = result.samples[0]
        assert (result.best_mu, result.best_omega, result.best_return) == \
            (mu, omega, ret)

    def test_determinism(self):
        a = search_constant_command(A1, budget=10, seed=12, horizon=20)
        b = search_constant_command(A1, budget=10, seed=12, horizon=20)
        assert a.samples == b.samples
        assert (a.best_mu, a.best_omega, a.best_return) == \
            (b.best_mu, b.best_omega, b.best_return)

    def test_best_so_far_monotone(self):
        result = search_constant_command(A1, budget=15, seed=2, horizon=20)
        bsf = result.best_so_far
        assert all(b2 >= b1 for b1, b2 in zip(bsf, bsf[1:]))
        assert bsf[-1] == result.best_return

    def test_samples_inside_command_box(self):
        result = search_constant_command(A1, budget=30, seed=8, horizon=5)
        for mu, omega, _ in result.samples:
            assert 0.5 <= mu <= 4.0
            assert 0.0 <= omega <= 5.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            search_constant_command(A1, budget=0, seed=0, horizon=10)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_invalid_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            search_constant_command(A1, budget=3, seed=0, horizon=horizon)

    def test_json_export(self, tmp_path):
        result = search_constant_command(A1, budget=5, seed=1, horizon=10)
        path = tmp_path / "search.json"
        result.to_json(str(path))
        doc = json.loads(path.read_text())
        assert len(doc["samples"]) == 5
        assert doc["best"]["return"] == result.best_return
        assert doc["best_so_far"] == result.best_so_far

    def test_evaluate_matches_manual_rollout(self):
        ret = evaluate_constant_command(A1, 1.0, 2.5, horizon=50)
        env = QuadrupedEnv(A1)
        obs = env.reset(seed=0, initial_phases=TROT_PHASES)
        total = 0.0
        for _ in range(50):
            obs, reward, _, _ = env.step((1.0,) * 4 + (2.5,) * 4)
            total += reward
        assert ret == pytest.approx(total, abs=1e-12)


class TestAdapterContract:
    def test_custom_adapter_runs(self):
        class SineOmega:
            initial_phases = TROT_PHASES

            def __init__(self):
                self.t = 0.0

            def __call__(self, obs):
                self.t += 0.01
                omega = 2.0 + math.sin(self.t)
                return (1.0,) * 4 + (omega,) * 4

        env = QuadrupedEnv(A1)
        policy = SineOmega()
        obs = env.reset(seed=0, initial_phases=policy.initial_phases)
        for _ in range(100):
            obs, _, done, _ = env.step(policy(obs))
            assert not done

    def test_constant_policy_is_stateless(self):
        policy = ConstantCommandPolicy(2.0, 3.0)
        assert policy("ignored") == policy(None)

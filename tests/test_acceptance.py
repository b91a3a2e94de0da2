"""End-to-end acceptance suite.

Each test checks one headline property of the stack at its stated
tolerance and prints a single PASS/FAIL line outside pytest's output
capture so the verdicts always appear in the run log.
"""

import math
import random
import time
import zlib

import pytest

from quadcpg.batch import evaluate_batch
from quadcpg.controllers import open_loop_trot, search_constant_command
from quadcpg.environment import (ACTION_SIZE, OBSERVATION_SIZE, QuadrupedEnv,
                                 compute_reward)
from quadcpg.foot_trajectory import foot_target
from quadcpg.kinematics import FOOT_COUPLING_RATIO, fk_leg, ik_leg
from quadcpg.oscillator import (ALPHA, DT_INTEGRATION, OscillatorState,
                                closed_form_amplitude, step_oscillator)
from quadcpg.registry import builtin_registry
from quadcpg.rollout import run_rollout, write_record_csv

REG = builtin_registry()


@pytest.fixture(autouse=True)
def _verdict_printer(capfd):
    TestAcceptance._capfd = capfd
    yield
    TestAcceptance._capfd = None


def report(name, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    capfd = TestAcceptance._capfd
    if capfd is not None:
        with capfd.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, name


class TestAcceptance:
    _capfd = None

    def test_01_oscillator_matches_closed_form(self):
        t0 = time.perf_counter()
        dt = DT_INTEGRATION
        worst = 0.0
        for mu in (0.5, 1.0, 4.0):
            state = OscillatorState(r=0.0, r_dot=0.0, theta=0.0, theta_dot=0.0)
            for k in range(2000):
                state = step_oscillator(state, mu, 0.0)
                exact = closed_form_amplitude(mu, ALPHA, 0.0, 0.0,
                                              (k + 1) * dt)
                worst = max(worst, abs(state.r - exact))
        elapsed = time.perf_counter() - t0
        report(f"oscillator closed-form oracle: max error {worst:.2e} "
               f"(tol 1e-3), {elapsed:.2f} s (< 1 s)",
               worst <= 1e-3 and elapsed < 1.0)

    def test_02_foot_heights_and_continuity_all_robots(self):
        t0 = time.perf_counter()
        ok = True
        for robot in REG:
            pf = robot.pf
            apex = foot_target(
                OscillatorState(1.0, 0.0, math.pi / 2, 0.0), pf).z
            depth = foot_target(
                OscillatorState(1.0, 0.0, 3 * math.pi / 2, 0.0), pf).z
            ok &= abs(apex - (pf.z_off - pf.h + pf.l_clrnc)) < 1e-12
            ok &= abs(depth - (pf.z_off - pf.h - pf.l_pntr)) < 1e-12
            for theta_c in (0.0, math.pi):  # swing/stance hand-offs
                eps = 1e-12
                lo = foot_target(
                    OscillatorState(1.0, 0.0, (theta_c - eps) % (2 * math.pi),
                                    0.0), pf).z
                hi = foot_target(
                    OscillatorState(1.0, 0.0, theta_c + eps, 0.0), pf).z
                ok &= abs(hi - lo) < 1e-9
        elapsed = time.perf_counter() - t0
        report(f"foot-height range and continuity across all 16 robots, "
               f"{elapsed:.2f} s (< 1 s)", ok and elapsed < 1.0)

    def test_03_ik_roundtrip_per_morphology(self):
        t0 = time.perf_counter()
        cases = [
            ("elbow-up 3-DoF", REG.get("A1").legs[0]),
            ("elbow-down hind 3-DoF", REG.get("Little Dog").legs[2]),
            ("coupled-foot 4-DoF", REG.get("Dog1").legs[0]),
        ]
        worst = 0.0
        for label, geom in cases:
            rng = random.Random(zlib.crc32(label.encode()))
            done = 0
            while done < 10_000:
                q_abd = rng.uniform(-0.8, 0.8)
                hip = rng.uniform(-1.2, 1.2)
                if geom.dof == 3:
                    knee = rng.uniform(0.05, 2.5)
                    if geom.knee_config == "elbow_down":
                        knee = -knee
                    q_star = (q_abd, hip, knee)
                else:
                    knee = rng.uniform(0.1, 2.4)
                    q_star = (q_abd, hip, knee, FOOT_COUPLING_RATIO * knee)
                l1 = geom.link_lengths[0]
                rest = sum(geom.link_lengths[1:])
                target = fk_leg(geom, q_star)
                if target.z >= -0.05 * (l1 + rest):
                    continue  # keep to the foot-below-hip branch
                recovered = fk_leg(geom, ik_leg(geom, target))
                err = math.dist(target, recovered)
                worst = max(worst, err)
                done += 1
        elapsed = time.perf_counter() - t0
        report(f"FK/IK roundtrip over 10^4 targets x 3 morphologies: "
               f"max error {worst:.2e} m (tol 1e-9), {elapsed:.1f} s (< 10 s)",
               worst <= 1e-9 and elapsed < 10.0)

    def test_04_fixed_interface_sizes(self):
        ok = True
        for robot in REG:
            env = QuadrupedEnv(robot)
            obs = env.reset(seed=0)
            ok &= len(obs.to_array()) == OBSERVATION_SIZE == 49
            obs, _, _, _ = env.step((1.0,) * 4 + (2.0,) * 4)
            ok &= len(obs.prev_action) == ACTION_SIZE == 8
        report("observation length 49 / action length 8 for all 16 robots", ok)

    def test_05_trot_velocity_matches_stance_sweep_model(self):
        ok = True
        details = []
        for name in ("A1", "Solo", "Dog3"):
            robot = REG.get(name)
            expected = 4 * robot.pf.l_step * 1.0 * 2.5
            env = QuadrupedEnv(robot)
            policy = open_loop_trot(1.0, 2.5)
            obs = env.reset(seed=0, initial_phases=policy.initial_phases)
            x1 = None
            for k in range(600):
                obs, _, _, _ = env.step(policy(obs))
                if k == 99:  # end of the 1 s transient
                    x1 = env.backend.base_pos[0]
            speed = (env.backend.base_pos[0] - x1) / 5.0
            details.append(f"{name} {speed:.3f}/{expected:.2f}")
            ok &= abs(speed - expected) <= 0.03 * expected
        report("trot speed within 3% of 4*L_step*r*f "
               f"({', '.join(details)} m/s)", ok)

    def test_06_duty_factor_half(self):
        env = QuadrupedEnv(REG.get("A1"))
        obs = env.reset(seed=0)
        swing = [0] * 4
        n = 0
        for k in range(100 + 6 * 50):  # settle, then 6 cycles at 2 Hz
            obs, _, _, _ = env.step((1.0,) * 4 + (2.0,) * 4)
            if k >= 100:
                n += 1
                for i in range(4):
                    swing[i] += 0 if obs.foot_contacts[i] else 1
        fractions = [s / n for s in swing]
        ok = all(abs(f - 0.5) <= 0.01 for f in fractions)
        report("duty factor 0.50 +/- 0.01 per limb "
               f"({', '.join(f'{f:.3f}' for f in fractions)})", ok)

    def test_07_reward_fidelity(self):
        rng = random.Random(101)
        worst = 0.0
        for _ in range(20):
            f_x = rng.uniform(-0.01, 0.03)
            d_max = rng.uniform(0.005, 0.02)
            o = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            n = rng.choice([12, 16])
            tau = [rng.uniform(-30, 30) for _ in range(n)]
            qd = [rng.uniform(-5, 5) for _ in range(n)]
            qp = [rng.uniform(-5, 5) for _ in range(n)]
            expected = (8.0 * min(f_x, d_max)
                        - 0.25 * math.sqrt(sum(v * v for v in o))
                        - 1e-5 * abs(sum(t * (a - b)
                                         for t, a, b in zip(tau, qd, qp))))
            got = compute_reward(f_x, d_max, o, tau, qd, qp).total
            worst = max(worst, abs(got - expected))
        report(f"reward vs 20 hand-computed tuples: max error {worst:.2e} "
               "(tol 1e-12)", worst <= 1e-12)

    def test_08_random_search_vs_dense_grid(self):
        t0 = time.perf_counter()
        robot = REG.get("A1")
        horizon = 60
        result = search_constant_command(robot, budget=200, seed=0,
                                         horizon=horizon)
        grid = [(0.5 + (4.0 - 0.5) * i / 49, 5.0 * j / 49)
                for i in range(50) for j in range(50)]
        grid_best = max(evaluate_batch(robot, grid, horizon=horizon, seed=0))
        elapsed = time.perf_counter() - t0
        ratio = result.best_return / grid_best
        report(f"200-sample search reaches {100 * ratio:.1f}% of 50x50 grid "
               f"best (>= 95%), {elapsed:.0f} s (< 120 s)",
               ratio >= 0.95 and elapsed < 120.0)

    def test_09_rollout_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            record = run_rollout(REG.get("A1"), open_loop_trot(1.0, 2.5),
                                 duration=2.0, seed=42)
            write_record_csv(record, str(path))
        ok = paths[0].read_bytes() == paths[1].read_bytes()
        report("identical seeds produce byte-identical rollout CSVs", ok)

    def test_10_registry_golden(self):
        golden = {
            # name: (height_m, l_step_m, dof, mass_kg, kp, kd)
            "Little Dog": (0.19, 0.05, 12, 2.9, 20.0, 0.3),
            "Spot-Micro": (0.183, 0.05, 12, 4.8, 20.0, 0.3),
            "Solo": (0.25, 0.10, 12, 2.5, 20.0, 0.3),
            "Mini-Cheetah": (0.30, 0.13, 12, 8.4, 100.0, 2.7),
            "A1": (0.30, 0.13, 12, 12.0, 100.0, 2.7),
            "Go1": (0.30, 0.13, 12, 12.0, 100.0, 2.7),
            "Aliengo": (0.42, 0.16, 12, 20.6, 100.0, 2.7),
            "Laikago": (0.40, 0.16, 12, 25.0, 100.0, 2.7),
            "Anymal-B": (0.48, 0.17, 12, 30.0, 430.0, 20.7),
            "Anymal-C": (0.52, 0.18, 12, 52.1, 430.0, 20.7),
            "Spot": (0.57, 0.20, 12, 30.0, 430.0, 20.7),
            "B1": (0.57, 0.18, 12, 52.7, 430.0, 20.7),
            "HYQ": (0.63, 0.20, 12, 86.7, 430.0, 20.7),
            "Dog1": (0.30, 0.13, 16, 13.8, 100.0, 2.7),
            "Dog2": (0.57, 0.18, 16, 56.0, 200.0, 10.7),
            "Dog3": (1.00, 0.36, 16, 200.0, 1400.0, 140.7),
        }
        ok = len(REG) == 16
        for name, (h, l_step, dof, mass, kp, kd) in golden.items():
            r = REG.get(name)
            ok &= r.height_nominal == pytest.approx(h, abs=1e-12)
            ok &= r.pf.l_step == pytest.approx(l_step, abs=1e-12)
            ok &= r.dof_total == dof
            ok &= (r.mass, r.kp, r.kd) == (mass, kp, kd)
        masses = [r.mass for r in REG]
        heights = [r.height_nominal for r in REG]
        ok &= (min(masses), max(masses)) == (2.5, 200.0)
        ok &= min(heights) == pytest.approx(0.183)
        ok &= max(heights) == pytest.approx(1.00)
        report("built-in registry matches golden robot table "
               "(16 robots, 2.5-200 kg, 0.183-1.00 m)", ok)

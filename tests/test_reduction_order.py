"""The episode paths agree however the interpreter's sum() rounds.

From Python 3.12 the builtin sum() of floats is compensated (Neumaier
summation), so a reduction written with sum() rounds differently on 3.11
and on 3.12.  Shadowing `sum` in the modules that reduce rewards with
3.12's algorithm reproduces a 3.12 interpreter on any version: the
scalar oracle must still equal the batched kernel bit for bit, and the
rollout CSV and manifest must not move.
"""

import math
import random

import pytest

from quadcpg import environment, rollout
from quadcpg.batch import evaluate_batch
from quadcpg.controllers import evaluate_constant_command, open_loop_trot
from quadcpg.oscillator import MU_MAX, MU_MIN, OMEGA_MAX_HZ, OMEGA_MIN_HZ
from quadcpg.registry import builtin_registry
from test_source_hygiene import MODULES, builtin_sum_calls

REG = builtin_registry()


def neumaier_sum(terms):
    """Python 3.12's builtin sum() of floats."""
    total, compensation = 0.0, 0.0
    for x in terms:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.fixture
def shadow_sum(monkeypatch):
    """Call it to make `sum` in environment and rollout 3.12's sum()."""
    def shadow():
        for module in (environment, rollout):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    return shadow


def test_neumaier_rounds_differently_from_in_order():
    terms = [0.1] * 10
    assert neumaier_sum(terms) == 1.0
    assert environment.sum_in_order(terms) == 0.9999999999999999


@pytest.mark.parametrize("name", ["A1", "Dog3"])
def test_batch_equals_oracle_under_compensated_sum(name, shadow_sum):
    shadow_sum()
    robot = REG.get(name)
    rng = random.Random(name)
    commands = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                for _ in range(12)]
    oracle = [evaluate_constant_command(robot, mu, omega, 60) for mu, omega in commands]
    assert evaluate_batch(robot, commands, 60) == oracle


def test_rollout_unchanged_under_compensated_sum(tmp_path, shadow_sum):
    def run(path):
        record = rollout.run_rollout(REG.get("A1"), open_loop_trot(1.0, 2.5), 10.0, seed=0)
        rollout.write_record_csv(record, str(path))
        return path.read_bytes(), record.manifest()["summary"]["mean_reward"]

    plain = run(tmp_path / "plain.csv")
    shadow_sum()
    assert run(tmp_path / "compensated.csv") == plain


def test_package_calls_no_builtin_sum():
    assert [p.name for p in MODULES if builtin_sum_calls(p.read_text())] == []

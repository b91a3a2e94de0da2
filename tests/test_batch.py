"""Differential tests: the batched episode kernel against the scalar env.

`evaluate_constant_command` (one `QuadrupedEnv` reset/step loop per
command) is the oracle; every return of `evaluate_batch` must equal it
with ==, not within a tolerance.
"""

import random

import pytest

from quadcpg import batch, environment
from quadcpg.batch import evaluate_batch
from quadcpg.controllers import evaluate_constant_command, search_constant_command
from quadcpg.environment import QuadrupedEnv
from quadcpg.oscillator import (MU_MAX, MU_MIN, OMEGA_MAX_HZ, OMEGA_MIN_HZ,
                                TROT_PHASES)
from quadcpg.registry import builtin_registry

REG = builtin_registry()
HORIZON = 60
CORNERS = [(MU_MIN, OMEGA_MIN_HZ), (MU_MIN, OMEGA_MAX_HZ),
           (MU_MAX, OMEGA_MIN_HZ), (MU_MAX, OMEGA_MAX_HZ)]
OUT_OF_BOX = [(5.0, 6.0), (0.1, -1.0), (-3.0, 10.0), (100.0, 0.2)]


def scalar_returns(robot, commands, horizon=HORIZON):
    return [evaluate_constant_command(robot, mu, omega, horizon)
            for mu, omega in commands]


def workspace_violations(robot, mu, omega, horizon=HORIZON):
    env = QuadrupedEnv(robot)
    env.reset(seed=0, initial_phases=TROT_PHASES)
    return sum(env.step((mu,) * 4 + (omega,) * 4)[3]["workspace_violations"]
               for _ in range(horizon))


@pytest.mark.parametrize("robot", list(REG), ids=REG.names())
def test_equals_scalar_on_every_robot(robot):
    rng = random.Random(robot.name)
    commands = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                for _ in range(6)] + CORNERS + OUT_OF_BOX
    assert evaluate_batch(robot, commands, HORIZON) == scalar_returns(robot, commands)


@pytest.mark.parametrize("name", ["A1", "Dog3"])
def test_equals_scalar_where_ik_clamps(name):
    robot = REG.get(name)
    assert workspace_violations(robot, 4.0, 5.0) > 0
    commands = [(4.0, 5.0), (3.5, 4.5), (1.0, 2.5)]
    assert evaluate_batch(robot, commands, HORIZON) == scalar_returns(robot, commands)


def test_lanes_are_independent():
    robot = REG.get("Dog3")
    rng = random.Random(7)
    commands = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                for _ in range(40)]
    alone = evaluate_batch(robot, commands[17:18], HORIZON)
    assert alone == [evaluate_batch(robot, commands, HORIZON)[17]]
    assert alone == scalar_returns(robot, commands[17:18])


def test_chunk_boundaries_equal_scalar():
    robot = REG.get("Dog3")
    chunk = batch.LANES_PER_CHUNK
    n, horizon = 2 * chunk + 5, 4
    rng = random.Random(3)
    commands = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                for _ in range(n)]
    got = evaluate_batch(robot, commands, horizon)
    assert len(got) == n
    edges = {0, n - 1}
    for start in range(chunk, n, chunk):
        edges |= {start - 1, start}
    for i in sorted(edges):
        assert [got[i]] == scalar_returns(robot, commands[i:i + 1], horizon), i


def test_every_lane_of_small_chunks_equals_scalar(monkeypatch):
    monkeypatch.setattr(batch, "LANES_PER_CHUNK", 3)
    robot = REG.get("A1")
    commands = CORNERS + OUT_OF_BOX   # three chunks, the last one partial
    assert evaluate_batch(robot, commands, HORIZON) == scalar_returns(robot, commands)


def test_termination_is_sticky_and_matches_scalar(monkeypatch):
    # the kinematic backend holds the nominal height, so raise the fall
    # threshold above it: every episode then ends after its first step
    monkeypatch.setattr(environment, "MIN_HEIGHT_FRAC", 1.5)
    robot = REG.get("A1")
    commands = [(1.0, 2.5), (4.0, 5.0)]
    got = evaluate_batch(robot, commands, HORIZON)
    assert got == scalar_returns(robot, commands)
    assert got == evaluate_batch(robot, commands, 1)


@pytest.mark.parametrize("horizon", [0, -5])
@pytest.mark.parametrize("evaluate", [
    lambda robot, horizon: evaluate_batch(robot, [(1.0, 2.5)], horizon),
    lambda robot, horizon: evaluate_constant_command(robot, 1.0, 2.5, horizon),
], ids=["batch", "oracle"])
def test_horizon_below_one_raises(evaluate, horizon):
    with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
        evaluate(REG.get("A1"), horizon)


def test_no_commands_no_returns():
    assert evaluate_batch(REG.get("A1"), [], HORIZON) == []


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["A1", "Dog3"])
def test_search_equals_scalar_loop(name, seed):
    robot = REG.get(name)
    budget, horizon = 20, 40
    rng = random.Random(seed)
    candidates = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                  for _ in range(budget)]
    returns = scalar_returns(robot, candidates, horizon)
    best = max(range(budget), key=lambda i: (returns[i], -i))

    result = search_constant_command(robot, budget, seed=seed, horizon=horizon)
    assert result.samples == [(mu, om, r) for (mu, om), r in zip(candidates, returns)]
    assert (result.best_mu, result.best_omega, result.best_return) == (
        candidates[best] + (returns[best],))

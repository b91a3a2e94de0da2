"""run_rollout's held-command pass against the plain env.step loop.

`oracles.env_rollout` is the oracle.  Rows, clamp count, manifest and every
observation handed to the policy must be its own, bit for bit (repr tells
-0.0 from 0.0), whichever path run_rollout takes: the pass, the pass then a
replay when the policy changes its command, or the scalar env alone.
"""

import collections
import json
import math

import numpy as np   # noqa: F401 - loaded: run_rollout takes the pass only then
import pytest

from oracles import REG, env_rollout
from quadcpg import rollout
from quadcpg.oscillator import TROT_PHASES, InvalidCommandError

ROBOTS = [r.name for r in REG]
TROT = (1.0, 2.5), (4.0, 5.0)   # A1 clamps most of its IK calls at (4, 5)


def trot(mu, omega):
    return (mu,) * 4 + (omega,) * 4


class Scripted:
    """Trot phases; `actions[k]` at step k, the last one held; records
    every observation it is handed."""

    def __init__(self, *actions, phases=TROT_PHASES):
        self.actions, self.initial_phases, self.seen = actions, phases, []

    def __call__(self, obs):
        self.seen.append(obs)
        return self.actions[min(len(self.seen), len(self.actions)) - 1]


def changing(first, then, at):
    """`first` at every step before `at`, `then` from it on."""
    return Scripted(*[first] * at, then)


def first_difference(got, want):
    """The first index at which the reprs of two sequences differ, else None."""
    got, want = list(map(repr, got)), list(map(repr, want))
    if got == want:
        return None
    return next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)))


def assert_as_env(robot_name, make_policy, steps, monkeypatch, passes):
    """run_rollout equals the oracle, and takes the pass iff `passes`."""
    robot = REG.get(robot_name)
    taken = []
    held = rollout._held_steps
    monkeypatch.setattr(rollout, "_held_steps", lambda *a: taken.append(a) or held(*a))
    mine, oracle = make_policy(), make_policy()
    record = rollout.run_rollout(robot, mine, steps / 100)
    want = env_rollout(robot, oracle, steps / 100)
    assert len(record.rows) == steps
    assert first_difference(record.rows, want.rows) is None
    assert record.workspace_violations == want.workspace_violations
    assert json.dumps(record.manifest()) == json.dumps(want.manifest())
    assert first_difference(mine.seen, oracle.seen) is None
    assert bool(taken) == passes


@pytest.mark.parametrize("name", ROBOTS)
@pytest.mark.parametrize("mu, omega", TROT)
def test_held_trot_every_robot(name, mu, omega, monkeypatch):
    assert_as_env(name, lambda: Scripted(trot(mu, omega)), 81, monkeypatch, True)


@pytest.mark.parametrize("name", ["A1", "Dog3", "Little Dog"])
@pytest.mark.parametrize("steps", [1, 2, 3, 1000])
def test_horizons(name, steps, monkeypatch):
    assert_as_env(name, lambda: Scripted(trot(4.0, 5.0)), steps, monkeypatch, steps > 1)


@pytest.mark.parametrize("name", ["A1", "Dog3", "Little Dog"])
@pytest.mark.parametrize("omega", [0.0, -0.0])
def test_standing_trot(name, omega, monkeypatch):
    assert_as_env(name, lambda: Scripted(trot(2.0, omega)), 81, monkeypatch, True)


@pytest.mark.parametrize("name, steps, at", [
    ("A1", 600, 1), ("A1", 600, 2), ("A1", 600, 500), ("A1", 600, 599),
    ("Dog3", 81, 2), ("Dog3", 81, 80), ("Little Dog", 81, 2), ("Little Dog", 81, 80)])
def test_policy_changes_command(name, steps, at, monkeypatch):
    assert_as_env(name, lambda: changing(trot(1.0, 2.5), trot(4.0, 5.0), at), steps,
                  monkeypatch, at > 1)


@pytest.mark.parametrize("at", [1, 2, 40])
def test_omega_changes_sign_of_zero(at, monkeypatch):
    """0.0 == -0.0, but the env shows the sign: the pass must see the change."""
    assert_as_env("A1", lambda: changing(trot(2.0, 0.0), trot(2.0, -0.0), at), 81,
                  monkeypatch, at > 1)


def test_changes_back_to_the_held_command(monkeypatch):
    make = lambda: Scripted(*[trot(1.0, 2.5)] * 5, trot(1.0, 3.0), trot(1.0, 2.5))
    assert_as_env("Dog3", make, 81, monkeypatch, True)


@pytest.mark.parametrize("action, phases, passes", [
    (trot(1.0, 2.5), (0.0, math.pi / 2, math.pi, 3 * math.pi / 2), False),   # a walk
    (trot(1.0, 2.5), (-0.0, 3 * math.pi, -math.pi, 2 * math.pi), True),   # wrapped, a trot
    ((1.0, 1.0, 1.5, 1.0) + (2.5,) * 4, TROT_PHASES, False),   # per-leg mu
    ((2.0,) * 4 + (0.0, -0.0, 0.0, -0.0), TROT_PHASES, False),   # mixed-sign zero omegas
    (trot(9.0, 7.0), TROT_PHASES, True),   # clamped to the box's corner
])
@pytest.mark.parametrize("name", ["A1", "Dog3"])
def test_other_commands_and_phases(name, action, phases, passes, monkeypatch):
    assert_as_env(name, lambda: Scripted(action, phases=phases), 81, monkeypatch, passes)


@pytest.mark.parametrize("at", [0, 1, 2, 50])
def test_invalid_command_raises_at_the_same_step(at):
    """A NaN action raises the env's InvalidCommandError at its step."""
    robot = REG.get("A1")
    outcomes = []
    for run in (rollout.run_rollout, env_rollout):
        policy = changing(trot(1.0, 2.5), trot(math.nan, 2.5), at)
        with pytest.raises(InvalidCommandError) as raised:
            run(robot, policy, 0.81)
        outcomes.append((str(raised.value), policy.seen))
    assert outcomes[0][0] == outcomes[1][0]
    assert first_difference(outcomes[0][1], outcomes[1][1]) is None
    assert len(policy.seen) == at + 1


class Handed:
    """Trot phases; hands out one `action` object at every step, from step
    `at` on the one that `change(action)` returns (the same object, changed
    in place, or another); records every observation it is handed."""

    initial_phases = TROT_PHASES

    def __init__(self, action, at=None, change=None):
        self.action, self.at, self.change, self.seen = action, at, change, []

    def __call__(self, obs):
        if len(self.seen) == self.at:
            self.action = self.change(self.action)
        self.seen.append(obs)
        return self.action


class Fresh(Handed):
    """A new, equal tuple at every step."""

    def __call__(self, obs):
        return tuple(list(super().__call__(obs)))


class Dial(float):
    """A float whose float() reads its `value`, which can change."""

    def __float__(self):
        return self.value


def dial(value):
    d = Dial(value)
    d.value = value
    return d


def turn(action):
    action[0].value = 4.0   # the same Dial in all four mu
    return action


def set_mu(action):
    action[0][()] = 4.0   # the same 0-d array in all four mu
    return action


def set_list(action):
    action[:4] = [4.0] * 4
    return action


Cmd = collections.namedtuple("Cmd", "m0 m1 m2 m3 w0 w1 w2 w3")

#: Raw actions that `run_rollout` must clamp at every step, for none of them
#: is a tuple of exact floats, and one that it need not: the same tuple of
#: floats, swapped at step 5 for an equal one.
RAW = {
    "fresh tuple": lambda: Fresh(trot(1.0, 2.5)),
    "list": lambda: Handed(list(trot(1.0, 2.5))),
    "list changed in place": lambda: Handed(list(trot(1.0, 2.5)), 5, set_list),
    "namedtuple": lambda: Handed(Cmd(*trot(1.0, 2.5))),
    "tuple with an int": lambda: Handed((1, 1, 1, 1) + (2.5,) * 4),
    "tuple with a numpy float": lambda: Handed((np.float64(1.0),) * 4 + (2.5,) * 4),
    "tuple with a 0-d array changed in place": lambda: Handed(
        (np.array(1.0),) * 4 + (2.5,) * 4, 5, set_mu),
    "tuple with a float subclass that changes": lambda: Handed(
        (dial(1.0),) * 4 + (2.5,) * 4, 5, turn),
    "equal tuple swapped in": lambda: Handed(trot(1.0, 2.5), 5, lambda a: tuple(list(a))),
}


@pytest.mark.parametrize("kind", RAW)
@pytest.mark.parametrize("name", ["A1", "Dog3"])
def test_raw_actions_of_every_kind(name, kind, monkeypatch):
    assert_as_env(name, RAW[kind], 81, monkeypatch, True)


@pytest.mark.parametrize("at", [0, 5])
def test_none_raises_at_the_same_step(at):
    """No raw action skips the clamp before a command is held: None at step
    0 raises what clamp_command raises, as it does at step 5."""
    outcomes = []
    for run in (rollout.run_rollout, env_rollout):
        policy = Handed(trot(1.0, 2.5), at, lambda a: None)
        with pytest.raises(TypeError) as raised:
            run(REG.get("A1"), policy, 0.81)
        outcomes.append((str(raised.value), len(policy.seen)))
    assert outcomes[0] == outcomes[1] == (outcomes[0][0], at + 1)

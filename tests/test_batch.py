"""Differential tests: the batched episode kernel against the scalar env.

`evaluate_constant_command` (one `QuadrupedEnv` reset/step loop per
command) is the oracle; every return of `evaluate_batch` must equal it
with ==, not within a tolerance.  Twin legs share work in both paths, so
the twin property's oracle is `oracles.substep_return`, which shares none.
"""

import dataclasses
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import drawn_robots, substep_return, ulp
from quadcpg import batch
from quadcpg.batch import evaluate_batch
from quadcpg.controllers import evaluate_constant_command, search_constant_command
from quadcpg.environment import N_SUBSTEPS, QuadrupedEnv
from quadcpg.kinematics import ELBOW_DOWN
from quadcpg.oscillator import (LIMBS, MU_MAX, MU_MIN, OMEGA_MAX_HZ, OMEGA_MIN_HZ,
                                TROT_PHASES, TWO_PI)
from quadcpg.registry import _descriptor_from_entry, builtin_registry

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
    chunk = batch.TILE_LANE_SUBSTEPS // N_SUBSTEPS   # lanes of one tile
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
    monkeypatch.setattr(batch, "TILE_LANE_SUBSTEPS", 3 * N_SUBSTEPS)
    robot = REG.get("A1")
    commands = CORNERS + OUT_OF_BOX   # three chunks, the last one partial
    assert evaluate_batch(robot, commands, HORIZON) == scalar_returns(robot, commands)


#: Four lanes of three control steps per tile.
SMALL_TILE = 4 * 3 * N_SUBSTEPS


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6, 7])
def test_horizons_around_tile_boundaries_equal_scalar(monkeypatch, horizon):
    monkeypatch.setattr(batch, "TILE_LANE_SUBSTEPS", SMALL_TILE)
    robot = REG.get("Dog3")
    commands = CORNERS   # four lanes: tiles end after steps 3 and 6
    got = evaluate_batch(robot, commands, horizon)
    assert got == scalar_returns(robot, commands, horizon)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 11, 12, 13, 25])
def test_lane_counts_across_tiles_equal_scalar(monkeypatch, n):
    monkeypatch.setattr(batch, "TILE_LANE_SUBSTEPS", SMALL_TILE)   # 12 lanes a chunk
    robot = REG.get("A1")
    rng = random.Random(n)
    commands = [(rng.uniform(-1.0, 5.0), rng.uniform(-1.0, 6.0)) for _ in range(n)]
    assert evaluate_batch(robot, commands, 5) == scalar_returns(robot, commands, 5)


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


#: (mu, omega) inside the command box and on every side of it.
COMMANDS = st.tuples(st.floats(-1.0, 6.0), st.floats(-1.0, 7.0))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(REG.names()),
       commands=st.lists(COMMANDS, min_size=1, max_size=4), horizon=st.integers(1, 25),
       tile=st.integers(1, 12 * N_SUBSTEPS))
def test_any_tiling_equals_scalar(name, commands, horizon, tile):
    robot = REG.get(name)
    with mock.patch.object(batch, "TILE_LANE_SUBSTEPS", tile):
        got = evaluate_batch(robot, commands, horizon)
    assert got == scalar_returns(robot, commands, horizon)


def peak_bytes(robot, commands, horizon):
    tracemalloc.start()
    try:
        evaluate_batch(robot, commands, horizon)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_budget():
    # one tile's arrays set the peak; only the returns grow with the budget
    # (measured on Dog3 at horizon 2: 1,245 KB for 2,000 commands, 1,168 KB for 200)
    robot = REG.get("Dog3")
    rng = random.Random(0)
    commands = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                for _ in range(2000)]
    evaluate_batch(robot, commands[:3], 2)   # first-call allocations stay out of the peaks
    assert peak_bytes(robot, commands, 2) <= 1.25 * peak_bytes(robot, commands[:200], 2)


def test_a_tile_frees_its_arrays_before_the_next():
    # what crosses a tile boundary is copied, so no view keeps a finished
    # tile's arrays alive through the next tile: an episode of four tiles
    # peaks about as high as one of one tile (Dog3 at 40 lanes: 1,120 KB
    # against 1,104 KB; 1,318 KB when the joint positions carry as a view)
    robot = REG.get("Dog3")
    rng = random.Random(0)
    commands = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                for _ in range(40)]
    per_tile = batch.TILE_LANE_SUBSTEPS // (len(commands) * N_SUBSTEPS)   # steps
    evaluate_batch(robot, commands[:3], 2)   # first-call allocations stay out of the peaks
    one = peak_bytes(robot, commands, per_tile)
    assert peak_bytes(robot, commands, 4 * per_tile) <= 1.15 * one


#: The built-ins whose rear knees bend the other way (elbow_down).
MIXED = {"Little Dog", "Solo", "Anymal-B", "Anymal-C", "HYQ"}


@pytest.mark.parametrize("robot", list(REG), ids=REG.names())
def test_twin_classes(robot):
    legs = batch._Legs(robot)
    solved = np.array(LIMBS)[legs.solved]
    if robot.name in MIXED:
        assert solved[legs.twin].tolist() == solved.tolist() == list(LIMBS)
    else:   # the trot's diagonal pairs: FR with RL, FL with RR
        assert solved.tolist() == ["fr", "fl"]
        assert solved[legs.twin].tolist() == ["fr", "fl", "fl", "fr"]


@pytest.mark.parametrize("name", ["A1", "Dog3", "Little Dog"])
def test_legs_stack_only_what_ik_reads(name):
    """`_Legs` stacks the IK constants `ik_constants` names, and `_Legs.ik`
    reads every one of them: no per-leg array is built and left unread."""
    robot = REG.get(name)
    geometry = robot.legs[0]
    stacked = {attr for attr in vars(batch._Legs(robot)) if hasattr(geometry, attr)}
    assert set(geometry.ik_constants) <= stacked
    read = set()

    class Spy(batch._Legs):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    legs = Spy(robot)
    read.clear()
    theta = np.add.outer(np.linspace(0.0, TWO_PI, 100), TROT_PHASES)
    legs.ik(*batch.foot_targets(robot, np.ones(100), theta))
    assert stacked - read == set()


def math_calls(robot):
    """(function, elements) of each `_math` call, in call order, of one
    `_Legs.ik` over a nominal trot period of 100 targets per leg."""
    theta = np.add.outer(np.linspace(0.0, TWO_PI, 100), TROT_PHASES)
    targets = batch.foot_targets(robot, np.ones(100), theta)
    calls, real = [], batch._math

    def counting(fn, *arrays):
        calls.append((fn.__name__, arrays[0].size))
        return real(fn, *arrays)

    with mock.patch.object(batch, "_math", counting):
        batch._Legs(robot).ik(*targets)
    return calls


#: Doubles where libm is most often inexact or special: signed zeros and
#: infinities, NaN, subnormals, the smallest normal, and +-1 and 1 ulp each side.
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.0 ** -1030,
           -(2.0 ** -1022), 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
           math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0), 0.5, -0.7, 3.0, -1e300]

#: How `_Legs.ik` hands arrays to `_math`: as built, strided, fancy-indexed,
#: empty, and the abduction's y, its d broadcast to the targets' shape.
LAYOUTS = {
    "contiguous": lambda a, b: (a, b),
    "strided": lambda a, b: (a[:, ::2].T, b[:, ::2].T),
    "fancy": lambda a, b: (a[[5, 0, 5, 2]], b[[1, 3, 0, 0]]),
    "empty": lambda a, b: (a[:0], b[:0]),
    "broadcast": lambda a, b: (a, np.broadcast_to(b[0], a.shape)),
}


def element_by_element(fn, *arrays):
    values = [fn(*args) for args in zip(*(a.ravel().tolist() for a in arrays))]
    return np.array(values, dtype=float).reshape(arrays[0].shape)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("fn", [math.atan2, math.hypot, math.acos], ids=lambda fn: fn.__name__)
def test_math_equals_math_element_by_element(fn, layout):
    """`_math` gives `math`'s bits, element for element, whatever the layout."""
    values = [v for v in SPECIAL if fn is not math.acos or not abs(v) > 1.0]
    pairs = np.array([(a, b) for a in values for b in values]).reshape(len(values), -1, 2)
    a, b = LAYOUTS[layout](pairs[..., 0], pairs[..., 1])
    args = (b,) if fn is math.acos else (a, b)
    got, want = batch._math(fn, *args), element_by_element(fn, *args)
    assert got.shape == want.shape == args[0].shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_math_raises_where_math_does():
    for x in SPECIAL:
        if abs(x) > 1.0:   # acos is defined on [-1, 1] only
            with pytest.raises(ValueError, match="math domain error"):
                batch._math(math.acos, np.array([0.5, x]))


#: The sagittal chain's `_math` calls: the 3-DoF reach and knee, the 4-DoF
#: knee (no clamp projection on the nominal trot), then the hip and its wrap.
SAGITTAL_MATH = {3: ["hypot", "acos", "atan2", "atan2", "atan2"],
                 4: ["acos", "atan2", "atan2", "atan2"]}


@pytest.mark.parametrize("name, solved", [("Dog3", 2), ("A1", 2), ("Little Dog", 4)])
def test_sagittal_math_runs_once_per_twin_class(name, solved):
    robot = REG.get(name)
    calls = math_calls(robot)
    # the abduction's atan2(z, d) and acos(ratio) run on all four legs; its
    # wrap sees no element, as a trot's abduction angle is 0 up to rounding
    assert calls[:2] == [("atan2", 4 * 100), ("acos", 4 * 100)]
    assert calls[2:] == [(fn, solved * 100) for fn in SAGITTAL_MATH[robot.legs[0].dof]]


def nudged(robot, **rl):
    """`robot` with its RL leg (FR's twin) changed as `rl` says."""
    rl = dataclasses.replace(robot.legs[3], **rl)
    return dataclasses.replace(robot, legs=robot.legs[:3] + (rl,))


def wide(name, d=0.3):
    """The built-in `name` with every |abd_offset| = d.  A narrow leg's
    z_leg = -sqrt(rr - dd) rounds to -|z| whatever the low bits of d, so one
    step in d shows only on legs about as wide as they are tall."""
    robot = REG.get(name)
    return dataclasses.replace(robot, legs=tuple(
        dataclasses.replace(leg, abd_offset=math.copysign(d, leg.abd_offset))
        for leg in robot.legs))


A1_LINKS = REG.get("A1").legs[3].link_lengths


def registry_robot(dof, **fields):
    """A1's registry row at `dof` DoF (animal-like legs at 16), `fields` changed."""
    entry = {"name": "Edge", "height_cm": 30.0, "mass_kg": 12.0, "l_step_cm": 13.0,
             "l_clrnc_cm": 7.0, "l_pntr_cm": 1.0, "x_offset_cm": 0.0, "dof": dof,
             "morphology": 1 if dof == 12 else 3, "kp": 100.0, "kd": 2.7}
    return _descriptor_from_entry({**entry, **fields})


@pytest.mark.parametrize("dof", [12, 16])
@pytest.mark.parametrize("fields", [
    # swing targets up to +0.15 m: an abduction of about 2 atan(z / d), wrapped
    {"l_clrnc_cm": 45.0},
    # d = 0: the abduction's ratio behind its rr > 0 guard
    {"geometry": {"y_nominal": 0.0}}], ids=["high-swing", "no-abd-offset"])
def test_wide_abduction_equals_scalar(dof, fields):
    robot = registry_robot(dof, **fields)
    assert evaluate_batch(robot, CORNERS, HORIZON) == [
        substep_return(robot, mu, omega, HORIZON) for mu, omega in CORNERS]


@settings(max_examples=40, deadline=None)
@given(robot=drawn_robots(), commands=st.lists(COMMANDS, min_size=1, max_size=3),
       horizon=st.integers(1, 12))
@example(robot=nudged(wide("Dog3"), abd_offset=ulp(0.3)),
         commands=[(1.0, 2.5), (4.0, 5.0)], horizon=3)
@example(robot=nudged(REG.get("A1"), link_lengths=(ulp(A1_LINKS[0]), A1_LINKS[1])),
         commands=[(1.0, 2.5), (4.0, 5.0)], horizon=12)
@example(robot=nudged(REG.get("A1"), knee_config=ELBOW_DOWN), commands=[(1.0, 2.5)],
         horizon=12)
@example(robot=nudged(REG.get("Dog3"), hip_offset=(0.0, 0.1, 0.05)), commands=[(1.0, 2.5)],
         horizon=12)
def test_twin_sharing_equals_scalar(robot, commands, horizon):
    # the oracle shares no work between legs: env.step shares as the kernel does
    assert evaluate_batch(robot, commands, horizon) == [
        substep_return(robot, mu, omega, horizon) for mu, omega in commands]


def array_oscillator(r, r_dot, mu, theta_dot, theta, t):
    """t substeps of `advance` on (lane, ...) arrays, as `_episodes` runs a
    wide chunk: r, r_dot (t, N) and theta (t, N, 4) after each."""
    rs, rds, thetas = np.empty((t, len(r))), np.empty((t, len(r))), np.empty((t, *theta.shape))
    for k in range(t):
        r, r_dot, theta = batch.advance(r, r_dot, mu, theta_dot, theta)
        rs[k], rds[k], thetas[k] = r, r_dot, theta
    return rs, rds, thetas


def same_bits(got, want):
    return [a.tobytes() for a in got] == [np.ascontiguousarray(a).tobytes() for a in want]


#: Lanes that settle at different substeps from rest (2,184, 2,184, 2,159
#: and 2,167), at both ends of the command box, and one whose phases never move.
SETTLING = [(MU_MIN, 0.0), (MU_MAX, 5.0), (1.1, 2.5), (2.7, 1.3)]


@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
@pytest.mark.parametrize("tiles", [(3200,), (2160, 640, 400)], ids=["one", "three"])
def test_float_oscillator_equals_the_array_recurrence(lanes, tiles):
    """Bit for bit over 3,200 substeps from rest, past every lane's settle
    point, whether or not a tile boundary falls before it."""
    cmds = SETTLING[-lanes:]
    mu = np.array([m for m, _ in cmds])
    theta_dot = TWO_PI * np.array([w for _, w in cmds])[:, None]
    start = (np.zeros(lanes), np.zeros(lanes), np.array([TROT_PHASES] * lanes))
    want = array_oscillator(*start[:2], mu, theta_dot, start[2], sum(tiles))
    got, state = [], start
    for t in tiles:
        got.append(batch._oscillate(state[0], state[1], mu, theta_dot, state[2], t))
        state = [a[-1] for a in got[-1]]
    assert same_bits([np.concatenate(parts) for parts in zip(*got)], want)


@pytest.mark.parametrize("omega", [0.0, -0.0, 2.5])
def test_float_oscillator_keeps_each_start_phase(omega):
    """Legs that start apart stay apart, whatever their phases' signs of zero."""
    mu, theta_dot = np.array([2.0, 2.0]), np.array([[TWO_PI * omega]] * 2)
    theta = np.array([[0.0, -0.0, 1.0, TWO_PI - 1e-12], [3.0, 3.0, -0.0, 0.0]])
    r, r_dot = np.array([2.0, 0.5]), np.array([1e-14, -3.0])
    want = array_oscillator(r, r_dot, mu, theta_dot, theta, 50)
    assert same_bits(batch._oscillate(r, r_dot, mu, theta_dot, theta, 50), want)


def all_joint_lag(q, des, lag):
    """The joint lag of every leg and joint on arrays, as a wide chunk runs it."""
    out = np.empty_like(des)
    for k in range(len(des)):
        q = out[k] = q + (des[k] - q) * lag
    return out


def assert_twin_lag_equals_all_joints(robot, commands, t=3 * N_SUBSTEPS):
    env = QuadrupedEnv(robot)
    env.reset(initial_phases=TROT_PHASES)
    legs, n = batch._Legs(robot), len(commands)
    mu = np.array([c[0] for c in commands])
    theta_dot = TWO_PI * np.array([c[1] for c in commands])[:, None]
    rs, _, thetas = batch._oscillate(np.zeros(n), np.zeros(n), mu, theta_dot,
                                     np.array([TROT_PHASES] * n), t)
    des, _ = legs.ik(*batch.foot_targets(robot, rs, thetas))
    q = np.array([env.backend.joint_positions] * n, dtype=float)
    lag = env.backend.lag_factor
    assert same_bits([batch._lag(legs, q, des, lag)], [all_joint_lag(q, des, lag)])


@pytest.mark.parametrize("robot", list(REG), ids=REG.names())
def test_twin_class_lag_equals_every_joint(robot):
    assert_twin_lag_equals_all_joints(robot, [(1.0, 2.5), (4.0, 5.0)])


@settings(max_examples=20, deadline=None)
@given(robot=drawn_robots(), commands=st.lists(COMMANDS, min_size=1, max_size=4))
# FL and RR twins but not FR and RL: the one twin class that is not a prefix
@example(robot=nudged(REG.get("A1"), knee_config=ELBOW_DOWN), commands=[(1.0, 2.5)])
def test_twin_class_lag_equals_every_joint_on_drawn_robots(robot, commands):
    commands = [(min(max(m, MU_MIN), MU_MAX), min(max(w, OMEGA_MIN_HZ), OMEGA_MAX_HZ))
                for m, w in commands]
    assert_twin_lag_equals_all_joints(robot, commands)

"""Scripted command sources and a black-box search over constant commands.

Any callable mapping an Observation to a raw 8-vector can drive the
environment; `rollout.run_rollout` states that policy contract.  The
search is a desk-scale stand-in for policy optimization: it samples
constant (mu, omega) commands shared across limbs, with the phase
structure fixed to a trot.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Tuple

from .environment import QuadrupedEnv, check_horizon
from .oscillator import (MU_MAX, MU_MIN, OMEGA_MAX_HZ, OMEGA_MIN_HZ, TROT_PHASES,
                         check_command_box)
from .registry import RobotDescriptor


class ConstantCommandPolicy:
    """Emits the same in-limits command every step, trot phases at reset."""

    initial_phases = TROT_PHASES

    def __init__(self, mu: float, omega: float):
        self._action = (mu,) * 4 + (omega,) * 4

    def __call__(self, observation) -> Tuple[float, ...]:
        return self._action


def open_loop_trot(mu: float, omega: float) -> ConstantCommandPolicy:
    """Constant-command trot baseline.

    Out-of-limit arguments are rejected rather than clamped so baseline
    results always reflect the requested command.
    """
    check_command_box(mu, omega)
    return ConstantCommandPolicy(mu, omega)


def evaluate_constant_command(robot: RobotDescriptor, mu: float, omega: float,
                              horizon: int) -> float:
    """Episodic return of a constant command over `horizon` (>= 1) control steps.

    The plain `QuadrupedEnv.step` loop, on purpose: it is the reference that
    `batch.evaluate_batch` is checked against (tests/test_batch.py,
    tests/test_reduction_order.py, tests/interpreter_probe.py), so it does
    not run through the kernel."""
    check_horizon(horizon)
    env = QuadrupedEnv(robot)
    env.reset(initial_phases=TROT_PHASES)
    action = (mu,) * 4 + (omega,) * 4
    total = 0.0
    for _ in range(horizon):
        total += env.step(action)[1]
    return total


@dataclass
class SearchResult:
    """Outcome of a random search over the clamped command box."""

    best_mu: float
    best_omega: float
    best_return: float
    samples: List[Tuple[float, float, float]]  # (mu, omega, return)

    @property
    def best_so_far(self) -> List[float]:
        out, best = [], float("-inf")
        for _, _, ret in self.samples:
            best = max(best, ret)
            out.append(best)
        return out

    def to_json(self, path: str) -> None:
        doc = {
            "best": {"mu": self.best_mu, "omega": self.best_omega,
                     "return": self.best_return},
            "samples": [{"mu": m, "omega": o, "return": r}
                        for m, o, r in self.samples],
            "best_so_far": self.best_so_far,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def search_constant_command(robot: RobotDescriptor, budget: int, seed: int = 0,
                            horizon: int = 100) -> SearchResult:
    """Uniform random search over the (mu, omega) command box.

    Commands are shared across limbs, phases fixed to a trot.  All
    candidates are evaluated together by `evaluate_batch`, whose returns
    equal `evaluate_constant_command`'s bit for bit.  The argmax is
    deterministic for a given seed; ties break toward the lowest sample
    index, so evaluation order cannot change the result.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    from .batch import evaluate_batch   # numpy is imported here, on first use
    rng = random.Random(seed)
    candidates = [(rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
                  for _ in range(budget)]
    returns = evaluate_batch(robot, candidates, horizon)

    samples = [(mu, omega, ret) for (mu, omega), ret in zip(candidates, returns)]
    best_mu, best_omega, best_return = samples[returns.index(max(returns))]
    return SearchResult(best_mu, best_omega, best_return, samples)

"""The three workloads, their timed loop and their output checks.

Each workload is driven by one closed-loop caller in one process: the
next iteration (and inside it the next step or episode) starts only
after the previous one has returned.  Inputs are drawn from the
benchmark seed; the package only ever sees the drawn command or seed.

* ``rollout`` -- the CLI's ``rollout`` + ``plot`` pipeline on A1:
  ``run_rollout``, ``write_record_csv``, ``write_record_manifest``,
  ``read_record_csv`` and ``render_rollout_svg``.  An operation is a
  control step.
* ``search`` -- the CLI's ``search`` on Dog3 (4-DoF legs, where large
  amplitudes clamp IK): ``search_constant_command`` and
  ``SearchResult.to_json``.  An operation is an episode.
* ``traj`` -- the CLI's ``traj`` on A1: ``run_open_loop_trajectory`` and
  ``write_csv``, with no environment.  An operation is a sample row.

Output checks run between iterations, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import statistics
import sys
import time
import traceback
from array import array
from typing import NamedTuple

import reference

#: SHA-256 of the first iteration's output for the default seed.
GOLDEN = {
    "rollout": "7535b0de4e3c5cceb67ca63771ee95c995af11795cc66e8fb993b829a3dcb7c7",
    "search": "6332d7b40637643242eae9278556b618fa59729c39605fcf060800b805ca39a5",
    "traj": "b1b1f4bbe4b4144cdb648e39861853615a35bbefb4872c2a77cf6a8c6755255e",
}


@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Temporarily replace owner.attr (a module global or class attribute)."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class StepClock:
    """perf_counter gaps between consecutive 100 Hz periods of one episode."""

    def __init__(self):
        self.gaps = array("d")  # compact, so the harness adds little to peak RSS
        self._last = None

    def new_episode(self) -> None:
        self._last = None

    def tick(self) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.gaps.append(now - self._last)
        self._last = now


class Iteration(NamedTuple):
    output: object
    steps: int      # 100 Hz periods: control steps or trajectory rows
    episodes: int   # independent runs from a fresh start
    samples: int    # output records generated and written


class Tally:
    """Pass/fail counts and the worst observed value of each named check."""

    def __init__(self):
        self._checks = {}

    def add(self, name: str, ok: bool, worst: float = None) -> bool:
        entry = self._checks.setdefault(name, {"runs": 0, "fails": 0, "worst": None})
        entry["runs"] += 1
        entry["fails"] += 0 if ok else 1
        if worst is not None and (entry["worst"] is None or worst > entry["worst"]):
            entry["worst"] = worst
        return ok

    def results(self):
        out = []
        for name, e in self._checks.items():
            detail = f"{e['runs'] - e['fails']}/{e['runs']} passed"
            if e["worst"] is not None:
                detail += f", worst {e['worst']:.3g}"
            out.append((name, e["fails"] == 0, detail))
        return out


def _finite(row) -> bool:
    return all(math.isfinite(v) for v in row)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Shared state: the package, the input stream, the tallies."""

    name = ""
    robot_name = ""
    op_name = ""
    ops_per_iteration = 0

    def __init__(self, q, seed: int, work_dir: str, golden: bool):
        self.q = q
        self.rng = random.Random(seed)
        self.check_rng = random.Random(f"{self.name}-checks-{seed}")
        self.robot = q.registry.get_robot(self.robot_name)
        self.work_dir = work_dir
        self.golden = golden
        self.clock = StepClock()
        self.tally = Tally()
        self.notes = []
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self._iterations_checked = 0

    def path(self, filename: str) -> str:
        return os.path.join(self.work_dir, f"{self.name}-{filename}")

    def clocked(self):
        """Context in which self.clock ticks once per 100 Hz period."""
        return contextlib.nullcontext()

    def attempt(self, inp):
        """iterate(inp), or None when it raises: then all its operations fail."""
        try:
            it = self.iterate(inp)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            if not self.raised:
                traceback.print_exc(file=sys.stderr)
                self.notes.append(f"an iteration raised {exc!r}")
            self.raised += 1
            self._count(self.ops_per_iteration, 0, False)
            it = None
        self.tally.add(f"{self.name} iterations complete without raising", it is not None)
        return it

    def _count(self, n_ops: int, failed_ops: int, iteration_ok: bool) -> None:
        self.attempted += n_ops
        self.failed += failed_ops if iteration_ok else n_ops

    def _golden(self, digest: str) -> bool:
        """Compare the first iteration of the default seed with its digest."""
        first = self._iterations_checked == 0
        self._iterations_checked += 1
        if not (self.golden and first):
            return True
        ok = digest == GOLDEN[self.name]
        if not ok:
            print(f"golden digest mismatch for {self.name}: {digest}")
        return self.tally.add(f"golden SHA-256 of the first {self.name} output (seed 0)", ok)

    def finish(self):
        return self.tally.results()


class StampedTrot:
    """Constant trot command; ticks the step clock at every call."""

    def __init__(self, mu: float, omega: float, clock: StepClock, phases):
        self.initial_phases = phases
        self._action = (mu,) * 4 + (omega,) * 4
        self._clock = clock

    def __call__(self, observation):
        self._clock.tick()
        return self._action


class RolloutWorkload(Workload):
    name = "rollout"
    robot_name = "A1"
    op_name = "control step"

    DURATION_S = 10.0
    #: A box around the CLI default (1.0, 2.5) inside which A1 never
    #: clamps IK (it starts clamping near mu = 2.5).
    MU_RANGE = (0.8, 1.2)
    OMEGA_RANGE = (2.0, 3.0)
    SPEED_TOL = 0.03
    TRANSIENT_STEPS = 100
    ops_per_iteration = int(DURATION_S * 100)  # control steps at 100 Hz

    def draw(self):
        return (self.rng.uniform(*self.MU_RANGE), self.rng.uniform(*self.OMEGA_RANGE),
                self.rng.randrange(2 ** 31))

    def iterate(self, inp) -> Iteration:
        q = self.q
        mu, omega, env_seed = inp
        policy = StampedTrot(mu, omega, self.clock, q.oscillator.TROT_PHASES)
        self.clock.new_episode()
        record = q.rollout.run_rollout(self.robot, policy, self.DURATION_S, seed=env_seed)
        q.rollout.write_record_csv(record, self.path("record.csv"))
        q.rollout.write_record_manifest(record, self.path("record.json"))
        columns, rows = q.rollout.read_record_csv(self.path("record.csv"))
        svg = q.plotting.render_rollout_svg(columns, rows)
        with open(self.path("record.svg"), "w") as fh:
            fh.write(svg)
        return Iteration((record, columns, rows, svg), steps=len(record.rows), episodes=1,
                         samples=len(record.rows))

    def check(self, inp, it: Iteration) -> None:
        mu, omega, _ = inp
        record, columns, rows, svg = it.output
        tally = self.tally
        ix = {c: i for i, c in enumerate(record.columns)}
        n = len(record.rows)
        expected_steps = self.ops_per_iteration

        bad = set()
        i_f, i_o, i_p, i_t = (ix["reward_forward"], ix["reward_orientation"],
                              ix["reward_power"], ix["reward_total"])
        for k, row in enumerate(record.rows):
            if not _finite(row) or row[i_t] != row[i_f] + row[i_o] + row[i_p]:
                bad.add(k)
            elif k >= len(rows) or rows[k] != row:
                bad.add(k)
        tally.add("rollout rows finite, reward_total == sum of terms, CSV read-back "
                  "exact", not bad, worst=float(len(bad)))

        ok = tally.add(f"rollout of {expected_steps} steps, no early termination",
                       n == expected_steps and record.termination_step is None
                       and columns == record.columns and len(rows) == n)
        if n > self.TRANSIENT_STEPS:
            x, t = ix["base_x"], ix["t"]
            k1 = self.TRANSIENT_STEPS - 1
            speed = ((record.rows[-1][x] - record.rows[k1][x])
                     / (record.rows[-1][t] - record.rows[k1][t]))
            expected = 4.0 * self.robot.pf.l_step * mu * omega
            err = abs(speed - expected) / expected
        else:
            err = math.inf
        ok &= tally.add("speed after the 1 s transient within 3% of 4*L_step*mu*omega",
                        err <= self.SPEED_TOL, worst=err)
        ok &= tally.add("kinematics.ik.clamped_frac == 0 (A1 inside its workspace)",
                        record.workspace_violations == 0,
                        worst=record.workspace_violations / max(1, 40 * n))
        with open(self.path("record.json")) as fh:
            summary = json.load(fh)["summary"]
        ok &= tally.add("manifest summary matches the record",
                        summary["steps"] == n
                        and summary["workspace_violations"] == record.workspace_violations)
        ok &= tally.add("SVG has the three panels",
                        svg.startswith("<svg") and svg.count('<g id="panel-') == 3)
        ok &= self._golden(_sha256(self.path("record.csv")))
        self._count(n, len(bad), ok)


class SearchWorkload(Workload):
    name = "search"
    robot_name = "Dog3"
    op_name = "episode"

    BUDGET = 40
    HORIZON = 60
    #: Besides the argmax and the largest-mu sample, this many random
    #: samples per search are re-evaluated by the scalar oracle.
    N_RANDOM_ORACLE = 2
    ORACLE_RTOL = 1e-12
    ops_per_iteration = BUDGET

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle_ik_calls = 0
        self.oracle_clamped = 0

    def draw(self):
        return self.rng.randrange(2 ** 31)

    def clocked(self):
        env_cls = self.q.environment.QuadrupedEnv
        step = env_cls.step
        clock = self.clock
        current = [None]

        def stamped_step(env, action):
            if env is not current[0]:
                current[0] = env
                clock.new_episode()
            clock.tick()
            return step(env, action)

        return patched(env_cls, "step", stamped_step)

    def iterate(self, search_seed) -> Iteration:
        result = self.q.controllers.search_constant_command(
            self.robot, self.BUDGET, seed=search_seed, horizon=self.HORIZON)
        result.to_json(self.path("search.json"))
        # Episodes end early only when the robot falls, which the oracle
        # re-evaluations check never happens, so each runs HORIZON steps.
        n = len(result.samples)
        return Iteration(result, steps=n * self.HORIZON, episodes=n, samples=n)

    def oracle(self, mu: float, omega: float, seed: int):
        """(return, steps) of a plain QuadrupedEnv reset/step episode."""
        env = self.q.environment.QuadrupedEnv(self.robot)
        env.reset(seed=seed, initial_phases=self.q.oscillator.TROT_PHASES)
        action = (mu,) * 4 + (omega,) * 4
        total = 0.0
        steps = 0
        while steps < self.HORIZON:
            _, reward, done, info = env.step(action)
            total += reward
            steps += 1
            self.oracle_ik_calls += 4 * env.n_substeps
            self.oracle_clamped += info["workspace_violations"]
            if done:
                break
        return total, steps

    def check(self, search_seed, it: Iteration) -> None:
        result = it.output
        tally = self.tally
        samples = result.samples
        returns = [r for _, _, r in samples]
        bad = {i for i, r in enumerate(returns) if not math.isfinite(r)}
        tally.add("search returns finite", not bad, worst=float(len(bad)))

        ok = tally.add(f"search has {self.BUDGET} samples", len(samples) == self.BUDGET)
        if not samples:
            self._count(self.BUDGET, self.BUDGET, False)
            return
        best = max(range(len(returns)), key=lambda i: (returns[i], -i))
        ok &= tally.add("reported best is the first index of the max return",
                        (result.best_mu, result.best_omega, result.best_return)
                        == samples[best])
        with open(self.path("search.json")) as fh:
            doc = json.load(fh)
        ok &= tally.add("search JSON matches the result",
                        doc["best"] == {"mu": result.best_mu, "omega": result.best_omega,
                                        "return": result.best_return}
                        and len(doc["samples"]) == len(samples))

        largest_mu = max(range(len(samples)), key=lambda i: samples[i][0])
        picks = {best, largest_mu}
        picks.update(self.check_rng.sample(range(len(samples)),
                                           min(self.N_RANDOM_ORACLE, len(samples))))
        worst = 0.0
        full = True
        for i in sorted(picks):
            mu, omega, ret = samples[i]
            ref, steps = self.oracle(mu, omega, search_seed)
            err = abs(ret - ref) / abs(ref) if ref else abs(ret)
            worst = max(worst, err)
            full &= steps == self.HORIZON
            if not err <= self.ORACLE_RTOL:
                bad.add(i)
        tally.add("argmax and sampled returns match the scalar reset/step oracle "
                  "(rel 1e-12)", worst <= self.ORACLE_RTOL, worst=worst)
        ok &= tally.add(f"oracle episodes run the full horizon of {self.HORIZON} steps", full)

        digest = hashlib.sha256(
            f"{best} {result.best_mu!r} {result.best_omega!r}".encode()).hexdigest()
        ok &= self._golden(digest)
        self._count(len(samples), len(bad), ok)

    def finish(self):
        frac = self.oracle_clamped / max(1, self.oracle_ik_calls)
        if not self.tally.add("kinematics.ik.clamped_frac > 0 over oracle episodes "
                              "(Dog3 clamps at large mu)", frac > 0.0):
            self.failed = self.attempted
        self.notes.append(f"oracle episodes clamped {self.oracle_clamped} of "
                          f"{self.oracle_ik_calls} IK calls ({frac:.3f})")
        return super().finish()


class TrajWorkload(Workload):
    name = "traj"
    robot_name = "A1"
    op_name = "sample row"

    DURATION_S = 20.0
    AMPLITUDE_TOL = 1e-3
    ops_per_iteration = int(DURATION_S * 100)  # rows sampled at 100 Hz

    def draw(self):
        osc = self.q.oscillator
        return (self.rng.uniform(osc.MU_MIN, osc.MU_MAX),
                self.rng.uniform(osc.OMEGA_MIN_HZ, osc.OMEGA_MAX_HZ))

    def clocked(self):
        # run_open_loop_trajectory imports foot_target from its home module
        # at call time and calls it once per limb, at the end of each row;
        # the environment's binding is covered too, should the trajectory
        # come to reuse the environment's substep.
        target = self.q.foot_trajectory.foot_target
        clock = self.clock
        calls = [0]

        def stamped_target(state, params):
            if calls[0] % 4 == 0:
                clock.tick()
            calls[0] += 1
            return target(state, params)

        stack = contextlib.ExitStack()
        for module in (self.q.foot_trajectory, self.q.environment):
            stack.enter_context(patched(module, "foot_target", stamped_target))
        return stack

    def iterate(self, inp) -> Iteration:
        mu, omega = inp
        self.clock.new_episode()
        columns, rows = self.q.rollout.run_open_loop_trajectory(
            self.robot, mu, omega, self.DURATION_S)
        self.q.rollout.write_csv(columns, rows, self.path("traj.csv"))
        return Iteration((columns, rows), steps=len(rows), episodes=1, samples=len(rows))

    def check(self, inp, it: Iteration) -> None:
        mu, _ = inp
        columns, rows = it.output
        tally = self.tally
        alpha = self.q.oscillator.CpgConfig().alpha
        closed_form = self.q.oscillator.closed_form_amplitude
        read_columns, read_rows = self.q.rollout.read_record_csv(self.path("traj.csv"))
        ix_t = columns.index("t")
        ix_r = [columns.index(f"r_{leg}") for leg in ("fr", "fl", "rr", "rl")]

        bad = set()
        worst = 0.0
        for k, row in enumerate(rows):
            if not _finite(row) or k >= len(read_rows) or read_rows[k] != row:
                bad.add(k)
                continue
            exact = closed_form(mu, alpha, 0.0, 0.0, row[ix_t])
            err = max(abs(row[i] - exact) for i in ix_r)
            worst = max(worst, err)
            if err > self.AMPLITUDE_TOL:
                bad.add(k)
        tally.add("traj rows finite, CSV read-back exact, r within 1e-3 of "
                  "closed_form_amplitude", not bad, worst=worst)
        ok = tally.add(f"trajectory of {self.ops_per_iteration} rows",
                       len(rows) == self.ops_per_iteration and read_columns == columns
                       and len(read_rows) == len(rows))
        ok &= self._golden(_sha256(self.path("traj.csv")))
        self._count(len(rows), len(bad), ok)


WORKLOADS = {w.name: w for w in (RolloutWorkload, SearchWorkload, TrajWorkload)}


def run_timed(workload: Workload, seconds: float):
    """Run iterations untraced until `seconds` of measured time; metrics.

    Each iteration's rates and step gaps are normalised by the host
    slowdown timed just before and after it (see reference.py).  Rates are
    medians over iterations; latency percentiles are taken over the gaps
    of all iterations together.
    """
    import numpy as np

    clock = workload.clock
    rates = []   # steps/s, episodes/s, samples/s of each iteration, normalised
    raw_rates = []
    gaps = array("d")  # step gaps in us, normalised
    raw_gaps = array("d")
    slowdowns = []
    elapsed = 0.0
    attempts = 0
    while attempts == 0 or elapsed < seconds:
        inp = workload.draw()
        gaps0 = len(clock.gaps)
        before = reference.slowdown()
        with workload.clocked():
            t0 = time.perf_counter()
            it = workload.attempt(inp)
            wall = time.perf_counter() - t0
        slowdown = (before + reference.slowdown()) / 2.0
        elapsed += wall
        attempts += 1
        if it is None:
            continue
        # A program that no longer makes one call per period (a batched
        # kernel) leaves no gaps: its periods then last wall / steps.
        it_gaps = clock.gaps[gaps0:] or array("d", [wall / it.steps])
        del clock.gaps[gaps0:]
        raw_gaps.extend(g * 1e6 for g in it_gaps)
        gaps.extend(g * 1e6 / slowdown for g in it_gaps)
        it_rates = (it.steps / wall, it.episodes / wall, it.samples / wall)
        raw_rates.append(it_rates)
        rates.append(tuple(r * slowdown for r in it_rates))
        slowdowns.append(slowdown)
        workload.check(inp, it)
    if not rates:
        raise SystemExit(f"error: no {workload.name} iteration completed")

    def summary(rates, gaps):
        return ([statistics.median(col) for col in zip(*rates)]
                + [float(v) for v in np.percentile(np.frombuffer(gaps), [50, 99])])

    names = [("steps_per_s", "1/s"), ("episodes_per_s", "1/s"), ("samples_per_s", "1/s"),
             ("step_p50_us", "us"), ("step_p99_us", "us")]
    metrics = {name: (value, unit)
               for (name, unit), value in zip(names, summary(rates, gaps))}
    n_gaps = len(gaps)
    notes = [
        f"{len(rates)} iterations, {elapsed:.3f} s measured; rates are medians over "
        "iterations, export included",
        f"times normalised to the nominal host; host slowdown median "
        f"{statistics.median(slowdowns):.3f} (range {min(slowdowns):.3f}-"
        f"{max(slowdowns):.3f}); as measured: " + ", ".join(
            f"{name} {value:.6g} {unit}"
            for (name, unit), value in zip(names, summary(raw_rates, raw_gaps))),
        f"step latency from {n_gaps} gaps between 100 Hz periods "
        f"({int(n_gaps * 0.01)} above p99)",
        "closed loop, one caller: the next step, episode or iteration starts when "
        "the previous one returns",
    ]
    return metrics, notes

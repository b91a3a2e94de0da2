"""Traced run: spans around every layer's entry points, per-layer metrics.

Spans are recorded from the benchmark's own code by replacing each
entry point where its caller looks it up, for the duration of a traced
iteration only:

* ``environment`` binds ``step_oscillator``, ``foot_target``,
  ``fk_all_feet``, ``clamp_command``, ``compute_reward`` and
  ``build_observation`` at module level; they are wrapped there.
* ``QuadrupedEnv.__init__`` copies ``_solve_3dof``/``_solve_4dof`` (the
  solvers behind ``ik_leg_clamped``) into ``self._solvers``, so those are
  wrapped in ``environment`` before any traced env is constructed.
* ``run_open_loop_trajectory`` imports ``step_oscillator`` and
  ``foot_target`` inside the function, so they are also wrapped in their
  home modules.
* ``KinematicBackend.advance``, ``QuadrupedEnv.__init__/reset/step``,
  ``evaluate_constant_command``, ``search_constant_command``,
  ``SearchResult.to_json``, ``run_rollout``, ``run_open_loop_trajectory``,
  the CSV writers and reader, the manifest writer and
  ``render_rollout_svg`` complete the set.

Each span records its name, start, end and parent in flat arrays that
stay in memory; they are written to one ``.npz`` file at the end.  A
span's self time is its duration minus its children's.

Every traced iteration is paired with an untraced run of the same
inputs (alternating which goes first), which gives the tracing overhead.
The first calls of the hot functions keep a copy of their arguments;
after the loop those calls are replayed untraced to give per-call times
free of wrapper overhead, next to the traced ones.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from array import array
from types import SimpleNamespace

from workloads import patched

ITER = "bench.iteration"
OSC = "oscillator.step"
CLAMP = "oscillator.clamp_command"
FOOT = "foot_trajectory.foot_target"
IK3 = "kinematics.ik_3dof"
IK4 = "kinematics.ik_4dof"
FK = "kinematics.fk_all_feet"
ADVANCE = "environment.backend_advance"
OBS = "environment.build_observation"
REWARD = "environment.compute_reward"
STEP = "environment.step"
INIT = "environment.init"
RESET = "environment.reset"
EVALUATE = "controllers.evaluate"
SEARCH = "controllers.search"
TO_JSON = "controllers.to_json"
ROLLOUT = "rollout.run_rollout"
TRAJ = "rollout.run_open_loop_trajectory"
WRITE_CSV = "rollout.write_csv"
MANIFEST = "rollout.write_manifest"
READ_CSV = "rollout.read_csv"
SVG = "plotting.render_svg"

#: Calls per function whose arguments are kept for the replay.
CAPTURE_LIMIT = 2000
REPLAY_REPEATS = 5


class Tracer:
    """Flat in-memory span store; parent -1 marks a root span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.missing = set()
        self.counters = {"ik_clamped": 0, "info_violations": 0,
                         "csv_bytes": 0, "csv_writes": 0}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None, capture=None):
        """fn wrapped to record a span; post(args, result) runs after it."""
        nid = self.intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if capture is not None:
                capture(args)
            if post is not None:
                post(args, result)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np
        np.savez(path, names=np.asarray(self.names), name_id=np.frombuffer(
            self.name_id, dtype=np.uint16), parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


class Capture:
    """Copies of the first CAPTURE_LIMIT argument tuples of each hot call."""

    def __init__(self, q):
        self.q = q
        self.calls = {}

    def keeper(self, key, copy):
        store = self.calls.setdefault(key, [])

        def keep(args):
            if len(store) < CAPTURE_LIMIT:
                store.append(copy(args))

        return keep

    def ik(self, args):
        geom, x, y, z = args
        store = self.calls.setdefault(f"ik{geom.dof}", [])
        if len(store) < CAPTURE_LIMIT:
            store.append((geom, self.q.foot_trajectory.FootTarget(x, y, z)))

    def table(self, args):
        store = self.calls.setdefault("csv", [])
        if not store:
            if len(args) == 2:  # write_record_csv(record, path)
                store.append((args[0].columns, args[0].rows))
            else:               # write_csv(columns, rows, path)
                store.append((args[0], args[1]))


def _copy_fk(args):
    robot, q_all = args
    return robot, [list(q) for q in q_all]


def _copy_reward(args):
    f_x, d_max, o_base, tau, qdot, qdot_prev = args
    return f_x, d_max, tuple(o_base), list(tau), list(qdot), list(qdot_prev)


def _copy_observation(args):
    robot, backend, cpg, prev_action = args
    snapshot = SimpleNamespace(
        joint_positions=[list(q) for q in backend.joint_positions],
        base_rpy=backend.base_rpy, base_lin_vel=backend.base_lin_vel,
        base_ang_vel=backend.base_ang_vel, foot_contacts=backend.foot_contacts)
    return robot, snapshot, list(cpg), prev_action


@contextlib.contextmanager
def installed(q, tracer: Tracer, capture: Capture):
    """Every entry point of the span list wrapped, for one traced iteration."""
    env, counters = q.environment, tracer.counters

    def ik_post(args, result):
        if result[1]:
            counters["ik_clamped"] += 1

    def step_post(args, result):
        counters["info_violations"] += result[3]["workspace_violations"]

    def csv_post(args, result):
        counters["csv_bytes"] += os.path.getsize(args[-1])
        counters["csv_writes"] += 1

    keep_osc = capture.keeper("osc", tuple)
    keep_foot = capture.keeper("foot", tuple)
    entries = [
        (env, "step_oscillator", OSC, None, keep_osc),
        (q.oscillator, "step_oscillator", OSC, None, keep_osc),
        (env, "foot_target", FOOT, None, keep_foot),
        (q.foot_trajectory, "foot_target", FOOT, None, keep_foot),
        (env, "clamp_command", CLAMP, None, None),
        (env, "fk_all_feet", FK, None, capture.keeper("fk", _copy_fk)),
        (env, "_solve_3dof", IK3, ik_post, capture.ik),
        (env, "_solve_4dof", IK4, ik_post, capture.ik),
        (env, "compute_reward", REWARD, None, capture.keeper("reward", _copy_reward)),
        (env, "build_observation", OBS, None, capture.keeper("obs", _copy_observation)),
        (env.KinematicBackend, "advance", ADVANCE, None, None),
        (env.QuadrupedEnv, "__init__", INIT, None, None),
        (env.QuadrupedEnv, "reset", RESET, None, None),
        (env.QuadrupedEnv, "step", STEP, step_post, None),
        (q.controllers, "evaluate_constant_command", EVALUATE, None, None),
        (q.controllers, "search_constant_command", SEARCH, None, None),
        (q.controllers.SearchResult, "to_json", TO_JSON, None, None),
        (q.rollout, "run_rollout", ROLLOUT, None, None),
        (q.rollout, "run_open_loop_trajectory", TRAJ, None, None),
        (q.rollout, "write_csv", WRITE_CSV, csv_post, capture.table),
        (q.rollout, "write_record_csv", WRITE_CSV, csv_post, capture.table),
        (q.rollout, "write_record_manifest", MANIFEST, None, None),
        (q.rollout, "read_record_csv", READ_CSV, None, None),
        (q.plotting, "render_rollout_svg", SVG, None, None),
    ]
    with contextlib.ExitStack() as stack:
        for owner, attr, name, post, keep in entries:
            fn = getattr(owner, attr, None)
            if fn is None:  # an entry point this version of the program lacks
                tracer.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            stack.enter_context(patched(owner, attr, tracer.wrap(name, fn, post, keep)))
        yield


def analyse(tracer: Tracer, n_iterations: int) -> dict:
    """Per-layer metrics from the spans of n_iterations traced iterations."""
    import numpy as np

    name = np.frombuffer(tracer.name_id, dtype=np.uint16)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child

    def mask(*names):
        ids = [tracer._ids[n] for n in names if n in tracer._ids]
        return np.isin(name, ids)

    def count(*names):
        return int(mask(*names).sum())

    def per_call(values, *names):
        m = mask(*names)
        n = int(m.sum())
        return float(values[m].sum()) / n if n else 0.0

    def under(m, ancestor):
        """Which spans selected by m have `ancestor` on their parent chain."""
        aid = tracer._ids.get(ancestor)
        idx = np.flatnonzero(m)
        hit = np.zeros(len(idx), dtype=bool)
        anc = parent[idx]
        while aid is not None and (anc >= 0).any():
            valid = anc >= 0
            hit[valid] |= name[anc[valid]] == aid
            anc = np.where(valid, parent[np.maximum(anc, 0)], -1)
        return int(hit.sum())

    steps = count(STEP)
    ik_calls = count(IK3, IK4)
    c = tracer.counters
    rollout_steps = under(mask(STEP), ROLLOUT)
    traj_rows = count(FOOT) // 4 if count(TRAJ) else 0
    write_s = float(dur[mask(WRITE_CSV)].sum())
    per_iter = 1.0 / n_iterations
    return {
        "oscillator.step.calls": (count(OSC) * per_iter, "count"),
        "oscillator.step.us_per_call": (per_call(dur, OSC) * 1e6, "us"),
        "oscillator.clamp_command.us_per_call": (per_call(dur, CLAMP) * 1e6, "us"),
        "foot_trajectory.foot_target.calls": (count(FOOT) * per_iter, "count"),
        "foot_trajectory.foot_target.us_per_call": (per_call(dur, FOOT) * 1e6, "us"),
        "kinematics.ik.calls": (ik_calls * per_iter, "count"),
        "kinematics.ik.us_per_call": (per_call(dur, IK3, IK4) * 1e6, "us"),
        "kinematics.ik.clamped_frac": (
            c["info_violations"] / ik_calls if ik_calls else 0.0, "ratio"),
        "kinematics.fk_all_feet.calls_per_step": (
            under(mask(FK), STEP) / steps if steps else 0.0, "count"),
        "kinematics.fk_all_feet.us_per_call": (per_call(dur, FK) * 1e6, "us"),
        "environment.step.calls": (steps * per_iter, "count"),
        "environment.step.self_us": (per_call(self_time, STEP) * 1e6, "us"),
        "environment.backend_advance.self_us": (per_call(self_time, ADVANCE) * 1e6, "us"),
        "environment.build_observation.us_per_call": (per_call(dur, OBS) * 1e6, "us"),
        "environment.compute_reward.us_per_call": (per_call(dur, REWARD) * 1e6, "us"),
        "environment.init_reset.us_per_call": (
            float(dur[mask(INIT, RESET)].sum()) / count(INIT) * 1e6
            if count(INIT) else 0.0, "us"),
        "controllers.evaluate.ms_per_episode": (per_call(dur, EVALUATE) * 1e3, "ms"),
        "rollout.record.self_us_per_step": (
            float(self_time[mask(ROLLOUT)].sum()) / rollout_steps * 1e6
            if rollout_steps else 0.0, "us"),
        "rollout.traj.self_us_per_row": (
            float(self_time[mask(TRAJ)].sum()) / traj_rows * 1e6 if traj_rows else 0.0,
            "us"),
        "rollout.write_csv.s": (per_call(dur, WRITE_CSV), "s"),
        "rollout.write_csv.mb_per_s": (
            c["csv_bytes"] / write_s / 1e6 if write_s else 0.0, "MB/s"),
        "rollout.csv_bytes": (
            c["csv_bytes"] / c["csv_writes"] if c["csv_writes"] else 0.0, "bytes"),
        "rollout.read_csv.s": (per_call(dur, READ_CSV), "s"),
        "plotting.render_svg.s": (per_call(dur, SVG), "s"),
    }


def replay(q, capture: Capture, path: str) -> dict:
    """Untraced per-call time of each captured call, median of repeats."""

    def per_call_us(fn, calls):
        if fn is None or not calls:
            return 0.0
        runs = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            for args in calls:
                fn(*args)
            runs.append((time.perf_counter() - t0) / len(calls) * 1e6)
        return statistics.median(runs)

    calls = capture.calls
    csv_us = 0.0
    if calls.get("csv"):
        columns, rows = calls["csv"][0]
        runs = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            q.rollout.write_csv(columns, rows, path)
            runs.append((time.perf_counter() - t0) / len(rows) * 1e6)
        csv_us = statistics.median(runs)
    ik = getattr(q.kinematics, "ik_leg_clamped", None)
    return {
        "oscillator.step.replay_us_per_call": (
            per_call_us(q.oscillator.step_oscillator, calls.get("osc")), "us"),
        "foot_trajectory.foot_target.replay_us_per_call": (
            per_call_us(q.foot_trajectory.foot_target, calls.get("foot")), "us"),
        "kinematics.ik_leg_clamped_3dof.replay_us_per_call": (
            per_call_us(ik, calls.get("ik3")), "us"),
        "kinematics.ik_leg_clamped_4dof.replay_us_per_call": (
            per_call_us(ik, calls.get("ik4")), "us"),
        "kinematics.fk_all_feet.replay_us_per_call": (
            per_call_us(q.kinematics.fk_all_feet, calls.get("fk")), "us"),
        "environment.compute_reward.replay_us_per_call": (
            per_call_us(q.environment.compute_reward, calls.get("reward")), "us"),
        "environment.build_observation.replay_us_per_call": (
            per_call_us(q.environment.build_observation, calls.get("obs")), "us"),
        "rollout.write_csv.replay_us_per_row": (csv_us, "us"),
    }


def run_traced(q, workload, seconds: float, probes: dict, spans_path: str):
    """Paired untraced/traced iterations for `seconds`; per-layer metrics."""
    tracer = Tracer()
    capture = Capture(q)
    ratios = []
    elapsed = 0.0
    iterate = tracer.wrap(ITER, workload.attempt)

    def untraced(inp):
        t0 = time.perf_counter()
        it = workload.attempt(inp)
        return it, time.perf_counter() - t0

    def traced(inp):
        with installed(q, tracer, capture):
            t0 = time.perf_counter()
            it = iterate(inp)
            return it, time.perf_counter() - t0

    pairs = 0
    while pairs == 0 or elapsed < seconds:
        inp = workload.draw()
        order = (untraced, traced) if pairs % 2 == 0 else (traced, untraced)
        walls = {}
        for run in order:
            it, wall = run(inp)
            elapsed += wall
            if it is not None:
                walls[run] = wall
                workload.check(inp, it)
        if len(walls) == 2:
            ratios.append(walls[traced] / walls[untraced])
        pairs += 1
    if not ratios:
        raise SystemExit(f"error: no {workload.name} iteration completed")

    n = pairs
    counters = tracer.counters
    workload.tally.add("IK clamps seen by the solver wrappers equal the sum of "
                       "info['workspace_violations']",
                       counters["ik_clamped"] == counters["info_violations"])
    metrics = analyse(tracer, n)
    metrics.update(replay(q, capture, os.path.join(workload.work_dir, "replay.csv")))
    metrics["registry.load.ms"] = (probes["registry_load_ms"], "ms")
    metrics["registry.get_robot.us"] = (probes["registry_get_robot_us"], "us")
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    tracer.save(spans_path)
    notes = [
        f"{n} traced iterations, each paired with an untraced one; "
        f"{len(tracer.start)} spans written to {os.path.basename(spans_path)}",
        ".calls metrics are per traced iteration; per-call times are inclusive "
        "unless named self_, and as measured (not normalised to the nominal host)",
        "replay_* metrics time the first captured calls again with no wrapper",
        "a metric of a layer the workload does not call reads 0",
    ]
    if tracer.missing:
        notes.append("not traced, absent from the program: " + ", ".join(sorted(tracer.missing)))
    return metrics, notes

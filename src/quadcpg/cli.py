"""Command-line front end.

Subcommands: robots, traj, rollout, search, plot.  Exit codes: 0 on
success, 1 for runtime errors, 2 for configuration/parse errors.  The
default registry file can also be set through QUADCPG_REGISTRY.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import controllers, plotting, rollout
from .registry import Registry, RegistryError, UnknownRobotError, load_registry

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _registry(args) -> Registry:
    path = args.registry or os.environ.get("QUADCPG_REGISTRY")
    try:
        return load_registry(path)
    except RegistryError as exc:
        raise CliError(f"registry error: {exc}", EXIT_CONFIG) from None


def _robot(args, registry: Registry):
    try:
        return registry.get(args.robot)
    except UnknownRobotError as exc:
        raise CliError(str(exc.args[0]), EXIT_CONFIG) from None


def cmd_robots(args) -> int:
    registry = _registry(args)
    header = (f"{'name':<14} {'mass[kg]':>9} {'height[m]':>10} "
              f"{'DoF':>4} {'morphology':<26} {'Kp':>7} {'Kd':>6}")
    print(header)
    print("-" * len(header))
    for r in registry:
        print(f"{r.name:<14} {r.mass:>9.1f} {r.height_nominal:>10.3f} "
              f"{r.dof_total:>4} {r.morphology:<26} {r.kp:>7.1f} {r.kd:>6.1f}")
    return EXIT_OK


def cmd_traj(args) -> int:
    registry = _registry(args)
    robot = _robot(args, registry)
    try:
        columns, rows = rollout.run_open_loop_trajectory(
            robot, args.mu, args.omega, args.duration)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    _write_table(columns, rows, args.out)
    print(f"wrote {len(rows)} samples to {args.out}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    registry = _registry(args)
    robot = _robot(args, registry)
    try:
        policy = controllers.open_loop_trot(args.mu, args.omega)
        record = rollout.run_rollout(robot, policy, args.duration, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    _write_record(record, args.out)
    summary = record.manifest()["summary"]
    terms = [record.column_mean(c) for c in
             ("reward_forward", "reward_orientation", "reward_power")]
    line = (f"{robot.name}: steps={summary['steps']} "
            f"mean_velocity={summary['mean_velocity']:.3f} m/s "
            f"mean_reward={summary['mean_reward']:.4f} "
            f"(forward={terms[0]:.4f} orientation={terms[1]:.4f} "
            f"power={terms[2]:.6f})")
    if record.termination_step is not None:
        line += f" terminated_early_at_step={record.termination_step}"
    print(line)
    return EXIT_OK


def cmd_search(args) -> int:
    registry = _registry(args)
    robot = _robot(args, registry)
    try:
        result = controllers.search_constant_command(
            robot, args.budget, seed=args.seed, horizon=args.horizon)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    try:
        result.to_json(args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out!r}: {exc}", EXIT_RUNTIME) from None
    print(f"best mu={result.best_mu:.4f} omega={result.best_omega:.4f} Hz "
          f"return={result.best_return:.4f} over {args.budget} samples")
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        columns, rows = rollout.read_record_csv(args.record)
        svg = plotting.render_rollout_svg(columns, rows)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot plot {args.record!r}: {exc}", EXIT_CONFIG) from None
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliError(f"cannot write {args.out!r}: {exc}", EXIT_RUNTIME) from None
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_table(columns, rows, path: str) -> None:
    try:
        rollout.write_csv(columns, rows, path)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}", EXIT_RUNTIME) from None


def _write_record(record, path: str) -> None:
    manifest_path = os.path.splitext(path)[0] + ".json"
    try:
        rollout.write_record_csv(record, path)
        rollout.write_record_manifest(record, manifest_path)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}", EXIT_RUNTIME) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcpg",
        description="Quadruped CPG gait generation: trajectories, rollouts, search.")
    parser.add_argument("--registry", default=None,
                        help="path to a YAML registry file merged over the built-ins")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("robots", help="list all robots in the registry")

    p = sub.add_parser("traj", help="export an open-loop foot-trajectory CSV")
    p.add_argument("--robot", required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.5)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rollout", help="run an open-loop trot rollout")
    p.add_argument("--robot", required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.5)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="CSV output path; the JSON manifest goes next to it")

    p = sub.add_parser("search", help="random search over constant commands")
    p.add_argument("--robot", required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--horizon", type=int, default=100,
                   help="episode length in control steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON output path")

    p = sub.add_parser("plot", help="render a rollout CSV as a 3-panel SVG")
    p.add_argument("--record", required=True, help="rollout CSV input")
    p.add_argument("--out", required=True, help="SVG output path")

    return parser


_COMMANDS = {
    "robots": cmd_robots,
    "traj": cmd_traj,
    "rollout": cmd_rollout,
    "search": cmd_search,
    "plot": cmd_plot,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

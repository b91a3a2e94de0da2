"""Command-line front end.

Subcommands: robots, traj, rollout, search, plot.  The default registry
file can also be set through QUADCPG_REGISTRY.  Each command returns its
summary text and ``main`` prints it.  ``main`` alone turns an exception
into an ``error:`` line and an exit code: 0 on success; 2 for bad input (a
``ValueError``, which includes a ``RegistryError``, or an unknown robot);
1 for a failed write of ``--out`` (``OSError``), a failed print of the
summary or any other error.
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


def _registry(args) -> Registry:
    return load_registry(args.registry or os.environ.get("QUADCPG_REGISTRY"))


def cmd_robots(args) -> str:
    registry = _registry(args)
    header = (f"{'name':<14} {'mass[kg]':>9} {'height[m]':>10} "
              f"{'DoF':>4} {'morphology':<26} {'Kp':>7} {'Kd':>6}")
    return "\n".join([header, "-" * len(header)] + [
        f"{r.name:<14} {r.mass:>9.1f} {r.height_nominal:>10.3f} "
        f"{r.dof_total:>4} {r.morphology:<26} {r.kp:>7.1f} {r.kd:>6.1f}"
        for r in registry])


def cmd_traj(args) -> str:
    columns, rows = rollout.run_open_loop_trajectory(
        _registry(args).get(args.robot), args.mu, args.omega, args.duration)
    rollout.write_csv(columns, rows, args.out)
    return f"wrote {len(rows)} samples to {args.out}"


def cmd_rollout(args) -> str:
    robot = _registry(args).get(args.robot)
    policy = controllers.open_loop_trot(args.mu, args.omega)
    record = rollout.run_rollout(robot, policy, args.duration, seed=args.seed)
    rollout.write_record_csv(record, args.out)
    rollout.write_record_manifest(record, os.path.splitext(args.out)[0] + ".json")
    summary = record.manifest()["summary"]
    terms = [record.column_mean(c) for c in
             ("reward_forward", "reward_orientation", "reward_power")]
    return (f"{robot.name}: steps={summary['steps']} "
            f"mean_velocity={summary['mean_velocity']:.3f} m/s "
            f"mean_reward={summary['mean_reward']:.4f} "
            f"(forward={terms[0]:.4f} orientation={terms[1]:.4f} "
            f"power={terms[2]:.6f})")


def cmd_search(args) -> str:
    result = controllers.search_constant_command(
        _registry(args).get(args.robot), args.budget, seed=args.seed, horizon=args.horizon)
    result.to_json(args.out)
    return (f"best mu={result.best_mu:.4f} omega={result.best_omega:.4f} Hz "
            f"return={result.best_return:.4f} over {args.budget} samples")


def cmd_plot(args) -> str:
    try:
        columns, rows = rollout.read_record_csv(args.record)
        svg = plotting.render_rollout_svg(columns, rows)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot plot {args.record!r}: {exc}") from None
    with open(args.out, "w") as fh:
        fh.write(svg)
    return f"wrote {args.out}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcpg",
        description="Quadruped CPG gait generation: trajectories, rollouts, search.")
    parser.add_argument("--registry", default=None,
                        help="path to a YAML registry file merged over the built-ins")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("robots", help="list all robots in the registry").set_defaults(run=cmd_robots)

    p = sub.add_parser("traj", help="export an open-loop foot-trajectory CSV")
    p.add_argument("--robot", required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.5)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_traj)

    p = sub.add_parser("rollout", help="run an open-loop trot rollout")
    p.add_argument("--robot", required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.5)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="CSV output path; the JSON manifest goes next to it")
    p.set_defaults(run=cmd_rollout)

    p = sub.add_parser("search", help="random search over constant commands")
    p.add_argument("--robot", required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--horizon", type=int, default=100,
                   help="episode length in control steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("plot", help="render a rollout CSV as a 3-panel SVG")
    p.add_argument("--record", required=True, help="rollout CSV input")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(run=cmd_plot)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = args.run(args)
    except OSError as exc:   # reads raise ValueError, so this is a failed write
        message, code = f"cannot write {args.out!r}: {exc}", EXIT_RUNTIME
    except RegistryError as exc:
        message, code = f"registry error: {exc}", EXIT_CONFIG
    except UnknownRobotError as exc:
        message, code = exc.args[0], EXIT_CONFIG
    except ValueError as exc:
        message, code = str(exc), EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        message, code = str(exc), EXIT_RUNTIME
    else:
        try:
            print(summary)
            return EXIT_OK
        except OSError as exc:   # stdout failed, not the file the command wrote
            message, code = str(exc), EXIT_RUNTIME
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

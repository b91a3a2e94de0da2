"""Morphology-agnostic quadruped gait generation.

CPG rhythm generation, pattern-formation foot trajectories, analytical
inverse kinematics for three leg morphologies, and a fixed-size
locomotion MDP over a deterministic kinematic world model.
"""

from .environment import (ACTION_SIZE, OBSERVATION_SIZE, KinematicBackend,
                          NonFiniteStateError, Observation, QuadrupedEnv, RewardTerms,
                          build_observation, compute_reward)
from .foot_trajectory import FootTarget, PfParams, foot_target
from .kinematics import LegGeometry, OutOfWorkspaceError, fk_all_feet, fk_leg, ik_leg
from .oscillator import (TROT_PHASES, CpgCommand, CpgConfig, InvalidCommandError,
                         OscillatorState, clamp_command, closed_form_amplitude,
                         init_cpg, step_oscillator)
from .registry import (Registry, RegistryError, RobotDescriptor, UnknownRobotError,
                       builtin_registry, get_robot, load_registry, save_registry)
from .controllers import (ConstantCommandPolicy, SearchResult,
                          evaluate_constant_command, open_loop_trot,
                          search_constant_command)
from .rollout import (RolloutRecord, read_record_csv, run_open_loop_trajectory,
                      run_rollout, write_record_csv, write_record_manifest)

__version__ = "0.1.0"

__all__ = [
    "ACTION_SIZE", "OBSERVATION_SIZE", "CpgCommand", "CpgConfig",
    "ConstantCommandPolicy", "FootTarget", "InvalidCommandError",
    "KinematicBackend", "LegGeometry", "NonFiniteStateError", "Observation",
    "OscillatorState",
    "OutOfWorkspaceError", "PfParams", "QuadrupedEnv", "Registry", "RegistryError",
    "RewardTerms", "RobotDescriptor", "RolloutRecord", "SearchResult",
    "TROT_PHASES", "UnknownRobotError", "build_observation", "builtin_registry",
    "clamp_command", "closed_form_amplitude", "compute_reward", "evaluate_batch",
    "evaluate_constant_command", "fk_all_feet", "fk_leg", "foot_target",
    "get_robot", "ik_leg", "init_cpg", "load_registry", "open_loop_trot",
    "read_record_csv", "run_open_loop_trajectory", "run_rollout", "save_registry",
    "search_constant_command", "step_oscillator", "write_record_csv",
    "write_record_manifest",
]


def __getattr__(name):
    # evaluate_batch is the one export that needs numpy: import it on first use
    if name == "evaluate_batch":
        from .batch import evaluate_batch
        return evaluate_batch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

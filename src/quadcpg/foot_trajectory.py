"""Pattern-formation layer: oscillator state to task-space foot targets.

The sagittal foot position oscillates around a set-point with the stride
gated by the oscillator amplitude; the vertical position switches between
a swing arc (ground clearance) and a stance arc (ground penetration) on
the sign of sin(theta):

    x = x_off - L_step * r * cos(theta)
    z = z_off - h + L_clrnc * sin(theta)   if sin(theta) > 0   (swing)
    z = z_off - h + L_pntr  * sin(theta)   otherwise           (stance)

Both branches meet at z_off - h when sin(theta) = 0, so z is continuous.
The lateral coordinate is held at a fixed nominal offset; lateral motion
is out of scope for this trajectory generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, TYPE_CHECKING

from .oscillator import OscillatorState

if TYPE_CHECKING:
    from .registry import RobotDescriptor


class FootTarget(NamedTuple):
    """Foot position in the hip frame: x forward, y lateral, z up (m)."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class PfParams:
    """Per-robot trajectory shaping parameters, SI meters."""

    h: float          # nominal body height
    l_step: float     # nominal step length
    l_clrnc: float    # max swing ground clearance
    l_pntr: float     # max stance ground penetration
    x_off: float = 0.0      # sagittal oscillation set-point
    z_off: float = 0.0      # vertical set-point
    y_nominal: float = 0.0  # lateral foot offset in the hip frame (signed)

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        for name in ("l_step", "l_clrnc", "l_pntr"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def foot_target(state: OscillatorState, params: PfParams) -> FootTarget:
    """Map one oscillator state to the desired foot position."""
    s = math.sin(state.theta)
    x = params.x_off - params.l_step * state.r * math.cos(state.theta)
    if s > 0.0:
        z = params.z_off - params.h + params.l_clrnc * s
    else:
        z = params.z_off - params.h + params.l_pntr * s
    return FootTarget(x, params.y_nominal, z)


def leg_pf_params(robot: "RobotDescriptor"):
    """Per-leg PfParams: the robot's shape, each leg's signed lateral offset."""
    return tuple(replace(robot.pf, y_nominal=leg.abd_offset) for leg in robot.legs)

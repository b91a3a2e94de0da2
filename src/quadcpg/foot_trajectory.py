"""Pattern-formation layer: oscillator state to task-space foot targets.

The sagittal foot position oscillates around a set-point with the stride
gated by the oscillator amplitude; the vertical position switches between
a swing arc (ground clearance) and a stance arc (ground penetration) on
the sign of sin(theta):

    x = x_off - L_step * r * cos(theta)
    z = z_off - h + L_clrnc * sin(theta)   if sin(theta) > 0   (swing)
    z = z_off - h + L_pntr  * sin(theta)   otherwise           (stance)

Both branches meet at z_off - h when sin(theta) = 0, so z is continuous.
The stride shape is per robot, shared by its four legs.  The lateral
coordinate is the leg's abduction offset (`LegGeometry.abd_offset`), held
fixed; lateral motion is out of scope for this trajectory generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .oscillator import OscillatorState


class FootTarget(NamedTuple):
    """Foot position in the hip frame: x forward, y lateral, z up (m)."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class PfParams:
    """One robot's stride shape, shared by its four legs, SI meters."""

    h: float          # nominal body height
    l_step: float     # nominal step length
    l_clrnc: float    # max swing ground clearance
    l_pntr: float     # max stance ground penetration
    x_off: float = 0.0   # sagittal oscillation set-point
    z_off: float = 0.0   # vertical set-point

    def __post_init__(self):
        for name in ("h", "l_step", "l_clrnc", "l_pntr", "x_off", "z_off"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        for name in ("l_step", "l_clrnc", "l_pntr"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def foot_xz(r: float, theta: float, params: PfParams):
    """Pattern formation on floats: the (x, z) of one leg's foot target for
    amplitude r and phase theta; its lateral y is the leg's abduction offset."""
    s = math.sin(theta)
    x = params.x_off - params.l_step * r * math.cos(theta)
    if s > 0.0:
        return x, params.z_off - params.h + params.l_clrnc * s
    return x, params.z_off - params.h + params.l_pntr * s


def foot_target(state: OscillatorState, params: PfParams, y: float) -> FootTarget:
    """Map one oscillator state to the foot target of the leg at lateral offset y."""
    x, z = foot_xz(state.r, state.theta, params)
    return FootTarget(x, y, z)

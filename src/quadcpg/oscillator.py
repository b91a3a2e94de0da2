"""Amplitude-controlled phase oscillators for the rhythm-generation layer.

Each limb carries one independent oscillator with critically damped
amplitude dynamics

    r_ddot = alpha * (alpha / 4 * (mu - r) - r_dot)
    theta_dot = 2 * pi * omega_hz

There is no explicit coupling between limbs: inter-limb phase
relationships come entirely from the commanded frequencies and the
initial phase offsets.

Command values omega are in Hz (strides per second); internally the
phase rate is 2*pi*omega rad/s, so one full swing/stance cycle takes
1/omega seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

TWO_PI = 2.0 * math.pi

#: Command limits, applied per limb.
MU_MIN, MU_MAX = 0.5, 4.0
OMEGA_MIN_HZ, OMEGA_MAX_HZ = 0.0, 5.0

#: Trot phase offsets for limbs (FR, FL, RR, RL): diagonal pairs in phase.
TROT_PHASES = (0.0, math.pi, math.pi, 0.0)


class InvalidCommandError(ValueError):
    """Raised for NaN/non-finite oscillator commands or states."""


def check_command_box(mu: float, omega: float) -> None:
    """Raise ValueError unless mu and omega lie in the command box; NaN never does."""
    if not (MU_MIN <= mu <= MU_MAX):
        raise ValueError(f"mu={mu} outside [{MU_MIN}, {MU_MAX}]")
    if not (OMEGA_MIN_HZ <= omega <= OMEGA_MAX_HZ):
        raise ValueError(f"omega={omega} outside [{OMEGA_MIN_HZ}, {OMEGA_MAX_HZ}] Hz")


class OscillatorState(NamedTuple):
    """Per-limb rhythm generator state."""

    r: float        # amplitude, dimensionless, >= 0 from valid starts
    r_dot: float    # amplitude rate, 1/s
    theta: float    # phase, wrapped to [0, 2*pi)
    theta_dot: float  # applied phase rate, rad/s


class CpgCommand(NamedTuple):
    """Clamped 8-D action: intrinsic amplitude and frequency per limb."""

    mu: tuple      # 4 amplitudes, in [MU_MIN, MU_MAX]
    omega: tuple   # 4 frequencies in Hz, in [OMEGA_MIN_HZ, OMEGA_MAX_HZ]


#: Rhythm-generator constants, fixed by the method for every robot:
#: amplitude convergence factor (1/s) and the Heun integration step (s).
ALPHA = 50.0
DT_INTEGRATION = 1e-3


@dataclass(frozen=True)
class CpgConfig:
    """Read-only record of ALPHA and DT_INTEGRATION; takes no arguments."""

    alpha: float = field(default=ALPHA, init=False)
    dt_integration: float = field(default=DT_INTEGRATION, init=False)


def step_oscillator(state: OscillatorState, mu: float,
                    omega_hz: float) -> OscillatorState:
    """Advance one oscillator by one step of DT_INTEGRATION.

    The amplitude equation uses one explicit Heun (trapezoidal) step:
    plain first-order Euler at the 1 kHz rate misses the closed-form
    solution by ~4e-3 relative, more than the 1e-3 accuracy budget at
    the top of the amplitude range.  The phase advances linearly (exact
    for a constant command).

    `mu` and `omega_hz` are assumed already clamped; the phase is
    wrapped to [0, 2*pi) after the step and theta_dot holds the applied
    rad/s rate.
    """
    r, r_dot, theta, _ = state
    if not (math.isfinite(r) and math.isfinite(r_dot) and math.isfinite(theta)):
        raise InvalidCommandError(f"non-finite oscillator state {state!r}")
    if not (math.isfinite(mu) and math.isfinite(omega_hz)):
        raise InvalidCommandError(f"non-finite command mu={mu!r} omega={omega_hz!r}")

    alpha = ALPHA
    gain = alpha * alpha / 4.0
    dt = DT_INTEGRATION
    theta_dot = TWO_PI * omega_hz

    k1_r = r_dot
    k1_rd = gain * (mu - r) - alpha * r_dot
    r_mid = r + dt * k1_r
    rd_mid = r_dot + dt * k1_rd
    k2_r = rd_mid
    k2_rd = gain * (mu - r_mid) - alpha * rd_mid

    r_new = r + 0.5 * dt * (k1_r + k2_r)
    r_dot_new = r_dot + 0.5 * dt * (k1_rd + k2_rd)
    theta_new = (theta + theta_dot * dt) % TWO_PI
    return OscillatorState(r_new, r_dot_new, theta_new, theta_dot)


def clamp_command(raw: Sequence[float]) -> CpgCommand:
    """Clip a raw 8-vector (mu x4, omega x4) to the command limits.

    Idempotent.  Non-finite entries are rejected rather than clipped so a
    NaN action can never be laundered into a legal command.
    """
    values = [float(v) for v in raw]
    if len(values) != 8:
        raise InvalidCommandError(f"command must have 8 entries, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise InvalidCommandError(f"non-finite command entries in {values!r}")
    mu = tuple(min(max(v, MU_MIN), MU_MAX) for v in values[:4])
    omega = tuple(min(max(v, OMEGA_MIN_HZ), OMEGA_MAX_HZ) for v in values[4:])
    return CpgCommand(mu, omega)


def closed_form_amplitude(mu: float, alpha: float, r0: float, r0_dot: float,
                          t: float) -> float:
    """Analytic amplitude of the critically damped system at time t.

    r(t) = mu + (A + B*t) * exp(-(alpha/2) * t) with A = r0 - mu and
    B = r0_dot + (alpha/2) * (r0 - mu).  Serves as the independent oracle
    for the Heun integration in step_oscillator.
    """
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be positive, got {alpha}")
    a = r0 - mu
    b = r0_dot + (alpha / 2.0) * (r0 - mu)
    return mu + (a + b * t) * math.exp(-(alpha / 2.0) * t)


def init_cpg(initial_phases: Sequence[float]):
    """Build one oscillator bank at rest with the given phase offsets."""
    phases = [float(p) for p in initial_phases]
    if len(phases) != 4:
        raise ValueError(f"expected 4 phases, got {len(phases)}")
    if not all(math.isfinite(p) for p in phases):
        raise InvalidCommandError(f"non-finite initial phases {phases!r}")
    return [OscillatorState(0.0, 0.0, p % TWO_PI, 0.0) for p in phases]

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

#: Limb order of every per-limb tuple, column suffix and leg index.
LIMBS = ("fr", "fl", "rr", "rl")

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
#: amplitude convergence factor (1/s), the Heun integration step (s) and
#: the amplitude equation's stiffness alpha**2 / 4 (1/s**2).
ALPHA = 50.0
DT_INTEGRATION = 1e-3
AMPLITUDE_GAIN = ALPHA * ALPHA / 4.0


@dataclass(frozen=True)
class CpgConfig:
    """Read-only record of ALPHA and DT_INTEGRATION; takes no arguments."""

    alpha: float = field(default=ALPHA, init=False)
    dt_integration: float = field(default=DT_INTEGRATION, init=False)


def advance(r, r_dot, mu, theta_dot, *thetas):
    """One step of DT_INTEGRATION: [r, r_dot, *thetas] after it.

    The amplitude equation uses one explicit Heun (trapezoidal) step:
    plain first-order Euler at the 1 kHz rate misses the closed-form
    solution by ~4e-3 relative, more than the 1e-3 accuracy budget at
    the top of the amplitude range.  Each phase advances linearly at
    theta_dot rad/s (exact for a constant command) and is wrapped to
    [0, 2*pi).  Limbs with one amplitude command and one start share r,
    so one call advances them all.  Works alike on floats and numpy arrays.
    The phase line, (theta + theta_dot * DT_INTEGRATION) % TWO_PI, has two
    more users, which run it alone: `rollout.run_open_loop_trajectory` once
    the amplitude has settled (`amplitude_settled`), and `batch._oscillate`
    on each distinct start phase.  Change all three or none.
    """
    gain, dt = AMPLITUDE_GAIN, DT_INTEGRATION
    k1_rd = gain * (mu - r) - ALPHA * r_dot
    r_mid = r + dt * r_dot
    rd_mid = r_dot + dt * k1_rd
    k2_rd = gain * (mu - r_mid) - ALPHA * rd_mid
    step = theta_dot * dt
    out = [r + 0.5 * dt * (r_dot + rd_mid), r_dot + 0.5 * dt * (k1_rd + k2_rd)]
    for theta in thetas:   # a loop, not a comprehension: cheaper per call on 3.11
        out.append((theta + step) % TWO_PI)
    return out


def amplitude_settled(r, r_dot, r_next, rd_next) -> bool:
    """True if `advance` took (r, r_dot) to itself, bit for bit.

    The amplitude update reads only (r, r_dot, mu).  So if one step returns
    its own input, the next step reads the same input and returns it again,
    and by induction every later step does: the amplitude stays there for
    as long as mu is held.  `==` stands for "the same bits" only on
    non-zero, non-NaN floats: NaN equals nothing, and 0.0 == -0.0 although
    the two signs can round differently later.  So neither value may be
    zero.  From rest, every mu in the command box reaches such a point
    after 2,154 to 2,184 steps, with r_dot tiny but not 0.0.
    """
    return r_next == r != 0.0 and rd_next == r_dot != 0.0


def step_oscillator(state: OscillatorState, mu: float,
                    omega_hz: float) -> OscillatorState:
    """Advance one oscillator by one step of DT_INTEGRATION (see `advance`).

    `mu` and `omega_hz` are assumed already clamped; theta_dot holds the
    applied rad/s rate.
    """
    r, r_dot, theta, _ = state
    if not (math.isfinite(r) and math.isfinite(r_dot) and math.isfinite(theta)):
        raise InvalidCommandError(f"non-finite oscillator state {state!r}")
    if not (math.isfinite(mu) and math.isfinite(omega_hz)):
        raise InvalidCommandError(f"non-finite command mu={mu!r} omega={omega_hz!r}")
    theta_dot = TWO_PI * omega_hz
    r, r_dot, theta = advance(r, r_dot, mu, theta_dot, theta)
    return OscillatorState(r, r_dot, theta, theta_dot)


def clamp_command(raw: Sequence[float]) -> CpgCommand:
    """Clip a raw 8-vector (mu x4, omega x4) to the command limits.

    Idempotent.  Non-finite entries are rejected rather than clipped so a
    NaN action can never be laundered into a legal command.
    """
    values = list(map(float, raw))
    if len(values) != 8:
        raise InvalidCommandError(f"command must have 8 entries, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise InvalidCommandError(f"non-finite command entries in {values!r}")
    m0, m1, m2, m3, w0, w1, w2, w3 = values   # unpacked: cheaper than a loop per step
    return CpgCommand(
        (min(max(m0, MU_MIN), MU_MAX), min(max(m1, MU_MIN), MU_MAX),
         min(max(m2, MU_MIN), MU_MAX), min(max(m3, MU_MIN), MU_MAX)),
        (min(max(w0, OMEGA_MIN_HZ), OMEGA_MAX_HZ), min(max(w1, OMEGA_MIN_HZ), OMEGA_MAX_HZ),
         min(max(w2, OMEGA_MIN_HZ), OMEGA_MAX_HZ), min(max(w3, OMEGA_MIN_HZ), OMEGA_MAX_HZ)))


def closed_form_amplitude(mu: float, alpha: float, r0: float, r0_dot: float,
                          t: float) -> float:
    """Analytic amplitude of the critically damped system at time t.

    r(t) = mu + (A + B*t) * exp(-(alpha/2) * t) with A = r0 - mu and
    B = r0_dot + (alpha/2) * (r0 - mu).  Serves as the independent oracle
    for the Heun integration in `advance`.
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

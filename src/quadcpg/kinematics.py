"""Forward and analytical inverse kinematics for the three leg morphologies.

Joint conventions (zero joints = leg fully extended, pointing straight
down from the hip):

* q[0]  abduction, rotation about the body +x axis.  The foot sits at a
  fixed signed lateral offset ``abd_offset`` inside the rotating leg
  plane, so abduction depends only on the (y, z) projection of a target.
* q[1]  hip pitch, rotation about the leg-plane +y axis.
* q[2]  knee pitch, relative to the thigh.  ``elbow_up`` legs use the
  knee >= 0 branch, ``elbow_down`` the knee <= 0 branch.
* q[3]  (4-DoF legs only) foot pitch, relative to the shank.

A pitch rotation by q maps the downward unit vector to
(-sin q, 0, -cos q), so a planar 2-link chain gives

    x = -(l1 sin q1 + l2 sin(q1 + q2))
    z = -(l1 cos q1 + l2 cos(q1 + q2))

The 4-DoF (animal-like, three-segment) legs resolve the redundancy with
a fixed distal coupling q_foot = -0.5 * q_knee.  With the half angle
psi = q_knee / 2 the squared reach becomes a quadratic in cos(psi),

    reach^2 = l1^2 + l2^2 + l3^2 + 2 l3 (l1 + l2) cos(psi)
              + 2 l1 l2 (2 cos(psi)^2 - 1),

which keeps the solution closed form.  Only the -0.5 coupling ratio
admits this reduction; other ratios are rejected at validation time.

Unreachable targets raise OutOfWorkspaceError carrying the clamped-reach
fallback joint vector so a running rollout can keep going.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, TYPE_CHECKING

from .foot_trajectory import FootTarget

if TYPE_CHECKING:
    from .registry import RobotDescriptor

ELBOW_UP = "elbow_up"
ELBOW_DOWN = "elbow_down"

#: Relative clamp beyond which a target counts as out of workspace
#: (smaller excursions are floating-point noise on the boundary).
_CLAMP_TOL = 1e-9

#: The one distal coupling ratio with a closed-form reduction.
FOOT_COUPLING_RATIO = -0.5


class OutOfWorkspaceError(ValueError):
    """Target outside the leg workspace; carries a clamped fallback."""

    def __init__(self, message: str, fallback: Tuple[float, ...]):
        super().__init__(message)
        self.fallback = fallback


@dataclass(frozen=True)
class LegGeometry:
    """Geometry of one leg: attachment, lateral offset and link lengths."""

    hip_offset: Tuple[float, float, float]  # body frame -> hip joint, m
    abd_offset: float                       # signed lateral hip->leg-plane, m
    link_lengths: Tuple[float, ...]         # 2 (3-DoF) or 3 (4-DoF) segments
    knee_config: str = ELBOW_UP
    foot_coupling: float = FOOT_COUPLING_RATIO  # 4-DoF only

    def __post_init__(self):
        if len(self.link_lengths) not in (2, 3):
            raise ValueError(f"expected 2 or 3 link lengths, got {self.link_lengths}")
        if any(l <= 0.0 for l in self.link_lengths):
            raise ValueError(f"link lengths must be positive, got {self.link_lengths}")
        if self.knee_config not in (ELBOW_UP, ELBOW_DOWN):
            raise ValueError(f"unknown knee_config {self.knee_config!r}")
        if len(self.link_lengths) == 3 and self.foot_coupling != FOOT_COUPLING_RATIO:
            raise ValueError(
                f"only foot_coupling={FOOT_COUPLING_RATIO} has a closed-form "
                f"solution, got {self.foot_coupling}")

    @property
    def dof(self) -> int:
        return len(self.link_lengths) + 1

    @property
    def max_reach(self) -> float:
        return sum(self.link_lengths)


def fk_leg(geom: LegGeometry, q: Sequence[float]) -> FootTarget:
    """Foot position in the hip frame for the given joint angles."""
    if len(q) != geom.dof:
        raise ValueError(f"expected {geom.dof} joint angles, got {len(q)}")
    q_abd = q[0]
    if geom.dof == 3:
        l1, l2 = geom.link_lengths
        a1 = q[1]
        a2 = q[1] + q[2]
        xp = -(l1 * math.sin(a1) + l2 * math.sin(a2))
        zp = -(l1 * math.cos(a1) + l2 * math.cos(a2))
    else:
        l1, l2, l3 = geom.link_lengths
        a1 = q[1]
        a2 = q[1] + q[2]
        a3 = q[1] + q[2] + q[3]
        xp = -(l1 * math.sin(a1) + l2 * math.sin(a2) + l3 * math.sin(a3))
        zp = -(l1 * math.cos(a1) + l2 * math.cos(a2) + l3 * math.cos(a3))
    c0, s0 = math.cos(q_abd), math.sin(q_abd)
    d = geom.abd_offset
    y = d * c0 - zp * s0
    z = d * s0 + zp * c0
    return FootTarget(xp, y, z)


def _abduction(d: float, y: float, z: float):
    """Abduction angle placing the leg plane through (y, z); returns
    (q_abd, planar_z, clamped)."""
    rr = y * y + z * z
    dd = d * d
    clamped = False
    if rr < dd:
        # target inside the abduction circle: clamp to the circle
        clamped = rr < dd * (1.0 - _CLAMP_TOL)
        rr = dd
    z_leg = -math.sqrt(rr - dd)
    ratio = d / math.sqrt(rr) if rr > 0.0 else 1.0
    ratio = min(1.0, max(-1.0, ratio))
    q_abd = math.atan2(z, y) + math.acos(ratio)
    # wrap to (-pi, pi] for a continuous solution around zero
    q_abd = math.atan2(math.sin(q_abd), math.cos(q_abd))
    return q_abd, z_leg, clamped


def _solve_3dof(geom: LegGeometry, x: float, y: float, z: float):
    """Closed-form 3-DoF solution; returns (q, clamped)."""
    l1, l2 = geom.link_lengths
    q_abd, z_leg, clamped = _abduction(geom.abd_offset, y, z)

    rho = math.hypot(x, z_leg)
    lo, hi = abs(l1 - l2), l1 + l2
    if rho > hi:
        if rho > hi * (1.0 + _CLAMP_TOL):
            clamped = True
        scale = hi / rho
        x, z_leg, rho = x * scale, z_leg * scale, hi
    elif rho < lo:
        if rho < lo * (1.0 - _CLAMP_TOL):
            clamped = True
        if rho > 0.0:
            scale = lo / rho
            x, z_leg, rho = x * scale, z_leg * scale, lo
        else:
            x, z_leg, rho = 0.0, -lo, lo

    cos_knee = (rho * rho - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    cos_knee = min(1.0, max(-1.0, cos_knee))
    knee = math.acos(cos_knee)
    if geom.knee_config == ELBOW_DOWN:
        knee = -knee

    a = l1 + l2 * math.cos(knee)
    b = l2 * math.sin(knee)
    hip = math.atan2(-x, -z_leg) - math.atan2(b, a)
    hip = math.atan2(math.sin(hip), math.cos(hip))
    return (q_abd, hip, knee), clamped


def _solve_4dof(geom: LegGeometry, x: float, y: float, z: float):
    """Closed-form 4-DoF solution with the -0.5 knee-foot coupling."""
    l1, l2, l3 = geom.link_lengths
    q_abd, z_leg, clamped = _abduction(geom.abd_offset, y, z)

    rho2 = x * x + z_leg * z_leg
    # quadratic in c = cos(psi), psi = knee / 2
    qa = 4.0 * l1 * l2
    qb = 2.0 * (l1 + l2) * l3
    qk = l1 * l1 + l2 * l2 + l3 * l3 - 2.0 * l1 * l2 - rho2
    disc = qb * qb - 4.0 * qa * qk
    if disc < 0.0:
        if disc < -_CLAMP_TOL * qb * qb:
            clamped = True
        disc = 0.0
    c = (-qb + math.sqrt(disc)) / (2.0 * qa)
    if c > 1.0:
        if c > 1.0 + _CLAMP_TOL:
            clamped = True
        c = 1.0
    elif c < -1.0:
        clamped = True
        c = -1.0

    psi = math.acos(c)
    if geom.knee_config == ELBOW_DOWN:
        psi = -psi
    knee = 2.0 * psi
    foot = geom.foot_coupling * knee

    # planar position is (A sin, B cos)-linear in the hip angle
    a = l1 + l3 * math.cos(psi) + l2 * math.cos(2.0 * psi)
    b = l3 * math.sin(psi) + l2 * math.sin(2.0 * psi)
    u, v = -x, -z_leg
    if clamped:
        # project the (possibly unreachable) direction onto the clamped reach
        norm = math.hypot(u, v)
        if norm == 0.0:
            u, v = 0.0, math.hypot(a, b)
        else:
            scale = math.hypot(a, b) / norm
            u, v = u * scale, v * scale
    hip = math.atan2(u, v) - math.atan2(b, a)
    hip = math.atan2(math.sin(hip), math.cos(hip))
    return (q_abd, hip, knee, foot), clamped


def ik_3dof(geom: LegGeometry, target: FootTarget) -> Tuple[float, float, float]:
    """Analytical IK for a two-segment leg, branch fixed by knee_config."""
    if geom.dof != 3:
        raise ValueError(f"ik_3dof needs a 2-link geometry, got {geom.dof} DoF")
    return ik_leg(geom, target)


def ik_4dof(geom: LegGeometry, target: FootTarget) -> Tuple[float, float, float, float]:
    """Analytical IK for a three-segment leg with fixed knee-foot coupling."""
    if geom.dof != 4:
        raise ValueError(f"ik_4dof needs a 3-link geometry, got {geom.dof} DoF")
    return ik_leg(geom, target)


def ik_leg(geom: LegGeometry, target: FootTarget) -> Tuple[float, ...]:
    """Morphology-appropriate analytical IK; unreachable targets raise."""
    q, clamped = ik_leg_clamped(geom, target)
    if clamped:
        raise OutOfWorkspaceError(
            f"target {tuple(target)} outside workspace of "
            f"{len(geom.link_lengths)}-link leg (reach {geom.max_reach:.4f} m)", q)
    return q


def ik_leg_clamped(geom: LegGeometry, target: FootTarget):
    """Like ik_leg but never raises: returns (q, out_of_workspace)."""
    if geom.dof == 3:
        return _solve_3dof(geom, target.x, target.y, target.z)
    return _solve_4dof(geom, target.x, target.y, target.z)


def fk_all_feet(robot: "RobotDescriptor", q_all: Sequence[Sequence[float]]):
    """Body-frame positions of all four feet, ordered (FR, FL, RR, RL)."""
    if len(q_all) != 4:
        raise ValueError(f"expected 4 joint vectors, got {len(q_all)}")
    feet = []
    for geom, q in zip(robot.legs, q_all):
        fx, fy, fz = fk_leg(geom, q)
        hx, hy, hz = geom.hip_offset
        feet.append((fx + hx, fy + hy, fz + hz))
    return feet

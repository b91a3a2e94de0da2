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
admits this reduction, so it is a constant, not a per-leg parameter.

One solver, ``_solve``, serves both leg types: the abduction first, then
the 3-DoF law of cosines or the 4-DoF knee quadratic, picked by the number
of links, in the layout of the batch kernel's ``batch._Legs.ik``.  It clamps
an unreachable target to the workspace boundary and flags it.  Only
``ik_leg`` raises, OutOfWorkspaceError carrying the clamped joint vector;
the environment calls ``_solve`` and counts the flags in
``info["workspace_violations"]``.  ``_solve`` and ``_foot_in_hip``, the
one FK body, skip the cos, sin and atan2 of an abduction angle below
``TINY_ANGLE``, where their results are known bit for bit; pattern
formation sets y = abd_offset, so a foot target's abduction is 0 up to
rounding.
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

#: Below this magnitude an angle is its own wrap, atan2(sin a, cos a) == a
#: bit for bit: cos a rounds to 1.0, and sin a and atan a round back to a.
#: NaN is not below it.
TINY_ANGLE = 2.0 ** -27


class OutOfWorkspaceError(ValueError):
    """Target outside the leg workspace; carries a clamped fallback."""

    def __init__(self, message: str, fallback: Tuple[float, ...]):
        super().__init__(message)
        self.fallback = fallback


@dataclass(frozen=True)
class LegGeometry:
    """Geometry of one leg: attachment, lateral offset and link lengths.

    Construction also sets the analytical IK's per-leg constants, which
    `_solve` reads, and names in `ik_constants` those `batch._Legs` stacks:
    `dd`, the squared abduction offset, and `elbow_down`; on 3-DoF legs the
    reach bounds `lo`/`hi`, their clamp bounds `lo_in`/`hi_out` and the
    law-of-cosines terms `l1l1`, `l2l2`, `two_l1l2`; on 4-DoF legs the knee
    quadratic's `qb`, `qk0`, `qbqb`, `four_qa`, `two_qa` and the
    discriminant's clamp bound `disc_in`.  The abduction's clamp bound
    `dd_in` only `_solve` reads.
    """

    hip_offset: Tuple[float, float, float]  # body frame -> hip joint, m
    abd_offset: float                       # signed lateral hip->leg-plane, m
    link_lengths: Tuple[float, ...]         # 2 (3-DoF) or 3 (4-DoF) segments
    knee_config: str = ELBOW_UP

    def __post_init__(self):
        if len(self.link_lengths) not in (2, 3):
            raise ValueError(f"expected 2 or 3 link lengths, got {self.link_lengths}")
        if not all(0.0 < l < math.inf for l in self.link_lengths):
            raise ValueError(
                f"link_lengths must be finite and positive, got {self.link_lengths}")
        if len(self.hip_offset) != 3 or not all(map(math.isfinite, self.hip_offset)):
            raise ValueError(
                f"hip_offset must be 3 finite coordinates, got {self.hip_offset}")
        if not math.isfinite(self.abd_offset):
            raise ValueError(f"abd_offset must be finite, got {self.abd_offset}")
        if self.knee_config not in (ELBOW_UP, ELBOW_DOWN):
            raise ValueError(f"unknown knee_config {self.knee_config!r}")
        # the IK constants, each the expression a solver would evaluate per call
        d, links = self.abd_offset, self.link_lengths
        l1, l2 = links[:2]
        dd = d * d
        consts = {"dd": dd, "elbow_down": self.knee_config == ELBOW_DOWN}
        bounds = {"dd_in": dd * (1.0 - _CLAMP_TOL)}   # the clamp bound only `_solve` reads
        if len(links) == 2:
            lo, hi = abs(l1 - l2), l1 + l2
            consts.update(lo=lo, hi=hi, lo_in=lo * (1.0 - _CLAMP_TOL),
                          hi_out=hi * (1.0 + _CLAMP_TOL), l1l1=l1 * l1, l2l2=l2 * l2,
                          two_l1l2=2.0 * l1 * l2)
        else:
            l3 = links[2]
            qa, qb = 4.0 * l1 * l2, 2.0 * (l1 + l2) * l3
            consts.update(qb=qb, qk0=l1 * l1 + l2 * l2 + l3 * l3 - 2.0 * l1 * l2,
                          qbqb=qb * qb, four_qa=4.0 * qa, two_qa=2.0 * qa,
                          disc_in=-_CLAMP_TOL * qb * qb)
        if not (all(map(math.isfinite, [*consts.values(), *bounds.values()]))
                and consts.get("two_l1l2", consts.get("two_qa")) > 0.0):
            raise ValueError(f"link_lengths {links}, abd_offset {d}: IK constant out of range")
        consts["ik_constants"] = tuple(consts)
        for name, value in {**consts, **bounds}.items():
            object.__setattr__(self, name, value)   # frozen: set once, here

    @property
    def dof(self) -> int:
        return len(self.link_lengths) + 1

    @property
    def max_reach(self) -> float:
        reach = 0.0   # in order, not sum(): see environment.sum_in_order
        for link in self.link_lengths:
            reach += link
        return reach


def _foot_in_hip(links: Sequence[float], d: float, q: Sequence[float]):
    """(x, y, z) of the foot in the hip frame: the sums (sx, cz) of the planar
    chain of 2 or 3 links over q's pitch joints, then the rotation by its
    abduction q[0]; the one body of both FK functions and the backend's."""
    if len(links) == 2:
        l1, l2 = links
        q_abd, a1, q_knee = q
        a2 = a1 + q_knee
        sx = l1 * math.sin(a1) + l2 * math.sin(a2)
        cz = l1 * math.cos(a1) + l2 * math.cos(a2)
    else:
        l1, l2, l3 = links
        q_abd, a1, q_knee, q_foot = q
        a2 = a1 + q_knee
        a3 = a2 + q_foot
        sx = l1 * math.sin(a1) + l2 * math.sin(a2) + l3 * math.sin(a3)
        cz = l1 * math.cos(a1) + l2 * math.cos(a2) + l3 * math.cos(a3)
    zp = -cz
    if abs(q_abd) < TINY_ANGLE:   # cos rounds to 1.0, sin to the angle
        c0, s0 = 1.0, q_abd
    else:
        c0, s0 = math.cos(q_abd), math.sin(q_abd)
    return -sx, d * c0 - zp * s0, d * s0 + zp * c0


def fk_leg(geom: LegGeometry, q: Sequence[float]) -> FootTarget:
    """Foot position in the hip frame for the given joint angles."""
    if len(q) != geom.dof:
        raise ValueError(f"expected {geom.dof} joint angles, got {len(q)}")
    return FootTarget(*_foot_in_hip(geom.link_lengths, geom.abd_offset, q))


def _solve(geom: LegGeometry, x: float, y: float, z: float):
    """Closed-form solution of a 3- or 4-DoF leg; returns (q, clamped)."""
    # abduction: the leg plane through (y, z), clamped to the abduction circle
    d, dd = geom.abd_offset, geom.dd
    rr = y * y + z * z
    clamped = False
    if rr < dd:
        clamped = rr < geom.dd_in
        rr = dd
    ratio = d / math.sqrt(rr) if rr > 0.0 else 1.0
    if not ratio > -1.0:   # min(1.0, max(-1.0, ratio)), NaN to -1.0 as well
        ratio = -1.0
    elif ratio > 1.0:
        ratio = 1.0
    q_abd = math.atan2(z, y) + math.acos(ratio)
    # wrap to (-pi, pi] for a continuous solution around zero
    if not abs(q_abd) < TINY_ANGLE:
        q_abd = math.atan2(math.sin(q_abd), math.cos(q_abd))
    z_leg = -math.sqrt(rr - dd)

    links = geom.link_lengths
    if len(links) == 2:
        # the planar 2-link chain: clamp the reach, then the law of cosines
        rho = math.hypot(x, z_leg)
        lo, hi = geom.lo, geom.hi
        if rho > hi:
            if rho > geom.hi_out:
                clamped = True
            scale = hi / rho
            x, z_leg, rho = x * scale, z_leg * scale, hi
        elif rho < lo:
            if rho < geom.lo_in:
                clamped = True
            if rho > lo * 2.0 ** -1022:   # else at the hip: lo / rho at or near overflow
                scale = lo / rho
                x, z_leg, rho = x * scale, z_leg * scale, lo
            else:
                x, z_leg, rho = 0.0, -lo, lo

        cos_knee = (rho * rho - geom.l1l1 - geom.l2l2) / geom.two_l1l2
        if not cos_knee > -1.0:
            cos_knee = -1.0
        elif cos_knee > 1.0:
            cos_knee = 1.0
        knee = math.acos(cos_knee)
        if geom.elbow_down:
            knee = -knee

        l1, l2 = links
        a = l1 + l2 * math.cos(knee)
        b = l2 * math.sin(knee)
        hip = math.atan2(-x, -z_leg) - math.atan2(b, a)
        hip = math.atan2(math.sin(hip), math.cos(hip))
        return (q_abd, hip, knee), clamped

    # the -0.5 knee-foot coupling: a quadratic in c = cos(psi), psi = knee / 2
    qk = geom.qk0 - (x * x + z_leg * z_leg)
    disc = geom.qbqb - geom.four_qa * qk
    if disc < 0.0:
        if disc < geom.disc_in:
            clamped = True
        disc = 0.0
    c = (-geom.qb + math.sqrt(disc)) / geom.two_qa
    if c > 1.0:
        if c > 1.0 + _CLAMP_TOL:
            clamped = True
        c = 1.0
    elif c < -1.0:
        if c < -1.0 - _CLAMP_TOL:
            clamped = True
        c = -1.0

    psi = math.acos(c)
    if geom.elbow_down:
        psi = -psi
    knee = 2.0 * psi
    foot = FOOT_COUPLING_RATIO * knee

    # planar position is (A sin, B cos)-linear in the hip angle
    l1, l2, l3 = links
    a = l1 + l3 * math.cos(psi) + l2 * math.cos(2.0 * psi)
    b = l3 * math.sin(psi) + l2 * math.sin(2.0 * psi)
    u, v = -x, -z_leg
    if clamped:
        # project the (possibly unreachable) direction onto the clamped reach
        norm, reach = math.hypot(u, v), math.hypot(a, b)
        if norm > reach * 2.0 ** -1022:   # else the hip, as in the 3-DoF clamp
            scale = reach / norm
            u, v = u * scale, v * scale
        else:
            u, v = 0.0, reach
    hip = math.atan2(u, v) - math.atan2(b, a)
    hip = math.atan2(math.sin(hip), math.cos(hip))
    return (q_abd, hip, knee, foot), clamped


def ik_leg(geom: LegGeometry, target: FootTarget) -> Tuple[float, ...]:
    """Morphology-appropriate analytical IK; unreachable targets raise."""
    q, clamped = _solve(geom, *target)
    if clamped:
        raise OutOfWorkspaceError(
            f"target {tuple(target)} outside workspace of "
            f"{len(geom.link_lengths)}-link leg (reach {geom.max_reach:.4f} m)", q)
    return q


def fk_all_feet(robot: "RobotDescriptor", q_all: Sequence[Sequence[float]]):
    """Body-frame positions of all four feet, ordered (FR, FL, RR, RL)."""
    if len(q_all) != 4:
        raise ValueError(f"expected 4 joint vectors, got {len(q_all)}")
    feet = []
    for geom, q in zip(robot.legs, q_all):
        fx, fy, fz = _foot_in_hip(geom.link_lengths, geom.abd_offset, q)
        hx, hy, hz = geom.hip_offset
        feet.append((fx + hx, fy + hy, fz + hz))
    return feet

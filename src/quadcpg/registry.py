"""Robot registry: the 16 built-in quadruped descriptors plus user files.

Built-in rows carry the published per-robot gait parameters (heights and
stride lengths in cm, converted to SI meters once at load).  Leg link
lengths and hip placements are not part of those rows; defaults are
derived proportionally from each robot's nominal height and can be
overridden per robot in a user registry file.

Registry files are YAML::

    schema_version: 1
    robots:
      - name: MyBot
        height_cm: 30.0
        mass_kg: 12.0
        l_step_cm: 13.0
        l_clrnc_cm: 7.0
        l_pntr_cm: 1.0
        x_offset_cm: 0.0
        dof: 12
        morphology: 1        # 1, 2, 3 or the morphology name
        kp: 100.0
        kd: 2.7
        geometry:            # optional, defaults derived from height
          hip_offsets: [[x, y, z], ...]   # FR, FL, RR, RL
          link_lengths: [l1, l2]          # or [l1, l2, l3] for 16 DoF
          y_nominal: 0.024

Entries in a user file are merged over the built-ins by name; a file
may override a built-in but may name each robot only once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .foot_trajectory import PfParams, foot_xz
from .kinematics import ELBOW_DOWN, ELBOW_UP, LegGeometry
from .oscillator import DT_INTEGRATION, LIMBS, MU_MAX

MORPH_ELBOW_UP_ALL = "elbow_up_all"
MORPH_MIXED = "elbow_up_front_down_hind"
MORPH_ANIMAL = "animal_like"

_MORPH_BY_CODE = {1: MORPH_ELBOW_UP_ALL, 2: MORPH_MIXED, 3: MORPH_ANIMAL}
_CODE_BY_MORPH = {v: k for k, v in _MORPH_BY_CODE.items()}

#: Leg span (sum of link lengths) relative to nominal standing height.
#: Legs are longer than the standing height so the robot stands with bent
#: knees and the nominal stride stays inside the workspace.
LEG_SPAN_FACTOR = 1.35

#: Default hip placement and lateral offset relative to nominal height.
HIP_X_FACTOR = 0.25
HIP_Y_FACTOR = 0.08
ABD_OFFSET_FACTOR = 0.08


class RegistryError(ValueError):
    """Registry file could not be parsed or a descriptor is invalid."""


class UnknownRobotError(KeyError):
    """Lookup of a robot name not present in the registry."""


# name, height_cm, l_step_cm, l_clrnc_cm, l_pntr_cm, x_offset_cm,
# dof, morphology code, mass_kg, kp, kd
_BUILTIN_ROWS = (
    ("Little Dog",   19.0,  5.0, 4.7, 0.5,  1.1, 12, 2,   2.9,   20.0,   0.3),
    ("Spot-Micro",   18.3,  5.0, 3.7, 0.5,  1.0, 12, 1,   4.8,   20.0,   0.3),
    ("Solo",         25.0, 10.0, 5.0, 0.5,  3.7, 12, 2,   2.5,   20.0,   0.3),
    ("Mini-Cheetah", 30.0, 13.0, 7.0, 1.0,  0.0, 12, 1,   8.4,  100.0,   2.7),
    ("A1",           30.0, 13.0, 7.0, 1.0,  0.0, 12, 1,  12.0,  100.0,   2.7),
    ("Go1",          30.0, 13.0, 7.0, 1.0,  0.0, 12, 1,  12.0,  100.0,   2.7),
    ("Aliengo",      42.0, 16.0, 7.0, 1.0,  0.0, 12, 1,  20.6,  100.0,   2.7),
    ("Laikago",      40.0, 16.0, 7.0, 1.0,  0.0, 12, 1,  25.0,  100.0,   2.7),
    ("Anymal-B",     48.0, 17.0, 7.0, 0.0, 10.0, 12, 2,  30.0,  430.0,  20.7),
    ("Anymal-C",     52.0, 18.0, 7.0, 1.0, 12.0, 12, 2,  52.1,  430.0,  20.7),
    ("Spot",         57.0, 20.0, 9.0, 1.0,  0.0, 12, 1,  30.0,  430.0,  20.7),
    ("B1",           57.0, 18.0, 9.0, 1.0,  0.0, 12, 1,  52.7,  430.0,  20.7),
    ("HYQ",          63.0, 20.0, 9.0, 1.0,  8.7, 12, 2,  86.7,  430.0,  20.7),
    ("Dog1",         30.0, 13.0, 7.0, 1.0,  0.0, 16, 3,  13.8,  100.0,   2.7),
    ("Dog2",         57.0, 18.0, 7.0, 1.0,  0.0, 16, 3,  56.0,  200.0,  10.7),
    ("Dog3",        100.0, 36.0, 9.0, 2.0,  0.0, 16, 3, 200.0, 1400.0, 140.7),
)


@dataclass(frozen=True)
class RobotDescriptor:
    """One robot: gait parameters, morphology, geometry and PD gains."""

    name: str
    mass: float            # kg
    dof_total: int         # 12 or 16
    morphology: str
    pf: PfParams
    legs: Tuple[LegGeometry, LegGeometry, LegGeometry, LegGeometry]
    kp: float              # PD position gain, N*m/rad, uniform over joints
    kd: float              # PD damping gain, N*m*s/rad

    def __post_init__(self):
        name = self.name
        if not name:
            raise RegistryError("robot name must be non-empty")
        if not 0.0 < self.mass < math.inf:
            raise RegistryError(f"{name}: mass must be finite and positive, got {self.mass}")
        if not 0.0 < self.kp < math.inf:
            raise RegistryError(f"{name}: kp must be finite and positive, got {self.kp}")
        if not 0.0 <= self.kd < math.inf:
            raise RegistryError(f"{name}: kd must be finite and >= 0, got {self.kd}")
        if self.morphology not in _CODE_BY_MORPH:
            raise RegistryError(f"{name}: unknown morphology {self.morphology!r}")
        if self.dof_total not in (12, 16):
            raise RegistryError(f"{name}: dof_total must be 12 or 16, got {self.dof_total}")
        if (self.dof_total == 16) != (self.morphology == MORPH_ANIMAL):
            raise RegistryError(
                f"{name}: morphology {self.morphology!r} inconsistent with "
                f"dof_total {self.dof_total} (16 DoF <=> {MORPH_ANIMAL})")
        if len(self.legs) != 4:
            raise RegistryError(f"{name}: expected 4 legs, got {len(self.legs)}")
        # bounds on what an episode computes: the foot's largest |x| and |z|
        # (the widest stride at its four extreme phases) and a joint error of
        # 4 pi (the 4-DoF knee's span) closed within one substep
        xs, zs = zip(*(foot_xz(MU_MAX, k * math.pi / 2.0, self.pf) for k in range(4)))
        x, z = max(map(abs, xs)), max(map(abs, zs))
        for leg in self.legs:
            if 4 * leg.dof != self.dof_total:
                raise RegistryError(
                    f"{name}: {len(leg.link_lengths)} link_lengths make leg dof {leg.dof}, "
                    f"inconsistent with dof_total {self.dof_total}")
            reach = x * x + z * z + leg.dd
            if leg.dof == 4:
                reach = leg.qbqb + leg.four_qa * (abs(leg.qk0) + reach)
            if not math.isfinite(reach):
                raise RegistryError(
                    f"{name}: the stride (h, l_step, l_clrnc, l_pntr, x_off, z_off) and "
                    f"the leg's link_lengths and abd_offset take the IK out of float range")
        rate = 4.0 * math.pi / DT_INTEGRATION
        if not math.isfinite(
                self.dof_total * (self.kp * 4.0 * math.pi + self.kd * rate) * 2.0 * rate):
            raise RegistryError(
                f"{name}: kp {self.kp} and kd {self.kd} take the power term out of float range")

    @property
    def height_nominal(self) -> float:
        """Nominal standing height, m: the pattern-formation layer's h."""
        return self.pf.h

    @property
    def leg_dof(self) -> int:
        return self.dof_total // 4

    @property
    def morphology_code(self) -> int:
        return _CODE_BY_MORPH[self.morphology]


def default_legs(height_m: float, dof_total: int, morphology: str,
                 link_lengths: Optional[Sequence[float]] = None,
                 hip_offsets: Optional[Sequence[Sequence[float]]] = None,
                 y_nominal: Optional[float] = None):
    """Build the four leg geometries, deriving defaults from the height."""
    derived = link_lengths is None and y_nominal is None
    span = LEG_SPAN_FACTOR * height_m
    if link_lengths is None:
        if dof_total == 16:
            link_lengths = (0.45 * span, 0.35 * span, 0.20 * span)
        else:
            link_lengths = (0.5 * span, 0.5 * span)
    link_lengths = tuple(float(l) for l in link_lengths)
    if hip_offsets is None:
        hx = HIP_X_FACTOR * height_m
        hy = HIP_Y_FACTOR * height_m
        hip_offsets = ((hx, -hy, 0.0), (hx, hy, 0.0),
                       (-hx, -hy, 0.0), (-hx, hy, 0.0))
    if y_nominal is None:
        y_nominal = ABD_OFFSET_FACTOR * height_m
    y_nominal = float(y_nominal)
    if not 0.0 <= y_nominal < math.inf:
        # the sign comes from the side; a negative offset would cross the legs
        raise ValueError(f"y_nominal must be finite and >= 0, got {y_nominal}")

    if len(hip_offsets) != len(LIMBS):
        raise ValueError(f"expected 4 hip offsets (FR, FL, RR, RL), got {len(hip_offsets)}")
    if derived:   # a leg the IK cannot size is the height's fault
        try:
            LegGeometry((0.0, 0.0, 0.0), y_nominal, link_lengths)
        except ValueError as exc:
            raise ValueError(f"height_cm {height_m * 100.0:g} sizes the legs: {exc}") from None

    legs = []
    for limb, hip in zip(LIMBS, hip_offsets):
        is_left = limb.endswith("l")
        is_front = limb.startswith("f")
        if morphology == MORPH_MIXED and not is_front:
            knee = ELBOW_DOWN
        else:
            knee = ELBOW_UP
        legs.append(LegGeometry(
            hip_offset=tuple(float(v) for v in hip),
            abd_offset=y_nominal if is_left else -y_nominal,
            link_lengths=link_lengths,
            knee_config=knee,
        ))
    return tuple(legs)


#: Default of a registry field that has none: absent or null is an error.
_REQUIRED = object()


def _real(value) -> float:
    """float of a YAML number; TypeError for a boolean (YAML's true/false/yes/no)."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """int of a YAML whole number; ValueError for a fraction, inf or NaN."""
    number = _real(value)
    if not number.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(number)


def _float_list(value, cast=_real) -> tuple:
    """cast over a YAML list; TypeError for a scalar, a string or a mapping."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(cast(v) for v in value)


def _descriptor_from_entry(entry: Dict) -> RobotDescriptor:
    """Build and validate one descriptor from a registry-file entry."""
    try:
        name = entry["name"]
    except (KeyError, TypeError):
        raise RegistryError(f"robot entry missing 'name': {entry!r}") from None
    if not isinstance(name, str):
        raise RegistryError(f"robot entry field 'name' must be a string, got {name!r}")

    def field(key, cast=_real, source=entry, prefix="", default=_REQUIRED):
        value = source.get(key)
        if value is None and default is not _REQUIRED:
            return default
        if key not in source:
            raise RegistryError(f"{name}: missing field {key!r}")
        try:
            return cast(value)
        except (TypeError, ValueError):
            raise RegistryError(
                f"{name}: field {prefix + key!r} has invalid value {value!r}") from None

    height_m = field("height_cm") / 100.0
    if height_m <= 0.0 or not math.isfinite(height_m):
        raise RegistryError(f"{name}: height_cm must be positive")
    dof = field("dof", _integer)
    morph_raw = entry.get("morphology")
    if type(morph_raw) is int or (isinstance(morph_raw, str) and morph_raw.isdigit()):
        morphology = _MORPH_BY_CODE.get(int(morph_raw))
    else:
        morphology = morph_raw if morph_raw in _CODE_BY_MORPH else None
    if morphology is None:
        raise RegistryError(f"{name}: unknown morphology {morph_raw!r}")

    geometry = entry.get("geometry")
    if not isinstance(geometry, (dict, type(None))):
        raise RegistryError(f"{name}: field 'geometry' must be a mapping, got {geometry!r}")
    geo = dict(source=geometry or {}, prefix="geometry.", default=None)
    try:
        legs = default_legs(
            height_m, dof, morphology,
            link_lengths=field("link_lengths", _float_list, **geo),
            hip_offsets=field("hip_offsets", lambda v: _float_list(v, _float_list), **geo),
            y_nominal=field("y_nominal", **geo),
        )
        pf = PfParams(
            h=height_m,
            l_step=field("l_step_cm") / 100.0,
            l_clrnc=field("l_clrnc_cm") / 100.0,
            l_pntr=field("l_pntr_cm") / 100.0,
            x_off=field("x_offset_cm") / 100.0,
            z_off=field("z_offset_cm", default=0.0) / 100.0,
        )
        return RobotDescriptor(
            name=name,
            mass=field("mass_kg"),
            dof_total=dof,
            morphology=morphology,
            pf=pf,
            legs=legs,
            kp=field("kp"),
            kd=field("kd"),
        )
    except RegistryError:
        raise
    except ValueError as exc:
        raise RegistryError(f"{name}: {exc}") from None


def _entry_from_descriptor(robot: RobotDescriptor) -> Dict:
    """Inverse of _descriptor_from_entry, with explicit geometry."""
    return {
        "name": robot.name,
        "height_cm": robot.height_nominal * 100.0,
        "mass_kg": robot.mass,
        "l_step_cm": robot.pf.l_step * 100.0,
        "l_clrnc_cm": robot.pf.l_clrnc * 100.0,
        "l_pntr_cm": robot.pf.l_pntr * 100.0,
        "x_offset_cm": robot.pf.x_off * 100.0,
        "z_offset_cm": robot.pf.z_off * 100.0,
        "dof": robot.dof_total,
        "morphology": robot.morphology_code,
        "kp": robot.kp,
        "kd": robot.kd,
        "geometry": {
            "hip_offsets": [list(leg.hip_offset) for leg in robot.legs],
            "link_lengths": list(robot.legs[0].link_lengths),
            "y_nominal": abs(robot.legs[0].abd_offset),
        },
    }


class Registry:
    """Immutable, name-indexed collection of robot descriptors."""

    def __init__(self, robots: Sequence[RobotDescriptor]):
        self._robots: List[RobotDescriptor] = list(robots)
        self._by_name = {r.name.lower(): r for r in self._robots}

    def __len__(self):
        return len(self._robots)

    def __iter__(self):
        return iter(self._robots)

    def names(self) -> List[str]:
        return [r.name for r in self._robots]

    def get(self, name: str) -> RobotDescriptor:
        """Case-insensitive exact-name lookup."""
        robot = self._by_name.get(name.lower())
        if robot is None:
            raise UnknownRobotError(
                f"unknown robot {name!r}; available: {', '.join(self.names())}")
        return robot


@functools.cache
def builtin_registry() -> Registry:
    """The 16 built-in robots, no files required; built once, then shared."""
    robots = []
    for (name, h, lstep, lclr, lpntr, xoff, dof, morph, mass, kp, kd) in _BUILTIN_ROWS:
        robots.append(_descriptor_from_entry({
            "name": name, "height_cm": h, "mass_kg": mass,
            "l_step_cm": lstep, "l_clrnc_cm": lclr, "l_pntr_cm": lpntr,
            "x_offset_cm": xoff, "dof": dof, "morphology": morph,
            "kp": kp, "kd": kd,
        }))
    return Registry(robots)


def load_registry(path: Optional[str] = None) -> Registry:
    """Load the registry; a user file adds to / overrides the built-ins."""
    base = builtin_registry()
    if path is None:
        return base
    import yaml   # imported only when a file is read
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise RegistryError(f"cannot read registry file {path!r}: {exc}") from None
    except yaml.YAMLError as exc:
        raise RegistryError(f"cannot parse registry file {path!r}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("robots"), list):
        raise RegistryError(
            f"registry file {path!r} must contain a top-level 'robots' list")

    # an override keeps the built-in's place; a new robot goes last
    merged = {r.name.lower(): r for r in base}
    seen = set()
    for entry in doc["robots"]:
        if not isinstance(entry, dict):
            raise RegistryError(f"robot entry must be a mapping, got {entry!r}")
        robot = _descriptor_from_entry(entry)
        key = robot.name.lower()
        if key in seen:
            raise RegistryError(
                f"{robot.name}: field 'name' repeats an earlier entry of {path!r}")
        seen.add(key)
        merged[key] = robot
    return Registry(list(merged.values()))


def save_registry(registry: Registry, path: str) -> None:
    """Write every descriptor (with explicit geometry) to a YAML file."""
    doc = {"schema_version": 1,
           "robots": [_entry_from_descriptor(r) for r in registry]}
    import yaml
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def get_robot(name: str, registry: Optional[Registry] = None) -> RobotDescriptor:
    """Look up one robot, defaulting to the built-in registry."""
    return (registry or builtin_registry()).get(name)

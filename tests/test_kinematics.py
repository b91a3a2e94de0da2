import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadcpg.batch import _Legs, _wrap
from quadcpg.foot_trajectory import FootTarget
from quadcpg.kinematics import (_CLAMP_TOL, ELBOW_DOWN, ELBOW_UP, FOOT_COUPLING_RATIO,
                                TINY_ANGLE, LegGeometry, OutOfWorkspaceError, _solve,
                                fk_all_feet, fk_leg, ik_leg)
from quadcpg.registry import builtin_registry

GEOM3_UP = LegGeometry(hip_offset=(0.0, 0.0, 0.0), abd_offset=0.05,
                       link_lengths=(0.2, 0.2), knee_config=ELBOW_UP)
GEOM3_DOWN = LegGeometry(hip_offset=(0.0, 0.0, 0.0), abd_offset=0.05,
                         link_lengths=(0.2, 0.2), knee_config=ELBOW_DOWN)
GEOM4 = LegGeometry(hip_offset=(0.0, 0.0, 0.0), abd_offset=0.05,
                    link_lengths=(0.18, 0.14, 0.08), knee_config=ELBOW_UP)


def rot_x(q):
    c, s = math.cos(q), math.sin(q)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def rot_y(q):
    c, s = math.cos(q), math.sin(q)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def fk_oracle(geom, q):
    """Independent transform-chain FK: abduction about x, pitches about y."""
    p = np.zeros(3)
    pitch = 0.0
    for angle, length in zip(q[1:], geom.link_lengths):
        pitch += angle
        p = p + rot_y(pitch) @ np.array([0.0, 0.0, -length])
    p = p + np.array([0.0, geom.abd_offset, 0.0])
    return rot_x(q[0]) @ p


def sample_q(rng, geom):
    q_abd = rng.uniform(-0.8, 0.8)
    hip = rng.uniform(-1.2, 1.2)
    if geom.dof == 3:
        knee_mag = rng.uniform(0.05, 2.5)
        knee = knee_mag if geom.knee_config == ELBOW_UP else -knee_mag
        return (q_abd, hip, knee)
    psi = rng.uniform(0.05, 1.2)
    if geom.knee_config == ELBOW_DOWN:
        psi = -psi
    return (q_abd, hip, 2.0 * psi, FOOT_COUPLING_RATIO * 2.0 * psi)


class TestForwardKinematics:
    def test_straight_leg(self):
        foot = fk_leg(GEOM3_UP, (0.0, 0.0, 0.0))
        assert foot.x == pytest.approx(0.0, abs=1e-15)
        assert foot.y == pytest.approx(0.05)
        assert foot.z == pytest.approx(-0.4)

    def test_folded_leg_degenerate(self):
        # equal links folded back 180 degrees: foot back at the hip,
        # offset only laterally
        foot = fk_leg(GEOM3_UP, (0.0, 0.0, math.pi))
        assert foot.x == pytest.approx(0.0, abs=1e-12)
        assert foot.y == pytest.approx(0.05)
        assert foot.z == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("geom", [GEOM3_UP, GEOM3_DOWN, GEOM4])
    def test_matches_transform_chain_oracle(self, geom):
        rng = random.Random(11)
        for _ in range(500):
            q = sample_q(rng, geom)
            foot = fk_leg(geom, q)
            expected = fk_oracle(geom, q)
            assert np.allclose(foot, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fk_leg(GEOM3_UP, (0.0, 0.0, 0.0, 0.0))


class TestIk3Dof:
    def test_full_extension_boundary(self):
        q = ik_leg(GEOM3_UP, FootTarget(0.0, 0.05, -0.4))
        assert q == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_fk_ik_roundtrip_recovers_joints(self):
        rng = random.Random(3)
        for geom in (GEOM3_UP, GEOM3_DOWN):
            for _ in range(2000):
                q_abd = rng.uniform(-0.8, 0.8)
                hip = rng.uniform(-1.0, 1.0)
                knee_mag = rng.uniform(0.05, 2.0)
                knee = knee_mag if geom.knee_config == ELBOW_UP else -knee_mag
                q_star = (q_abd, hip, knee)
                l1, l2 = geom.link_lengths
                z_planar = -(l1 * math.cos(hip) + l2 * math.cos(hip + knee))
                if z_planar >= -1e-6:
                    continue  # stay on the foot-below-hip solution branch
                foot = fk_leg(geom, q_star)
                q = ik_leg(geom, foot)
                assert q == pytest.approx(q_star, abs=1e-9)

    def test_both_branches_same_position_opposite_knee(self):
        target = FootTarget(0.05, 0.05, -0.3)
        q_up = ik_leg(GEOM3_UP, target)
        q_down = ik_leg(GEOM3_DOWN, target)
        assert q_up[2] == pytest.approx(-q_down[2])
        assert q_up[2] > 0.0 > q_down[2]
        assert fk_leg(GEOM3_UP, q_up) == pytest.approx(tuple(target), abs=1e-12)
        assert fk_leg(GEOM3_DOWN, q_down) == pytest.approx(tuple(target), abs=1e-12)

    def test_out_of_workspace_carries_fallback(self):
        target = FootTarget(0.0, 0.05, -1.0)
        with pytest.raises(OutOfWorkspaceError) as exc:
            ik_leg(GEOM3_UP, target)
        fallback = exc.value.fallback
        foot = fk_leg(GEOM3_UP, fallback)
        # fallback sits on the workspace boundary in the commanded direction
        reach = math.hypot(foot.x, math.sqrt(foot.y ** 2 + foot.z ** 2
                                             - GEOM3_UP.abd_offset ** 2))
        assert reach == pytest.approx(0.4, abs=1e-9)


class TestIk4Dof:
    def test_full_extension_all_pitch_zero(self):
        reach = GEOM4.max_reach
        q = ik_leg(GEOM4, FootTarget(0.0, 0.05, -reach))
        assert q == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-9)

    def test_fk_ik_position_roundtrip(self):
        rng = random.Random(5)
        for _ in range(2000):
            q_star = sample_q(rng, GEOM4)
            foot = fk_leg(GEOM4, q_star)
            if foot.z >= 0.0:
                continue
            q = ik_leg(GEOM4, foot)
            recovered = fk_leg(GEOM4, q)
            assert recovered == pytest.approx(tuple(foot), abs=1e-9)

    def test_coupling_ratio_applied(self):
        q = ik_leg(GEOM4, FootTarget(0.02, 0.05, -0.3))
        assert q[3] == pytest.approx(-0.5 * q[2])

    def test_mirrored_targets_same_knee_and_foot(self):
        a = ik_leg(GEOM4, FootTarget(0.06, 0.05, -0.3))
        b = ik_leg(GEOM4, FootTarget(-0.06, 0.05, -0.3))
        assert a[2] == pytest.approx(b[2], abs=1e-12)
        assert a[3] == pytest.approx(b[3], abs=1e-12)
        fa = fk_leg(GEOM4, a)
        fb = fk_leg(GEOM4, b)
        assert fa.x == pytest.approx(-fb.x, abs=1e-12)
        assert fa.z == pytest.approx(fb.z, abs=1e-12)

    def test_out_of_workspace(self):
        with pytest.raises(OutOfWorkspaceError):
            ik_leg(GEOM4, FootTarget(0.0, 0.05, -2.0))


    @pytest.mark.parametrize("knee_config", [ELBOW_UP, ELBOW_DOWN])
    def test_fold_within_tolerance_is_not_flagged(self, knee_config):
        # with l3 > l1 + l2 the folded leg (psi = pi, c = cos psi = -1) is the
        # larger root of the knee quadratic; a few ulps inward, c < -1 by noise
        geom = LegGeometry(hip_offset=(0.0, 0.0, 0.0), abd_offset=0.05,
                           link_lengths=(0.1, 0.1, 0.3), knee_config=knee_config)
        psi = math.pi if knee_config == ELBOW_UP else -math.pi
        x, y, z = fk_leg(geom, (0.0, math.pi, 2.0 * psi, FOOT_COUPLING_RATIO * 2.0 * psi))
        assert y == geom.abd_offset   # q_abd = 0: a pattern-formation target
        for _ in range(4):
            x, z = math.nextafter(x, 0.0), math.nextafter(z, 0.0)
        z_leg = -math.sqrt(y * y + z * z - geom.dd)
        disc = geom.qbqb - geom.four_qa * (geom.qk0 - (x * x + z_leg * z_leg))
        c = (-geom.qb + math.sqrt(disc)) / geom.two_qa
        assert -1.0 - _CLAMP_TOL < c < -1.0
        q, clamped = _solve(geom, x, y, z)
        assert not clamped
        kernel, flags = _Legs(SimpleNamespace(legs=[geom] * 4)).ik(
            *(np.full((1, 4), v) for v in (x, z)))
        assert [tuple(leg) for leg in kernel[0].tolist()] == [q] * 4
        assert flags.tolist() == [[clamped] * 4]


class TestWorkspaceProperties:
    def test_inside_never_raises_outside_always_does(self):
        rng = random.Random(9)
        geom = GEOM3_UP
        l1, l2 = geom.link_lengths
        hi = l1 + l2
        for _ in range(500):
            phi = rng.uniform(-1.0, 1.0)
            # strictly inside: reach in (0.3*hi, 0.98*hi)
            rho = rng.uniform(0.3 * hi, 0.98 * hi)
            x = rho * math.sin(phi)
            z_leg = -rho * math.cos(phi)
            foot = fk_leg(geom, ik_leg(geom, FootTarget(
                x, geom.abd_offset, z_leg)))  # also a roundtrip probe
            assert math.hypot(foot.x, -math.sqrt(foot.y ** 2 + foot.z ** 2
                                                 - geom.abd_offset ** 2)) < hi
            # strictly outside
            rho_out = rng.uniform(1.02 * hi, 2.0 * hi)
            with pytest.raises(OutOfWorkspaceError):
                ik_leg(geom, FootTarget(rho_out * math.sin(phi),
                                        geom.abd_offset,
                                        -rho_out * math.cos(phi)))

    def test_abduction_decoupled_from_x(self):
        for x in (-0.1, 0.0, 0.08, 0.15):
            q = ik_leg(GEOM3_UP, FootTarget(x, 0.09, -0.3))
            q_ref = ik_leg(GEOM3_UP, FootTarget(0.0, 0.09, -0.3))
            assert q[0] == pytest.approx(q_ref[0], abs=1e-12)

    def test_knee_sign_fixed_per_branch(self):
        rng = random.Random(13)
        for _ in range(300):
            x = rng.uniform(-0.15, 0.15)
            z = rng.uniform(-0.38, -0.15)
            y = rng.uniform(0.0, 0.12)
            try:
                q_up = ik_leg(GEOM3_UP, FootTarget(x, y, z))
                q_down = ik_leg(GEOM3_DOWN, FootTarget(x, y, z))
            except OutOfWorkspaceError:
                continue
            assert q_up[2] >= 0.0
            assert q_down[2] <= 0.0


class TestAllFeet:
    def test_a1_standing_feet_height(self):
        robot = builtin_registry().get("A1")
        q_all = []
        for leg, pf in zip(robot.legs, [robot.pf] * 4):
            target = FootTarget(pf.x_off, leg.abd_offset, -pf.h)
            q_all.append(ik_leg(leg, target))
        feet = fk_all_feet(robot, q_all)
        for foot in feet:
            assert foot[2] == pytest.approx(-0.30, abs=1e-9)

    def test_zero_joints(self):
        robot = builtin_registry().get("A1")
        feet = fk_all_feet(robot, [(0.0, 0.0, 0.0)] * 4)
        for leg, foot in zip(robot.legs, feet):
            span = sum(leg.link_lengths)
            assert foot[0] == pytest.approx(leg.hip_offset[0])
            assert foot[1] == pytest.approx(leg.hip_offset[1] + leg.abd_offset)
            assert foot[2] == pytest.approx(-span)

    def test_matches_per_leg_oracle(self):
        rng = random.Random(17)
        for name in ("A1", "Solo", "Dog2"):
            robot = builtin_registry().get(name)
            q_all = [sample_q(rng, leg) for leg in robot.legs]
            feet = fk_all_feet(robot, q_all)
            for leg, q, foot in zip(robot.legs, q_all, feet):
                expected = fk_oracle(leg, q) + np.asarray(leg.hip_offset)
                assert np.allclose(foot, expected, atol=1e-12)

    def test_wrong_leg_count(self):
        robot = builtin_registry().get("A1")
        with pytest.raises(ValueError):
            fk_all_feet(robot, [(0.0, 0.0, 0.0)] * 3)


@st.composite
def leg_and_pose(draw):
    """A valid random leg geometry and joint angles on its IK branch: the
    knee bent away from straight and folded, the foot below the hip."""
    n_links = draw(st.sampled_from([2, 3]))
    links = tuple(draw(st.floats(0.05, 0.4)) for _ in range(n_links))
    geom = LegGeometry(
        hip_offset=tuple(draw(st.floats(-0.5, 0.5)) for _ in range(3)),
        abd_offset=draw(st.floats(-0.12, 0.12)), link_lengths=links,
        knee_config=draw(st.sampled_from([ELBOW_UP, ELBOW_DOWN])))
    sign = 1.0 if geom.knee_config == ELBOW_UP else -1.0
    q_abd, hip = draw(st.floats(-0.8, 0.8)), draw(st.floats(-1.2, 1.2))
    if n_links == 2:
        q = (q_abd, hip, sign * draw(st.floats(0.05, 2.5)))
    else:
        knee = 2.0 * sign * draw(st.floats(0.05, 1.2))
        q = (q_abd, hip, knee, FOOT_COUPLING_RATIO * knee)
    pitch, z_planar = 0.0, 0.0
    for link, angle in zip(links, q[1:]):
        pitch += angle
        z_planar -= link * math.cos(pitch)
    assume(z_planar <= -0.1 * geom.max_reach)
    return geom, q


class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(leg_and_pose())
    def test_fk_ik_roundtrip_over_random_geometries(self, leg_q):
        geom, q_star = leg_q
        target = fk_leg(geom, q_star)
        q, clamped = _solve(geom, *target)
        assert not clamped
        assert fk_leg(geom, q) == pytest.approx(tuple(target), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(builtin_registry().names()), data=st.data())
    def test_fk_leg_plus_hip_offset_is_fk_all_feet(self, name, data):
        robot = builtin_registry().get(name)
        angle = st.floats(-math.pi, math.pi)
        q_all = [tuple(data.draw(angle) for _ in range(leg.dof)) for leg in robot.legs]
        feet = fk_all_feet(robot, q_all)
        for leg, q, foot in zip(robot.legs, q_all, feet):
            assert tuple(f + h for f, h in zip(fk_leg(leg, q), leg.hip_offset)) == foot


def tiny_angles():
    """Angles below TINY_ANGLE: 2,001 in each of the 33 octaves under it, the
    largest float below it, the smallest normal and subnormal and zero, each
    with both signs."""
    values = [0.0, 5e-324, 2.0 ** -1022, math.nextafter(TINY_ANGLE, 0.0)]
    for k in range(1, 34):
        values += np.linspace(TINY_ANGLE / 2.0 ** k, TINY_ANGLE / 2.0 ** (k - 1), 2001,
                              endpoint=False).tolist()
    values = np.array(values)
    assert values.max() < TINY_ANGLE
    return np.concatenate((values, -values))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestTinyAngleIsItsOwnWrap:
    """Below TINY_ANGLE both solvers skip the abduction's wrap, and the FK its
    rotation's cos and sin: there atan2(sin a, cos a) is a, sin a is a and
    cos a is 1.0, bit for bit, the sign of zero included."""

    def test_scalar_wrap(self):
        angles = tiny_angles()
        wrapped = [math.atan2(math.sin(a), math.cos(a)) for a in angles.tolist()]
        assert np.array_equal(bits(wrapped), bits(angles))

    def test_kernel_wrap(self):
        angles = tiny_angles()
        assert np.array_equal(bits(_wrap(angles)), bits(angles))

    def test_sin_and_cos(self):
        angles = tiny_angles().tolist()
        assert np.array_equal(bits([math.sin(a) for a in angles]), bits(angles))
        assert {math.cos(a) for a in angles} == {1.0}


def old_abduction(d, y, z):
    """The abduction step as the solvers ran it before their per-leg constants."""
    rr = y * y + z * z
    dd = d * d
    clamped = False
    if rr < dd:
        clamped = rr < dd * (1.0 - _CLAMP_TOL)
        rr = dd
    z_leg = -math.sqrt(rr - dd)
    ratio = d / math.sqrt(rr) if rr > 0.0 else 1.0
    ratio = min(1.0, max(-1.0, ratio))
    q_abd = math.atan2(z, y) + math.acos(ratio)
    q_abd = math.atan2(math.sin(q_abd), math.cos(q_abd))
    return q_abd, z_leg, clamped


def old_solve_3dof(geom, x, y, z):
    """_solve on a 3-DoF leg, computing its constants on every call."""
    l1, l2 = geom.link_lengths
    q_abd, z_leg, clamped = old_abduction(geom.abd_offset, y, z)
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
        if rho > lo * 2.0 ** -1022:   # else the hip, or next to it
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


def old_solve_4dof(geom, x, y, z):
    """_solve on a 4-DoF leg, computing its constants on every call."""
    l1, l2, l3 = geom.link_lengths
    q_abd, z_leg, clamped = old_abduction(geom.abd_offset, y, z)
    rho2 = x * x + z_leg * z_leg
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
        if c < -1.0 - _CLAMP_TOL:
            clamped = True
        c = -1.0
    psi = math.acos(c)
    if geom.knee_config == ELBOW_DOWN:
        psi = -psi
    knee = 2.0 * psi
    foot = FOOT_COUPLING_RATIO * knee
    a = l1 + l3 * math.cos(psi) + l2 * math.cos(2.0 * psi)
    b = l3 * math.sin(psi) + l2 * math.sin(2.0 * psi)
    u, v = -x, -z_leg
    if clamped:
        norm = math.hypot(u, v)
        if not norm > math.hypot(a, b) * 2.0 ** -1022:   # the hip, or next to it
            u, v = 0.0, math.hypot(a, b)
        else:
            scale = math.hypot(a, b) / norm
            u, v = u * scale, v * scale
    hip = math.atan2(u, v) - math.atan2(b, a)
    hip = math.atan2(math.sin(hip), math.cos(hip))
    return (q_abd, hip, knee, foot), clamped


def outcome(solve, geom, target):
    """A solver's result, or the type of what it raised, as repr: NaN-aware
    and telling -0.0 from 0.0."""
    try:
        return repr(solve(geom, *target))
    except (ValueError, OverflowError) as err:
        return type(err).__name__


@st.composite
def geometry_and_target(draw):
    """A random valid leg and a target: anywhere, inside the abduction
    circle, beyond reach, within a few 1e-9 of either boundary (where the
    clamp tolerance decides the flag), on the abduction circle straight
    below (rho == 0) or with a non-finite coordinate."""
    n_links = draw(st.sampled_from([2, 3]))
    geom = LegGeometry(
        hip_offset=(0.0, 0.0, 0.0),
        abd_offset=draw(st.sampled_from([0.0]) | st.floats(-0.15, 0.15)),
        link_lengths=tuple(draw(st.floats(0.02, 0.5)) for _ in range(n_links)),
        knee_config=draw(st.sampled_from([ELBOW_UP, ELBOW_DOWN])))
    d, reach = geom.abd_offset, geom.max_reach
    angle = draw(st.floats(-math.pi, math.pi))
    kind = draw(st.sampled_from(["any", "inside", "beyond", "rim", "reach", "rho0",
                                 "non-finite"]))
    near_one = 1.0 + draw(st.floats(-3e-9, 3e-9))
    x = draw(st.floats(-1.0, 1.0))
    if kind == "any":
        y, z = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    elif kind == "inside":
        radius = abs(d) * draw(st.floats(0.0, 1.0, exclude_max=True))
        y, z = radius * math.cos(angle), radius * math.sin(angle)
    elif kind == "rim":
        y, z = d * near_one * math.cos(angle), d * near_one * math.sin(angle)
    elif kind in ("beyond", "reach"):
        scale = draw(st.floats(1.0, 4.0)) if kind == "beyond" else near_one
        x, y, z = (reach * scale * math.sin(angle), d,
                   -reach * scale * math.cos(angle))
    elif kind == "rho0":
        x, y, z = 0.0, d * math.cos(angle), d * math.sin(angle)
    else:
        y, z = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        coords = [x, y, z]
        coords[draw(st.integers(0, 2))] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
        x, y, z = coords
    return geom, (x, y, z)


class TestSolversEqualTheirPerCallForm:
    """The solvers that read LegGeometry's constants == the per-call ones."""

    @settings(max_examples=1500, deadline=None)
    @given(geometry_and_target())
    def test_random_geometries_and_targets(self, case):
        geom, target = case
        old = old_solve_3dof if geom.dof == 3 else old_solve_4dof
        assert outcome(_solve, geom, target) == outcome(old, geom, target)

    @pytest.mark.parametrize("geom", [GEOM3_UP, GEOM3_DOWN])
    def test_nan_cos_knee_clamps_to_minus_one(self, geom):
        # x = NaN leaves rho NaN, so no reach branch runs and cos_knee is
        # NaN; min(1.0, max(-1.0, NaN)) is -1.0, the folded knee
        q, _ = _solve(geom, math.nan, 0.05, -0.3)
        assert q[2] == (math.pi if geom.knee_config == ELBOW_UP else -math.pi)

    def test_every_builtin_leg(self):
        rng = random.Random(29)
        for robot in builtin_registry():
            for geom in robot.legs:
                old = old_solve_3dof if geom.dof == 3 else old_solve_4dof
                for _ in range(200):
                    target = (rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3),
                              rng.uniform(-0.9, 0.2))
                    assert outcome(_solve, geom, target) == outcome(old, geom, target)


@pytest.mark.parametrize("links", [(0.5, 0.25), (1.0, 0.5, 0.3)])
def test_a_target_next_to_the_hip_solves_as_the_hip(links):
    """A target so near the hip that the reach clamp's scale overflows has no
    direction to keep: it solves as the hip itself, not to NaN."""
    geom = LegGeometry((0.0, 0.0, 0.0), 0.0, links)
    q, clamped = _solve(geom, 5e-324, 0.0, 0.0)
    assert all(map(math.isfinite, q))
    assert (q, clamped) == _solve(geom, 0.0, 0.0, 0.0)


def excursions(geom, x, y, z):
    """How far a target goes past each boundary that a clamp test of its
    solver compares it with, in that test's quantity and relative to the
    boundary: (dd - rr) / dd; on 3-DoF legs (rho - hi) / hi and
    (lo - rho) / lo; on 4-DoF legs -disc / qbqb and |c| - 1.  Each quantity
    is computed as the solver computes it; a test that cannot fire (dd or
    lo zero) gives -inf."""
    rr = y * y + z * z
    out = [(geom.dd - rr) / geom.dd if geom.dd > 0.0 else -math.inf]
    z_leg = -math.sqrt(max(rr, geom.dd) - geom.dd)
    if geom.dof == 3:
        rho = math.hypot(x, z_leg)
        out += [(rho - geom.hi) / geom.hi,
                (geom.lo - rho) / geom.lo if geom.lo > 0.0 else -math.inf]
    else:
        disc = geom.qbqb - geom.four_qa * (geom.qk0 - (x * x + z_leg * z_leg))
        c = (-geom.qb + math.sqrt(max(disc, 0.0))) / geom.two_qa
        out += [-disc / geom.qbqb, abs(c) - 1.0]
    return out


@st.composite
def boundary_target(draw):
    """A random leg and the FK of one of its boundary poses, scaled by
    1 + k * _CLAMP_TOL with |k| <= 4.  The pose has the knee straight or
    folded (psi = 0 or pi on 4-DoF legs) or at the knee quadratic's vertex,
    and its hip turned at random or so that the foot lies on the abduction
    circle (rr == dd)."""
    n_links = draw(st.sampled_from([2, 3]))
    geom = LegGeometry(
        hip_offset=(0.0, 0.0, 0.0), abd_offset=draw(st.floats(-0.15, 0.15)),
        link_lengths=tuple(draw(st.floats(0.02, 0.5)) for _ in range(n_links)),
        knee_config=draw(st.sampled_from([ELBOW_UP, ELBOW_DOWN])))
    sign = -1.0 if geom.elbow_down else 1.0
    if n_links == 2:
        pitches = (sign * draw(st.sampled_from([0.0, math.pi])),)
    else:
        psis = [0.0, math.pi]
        vertex = -geom.qb / geom.two_qa
        if vertex >= -1.0:
            psis.append(math.acos(vertex))
        knee = 2.0 * sign * draw(st.sampled_from(psis))
        pitches = (knee, FOOT_COUPLING_RATIO * knee)
    # at hip 0 the foot is (x0, z0) in the leg plane; hip h gives it the
    # plane's z = z0 cos h - x0 sin h, zero (so rr == dd) at atan2(-z0, -x0)
    x0, _, z0 = fk_leg(geom, (0.0, 0.0, *pitches))
    hip = draw(st.sampled_from([math.atan2(-z0, -x0)]) | st.floats(-math.pi, math.pi))
    target = fk_leg(geom, (draw(st.floats(-math.pi, math.pi)), hip, *pitches))
    scale = 1.0 + draw(st.floats(-4.0, 4.0)) * _CLAMP_TOL
    return geom, tuple(v * scale for v in target)


class TestClampTolerance:
    """A target less than _CLAMP_TOL / 2 past every boundary is not flagged,
    one more than 2 * _CLAMP_TOL past any boundary is; the kernel's IK
    returns the scalar solver's joints on each target's pattern-formation
    form, which has y = abd_offset and the same leg-plane point, so it
    meets the reach and knee boundaries but never the abduction circle's."""

    @settings(max_examples=1500, deadline=None)
    @given(boundary_target())
    def test_flag_follows_the_excursion(self, case):
        geom, target = case
        worst = max(excursions(geom, *target))
        q, clamped = _solve(geom, *target)
        if worst < _CLAMP_TOL / 2:
            assert not clamped
        if worst > 2 * _CLAMP_TOL:
            assert clamped
        x, y, z = target
        pf_z = -math.sqrt(max(y * y + z * z, geom.dd) - geom.dd)
        q, clamped = _solve(geom, x, geom.abd_offset, pf_z)
        kernel, flags = _Legs(SimpleNamespace(legs=[geom] * 4)).ik(
            *(np.full((1, 4), v) for v in (x, pf_z)))
        assert [tuple(leg) for leg in kernel[0].tolist()] == [q] * 4
        assert flags.tolist() == [[clamped] * 4]

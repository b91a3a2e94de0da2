import math

import pytest

from quadcpg.foot_trajectory import FootTarget, PfParams, foot_target
from quadcpg.oscillator import OscillatorState
from quadcpg.registry import builtin_registry

A1_PF = PfParams(h=0.30, l_step=0.13, l_clrnc=0.07, l_pntr=0.01, x_off=0.0)


def target(r, theta, params=A1_PF, y=0.0):
    return foot_target(OscillatorState(r, 0.0, theta, 0.0), params, y)


class TestFootTarget:
    def test_swing_apex(self):
        t = target(1.0, math.pi / 2.0)
        assert t.x == pytest.approx(0.0, abs=1e-15)
        assert t.z == pytest.approx(-0.23)

    def test_stance_branch_at_zero_phase(self):
        # sin(0) = 0 is not > 0, so the stance branch applies
        t = target(1.0, 0.0)
        assert t.x == pytest.approx(-0.13)
        assert t.z == pytest.approx(-0.30)

    def test_zero_amplitude_collapses_stride(self):
        for theta in (0.0, 0.7, math.pi, 4.0):
            assert target(0.0, theta).x == pytest.approx(A1_PF.x_off, abs=1e-15)

    def test_stance_bottom(self):
        t = target(1.0, 1.5 * math.pi)
        assert t.z == pytest.approx(-0.31)

    def test_lateral_is_constant(self):
        params = PfParams(h=0.3, l_step=0.1, l_clrnc=0.05, l_pntr=0.01)
        for theta in (0.0, 1.0, 2.0, 5.0):
            assert target(1.0, theta, params, 0.04).y == 0.04


class TestProperties:
    def test_continuity_at_swing_stance_boundary(self):
        # both branches evaluate to z_off - h when sin(theta) = 0
        for robot in builtin_registry():
            pf = robot.pf
            base = pf.z_off - pf.h
            for theta0 in (0.0, math.pi):
                below = target(1.0, theta0 - 1e-9, pf).z
                at = target(1.0, theta0, pf).z
                above = target(1.0, theta0 + 1e-9, pf).z
                assert at == pytest.approx(base, abs=1e-15)
                assert abs(below - base) < 1e-7
                assert abs(above - base) < 1e-7

    def test_fine_sweep_is_continuous(self):
        prev = None
        n = 20000
        for k in range(n + 1):
            z = target(1.0, 2.0 * math.pi * k / n).z
            if prev is not None:
                assert abs(z - prev) < 1e-3
            prev = z

    def test_swing_fraction_is_half(self):
        n = 100000
        swing = sum(1 for k in range(n)
                    if math.sin(2.0 * math.pi * k / n) > 0.0)
        assert swing / n == pytest.approx(0.5, abs=1e-4)

    def test_x_range_and_z_peak_over_cycle(self):
        r_star = 0.8
        xs = []
        zs = []
        for k in range(4000):
            t = target(r_star, 2.0 * math.pi * k / 4000)
            xs.append(t.x)
            zs.append(t.z)
        assert min(xs) == pytest.approx(A1_PF.x_off - A1_PF.l_step * r_star)
        assert max(xs) == pytest.approx(A1_PF.x_off + A1_PF.l_step * r_star)
        assert max(zs) == pytest.approx(A1_PF.z_off - A1_PF.h + A1_PF.l_clrnc,
                                        abs=1e-6)

    def test_step_length_scales_linearly(self):
        doubled = PfParams(h=A1_PF.h, l_step=2 * A1_PF.l_step,
                           l_clrnc=A1_PF.l_clrnc, l_pntr=A1_PF.l_pntr,
                           x_off=A1_PF.x_off)
        for theta in (0.0, 0.9, 2.5, 4.4):
            x1 = target(1.0, theta).x - A1_PF.x_off
            x2 = target(1.0, theta, doubled).x - A1_PF.x_off
            assert x2 == pytest.approx(2.0 * x1)


class TestParamsFromDescriptor:
    """One stride shape per robot; each leg's lateral offset is its own."""

    def test_solo(self):
        pf = builtin_registry().get("Solo").pf
        assert (pf.h, pf.l_step, pf.l_clrnc, pf.l_pntr, pf.x_off) == \
            pytest.approx((0.25, 0.10, 0.05, 0.005, 0.037))

    def test_dog3(self):
        pf = builtin_registry().get("Dog3").pf
        assert (pf.h, pf.l_step, pf.l_clrnc, pf.l_pntr, pf.x_off) == \
            pytest.approx((1.00, 0.36, 0.09, 0.02, 0.0))

    def test_anymal_b_zero_penetration(self):
        assert builtin_registry().get("Anymal-B").pf.l_pntr == 0.0

    def test_signed_lateral_offsets(self):
        for robot in builtin_registry():
            fr, fl, rr, rl = (leg.abd_offset for leg in robot.legs)
            assert fr < 0.0 and rr < 0.0
            assert fl > 0.0 and rl > 0.0
            assert fl == rl == -fr == -rr
            for leg in robot.legs:
                assert target(0.7, 2.0, robot.pf, leg.abd_offset).y == leg.abd_offset


class TestValidation:
    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            PfParams(h=0.0, l_step=0.1, l_clrnc=0.05, l_pntr=0.01)

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            PfParams(h=0.3, l_step=-0.1, l_clrnc=0.05, l_pntr=0.01)

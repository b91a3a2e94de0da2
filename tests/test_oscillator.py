import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcpg.environment import CONTROL_DT, N_SUBSTEPS
from quadcpg.oscillator import (ALPHA, DT_INTEGRATION, MU_MAX, MU_MIN, OMEGA_MAX_HZ,
                                OMEGA_MIN_HZ, TWO_PI, CpgCommand, CpgConfig,
                                InvalidCommandError, OscillatorState, advance,
                                amplitude_settled, clamp_command, closed_form_amplitude,
                                init_cpg, step_oscillator)


def integrate(state, mu, omega, t):
    n = int(round(t / DT_INTEGRATION))
    for _ in range(n):
        state = step_oscillator(state, mu, omega)
    return state


class TestStepOscillator:
    def test_equilibrium_is_fixed_point(self):
        state = OscillatorState(1.0, 0.0, 0.0, 0.0)
        new = step_oscillator(state, 1.0, 0.0)
        assert new.r == pytest.approx(1.0, abs=1e-15)
        assert new.r_dot == pytest.approx(0.0, abs=1e-15)
        assert new.theta == 0.0

    def test_amplitude_matches_closed_form_at_0p2s(self):
        # r(t) = 1 - (1 + 25 t) e^{-25 t} for mu=1, alpha=50, rest start
        state = integrate(OscillatorState(0.0, 0.0, 0.0, 0.0), 1.0, 0.0, 0.2)
        expected = 1.0 - (1.0 + 25.0 * 0.2) * math.exp(-25.0 * 0.2)
        assert expected == pytest.approx(0.95957, abs=5e-6)
        assert state.r == pytest.approx(expected, abs=1e-3)

    def test_phase_advance_quarter_turn(self):
        state = integrate(OscillatorState(0.0, 0.0, 0.0, 0.0), 1.0, 2.5, 0.1)
        assert state.theta == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert state.theta_dot == pytest.approx(TWO_PI * 2.5)

    def test_non_finite_state_rejected(self):
        with pytest.raises(InvalidCommandError):
            step_oscillator(OscillatorState(math.nan, 0.0, 0.0, 0.0), 1.0, 1.0)
        with pytest.raises(InvalidCommandError):
            step_oscillator(OscillatorState(0.0, 0.0, 0.0, 0.0), math.inf, 1.0)


class TestAdvance:
    def test_arrays_equal_floats_elementwise(self):
        rng = random.Random(5)
        lanes = [(rng.uniform(0.0, 4.0), rng.uniform(-50.0, 50.0),
                  rng.uniform(MU_MIN, MU_MAX), TWO_PI * rng.uniform(0.0, 5.0),
                  rng.uniform(0.0, TWO_PI)) for _ in range(50)]
        floats = [advance(*lane) for lane in lanes]
        arrays = advance(*(np.array(column) for column in zip(*lanes)))
        assert [list(row) for row in zip(*(a.tolist() for a in arrays))] == floats

    def test_phases_share_one_amplitude_step(self):
        r, r_dot, *thetas = advance(0.2, 1.5, 2.0, TWO_PI * 0.7, 0.0, 1.0, 6.0)
        for theta, new in zip((0.0, 1.0, 6.0), thetas):
            state = step_oscillator(OscillatorState(0.2, 1.5, theta, 0.0), 2.0, 0.7)
            assert state[:3] == (r, r_dot, new)


def substeps_to_settle(mu):
    """Substeps of `advance` from rest until (r, r_dot) is a fixed point,
    with that point; None if it does not settle within 10 s."""
    r = r_dot = 0.0
    for n in range(10_000):
        r_next, rd_next = advance(r, r_dot, mu, 0.0)
        if amplitude_settled(r, r_dot, r_next, rd_next):
            return n, (r, r_dot)
        r, r_dot = r_next, rd_next
    return None


class TestAmplitudeSettled:
    def test_fires_on_a_nonzero_fixed_point_only(self):
        assert amplitude_settled(1.0, 1e-14, 1.0, 1e-14)
        assert amplitude_settled(-2.0, -3e-15, -2.0, -3e-15)
        assert not amplitude_settled(1.0, 1e-14, 1.0, 2e-14)
        assert not amplitude_settled(1.0, 1e-14, 1.0 + 2 ** -52, 1e-14)

    @pytest.mark.parametrize("r, r_dot, r_next, rd_next", [
        (math.nan, 1e-14, math.nan, 1e-14), (1.0, math.nan, 1.0, math.nan),
        (math.nan, math.nan, math.nan, math.nan)])
    def test_never_fires_on_nan(self, r, r_dot, r_next, rd_next):
        assert not amplitude_settled(r, r_dot, r_next, rd_next)

    @pytest.mark.parametrize("a, b", [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)])
    def test_never_fires_on_zeros(self, a, b):
        assert not amplitude_settled(1.0, a, 1.0, b)
        assert not amplitude_settled(a, 1e-14, b, 1e-14)
        assert not amplitude_settled(a, a, b, b)

    @pytest.mark.parametrize("mu", [MU_MIN, 1.0, 2.5, MU_MAX])
    def test_box_settles_from_rest_in_the_measured_band(self, mu):
        # the premise of the trajectory's settled branch: if a change to
        # advance stops the amplitude settling, this says so
        n, (r, r_dot) = substeps_to_settle(mu)
        assert 2154 <= n <= 2184
        assert r_dot != 0.0

    def test_a_settled_amplitude_holds_bit_for_bit(self):
        _, point = substeps_to_settle(MU_MAX)
        r, r_dot, theta = *point, 0.0
        for _ in range(5_000):
            r, r_dot, theta = advance(r, r_dot, MU_MAX, TWO_PI * 5.0, theta)
            assert (r.hex(), r_dot.hex()) == (point[0].hex(), point[1].hex())


class TestClampCommand:
    def test_limits(self):
        cmd = clamp_command([5.0, 0.0, 1.0, 2.0, -1.0, 6.0, 2.0, 0.0])
        assert cmd.mu == (4.0, 0.5, 1.0, 2.0)
        assert cmd.omega == (0.0, 5.0, 2.0, 0.0)

    def test_in_range_identity_and_idempotence(self):
        raw = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        cmd = clamp_command(raw)
        assert cmd.mu == (1.0,) * 4 and cmd.omega == (2.0,) * 4
        again = clamp_command(list(cmd.mu) + list(cmd.omega))
        assert again == cmd

    def test_nan_rejected(self):
        with pytest.raises(InvalidCommandError):
            clamp_command([math.nan] + [1.0] * 7)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidCommandError):
            clamp_command([1.0] * 7)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8))
    def test_idempotent(self, raw):
        cmd = clamp_command(raw)
        assert repr(clamp_command(cmd.mu + cmd.omega)) == repr(cmd)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats() | st.integers(-10, 10) | st.booleans()
                    | st.sampled_from(["1.5", "-0.0", "nan", "inf", "x", None]),
                    min_size=6, max_size=10))
    def test_equals_its_loop_form(self, raw):
        assert command_outcome(clamp_command, raw) == command_outcome(loop_clamp_command, raw)


def loop_clamp_command(raw):
    """clamp_command as it was written before its clamps were unpacked."""
    values = [float(v) for v in raw]
    if len(values) != 8:
        raise InvalidCommandError(f"command must have 8 entries, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise InvalidCommandError(f"non-finite command entries in {values!r}")
    mu = tuple(min(max(v, MU_MIN), MU_MAX) for v in values[:4])
    omega = tuple(min(max(v, OMEGA_MIN_HZ), OMEGA_MAX_HZ) for v in values[4:])
    return CpgCommand(mu, omega)


def command_outcome(clamp, raw):
    """The command as repr (which tells -0.0 from 0.0), or what was raised."""
    try:
        return repr(clamp(raw))
    except (InvalidCommandError, TypeError, ValueError) as err:
        return type(err).__name__, str(err)


class TestClosedForm:
    def test_steady_state(self):
        assert closed_form_amplitude(1.0, 50.0, 0.0, 0.0, 100.0) == pytest.approx(1.0)

    def test_initial_condition(self):
        assert closed_form_amplitude(1.0, 50.0, 0.0, 0.0, 0.0) == 0.0

    def test_reference_value(self):
        assert closed_form_amplitude(1.0, 50.0, 0.0, 0.0, 0.2) == pytest.approx(
            0.95957, abs=5e-6)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            closed_form_amplitude(1.0, -1.0, 0.0, 0.0, 0.1)


class TestInitCpg:
    def test_trot_offsets(self):
        bank = init_cpg((0.0, math.pi, math.pi, 0.0))
        assert [s.theta for s in bank] == [0.0, math.pi, math.pi, 0.0]
        assert all(s.r == 0.0 and s.r_dot == 0.0 and s.theta_dot == 0.0
                   for s in bank)

    def test_all_in_phase(self):
        bank = init_cpg((0.0,) * 4)
        assert [s.theta for s in bank] == [0.0] * 4

    def test_wrap_convention(self):
        bank = init_cpg((3.0 * math.pi, 0.0, 0.0, 0.0))
        assert bank[0].theta == pytest.approx(math.pi)

    def test_non_finite_phase_rejected(self):
        with pytest.raises(InvalidCommandError):
            init_cpg((math.nan, 0.0, 0.0, 0.0))


class TestProperties:
    def test_oracle_equivalence_random_mu(self):
        # integration tracks the closed form within 1e-3 over [0, 2] s
        rng = random.Random(7)
        for _ in range(10):
            mu = rng.uniform(MU_MIN, MU_MAX)
            state = OscillatorState(0.0, 0.0, 0.0, 0.0)
            for n in range(2000):
                state = step_oscillator(state, mu, 0.0)
                t = (n + 1) * DT_INTEGRATION
                exact = closed_form_amplitude(mu, ALPHA, 0.0, 0.0, t)
                assert abs(state.r - exact) < 1e-3

    def test_no_overshoot_monotone_from_rest(self):
        for mu in (0.5, 1.0, 4.0):
            state = OscillatorState(0.0, 0.0, 0.0, 0.0)
            prev = 0.0
            for _ in range(2000):
                state = step_oscillator(state, mu, 0.0)
                assert state.r >= prev - 1e-15
                assert state.r <= mu + 1e-12
                prev = state.r

    def test_amplitude_stays_nonnegative(self):
        state = OscillatorState(0.5, 0.0, 0.0, 0.0)
        for _ in range(2000):
            state = step_oscillator(state, 0.5, 3.0)
            assert state.r >= 0.0

    def test_phase_linearity_independent_of_amplitude(self):
        # same omega, different mu: phases stay identical step for step
        a = OscillatorState(0.0, 0.0, 1.0, 0.0)
        b = OscillatorState(0.0, 0.0, 1.0, 0.0)
        for _ in range(500):
            a = step_oscillator(a, 0.5, 3.3)
            b = step_oscillator(b, 4.0, 3.3)
            assert a.theta == b.theta

    def test_phase_wrap_range(self):
        state = OscillatorState(0.0, 0.0, 0.0, 0.0)
        for _ in range(3000):
            state = step_oscillator(state, 1.0, 5.0)
            assert 0.0 <= state.theta < TWO_PI


class TestConstants:
    def test_substeps_span_control_period_exactly(self):
        assert N_SUBSTEPS * DT_INTEGRATION == CONTROL_DT

    def test_config_record_reads_the_constants(self):
        assert CpgConfig() == CpgConfig()
        assert CpgConfig().alpha == ALPHA
        assert CpgConfig().dt_integration == DT_INTEGRATION
        with pytest.raises(TypeError):
            CpgConfig(alpha=10.0)

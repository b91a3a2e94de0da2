import csv
import io
import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadcpg.controllers import open_loop_trot
from quadcpg.environment import CONTROL_DT, N_SUBSTEPS
from quadcpg.foot_trajectory import foot_target
from quadcpg.oscillator import (MU_MAX, MU_MIN, OMEGA_MAX_HZ, OMEGA_MIN_HZ, TROT_PHASES,
                                init_cpg, step_oscillator)
from quadcpg.registry import builtin_registry
from quadcpg.rollout import (read_record_csv, record_columns,
                             run_open_loop_trajectory, run_rollout,
                             trajectory_columns, write_csv, write_record_csv,
                             write_record_manifest)

REG = builtin_registry()
A1 = REG.get("A1")


class TestOpenLoopTrajectory:
    def test_row_count_and_swing_height(self):
        columns, rows = run_open_loop_trajectory(A1, 1.0, 2.5, 2.0)
        assert columns == trajectory_columns()
        assert len(rows) == 200
        iz = columns.index("foot_z_fr")
        zs = [row[iz] for row in rows]
        # apex at -h + L_clrnc, stance bottom at -h - L_pntr
        assert max(zs) == pytest.approx(-0.23, abs=1e-9)
        assert min(zs) == pytest.approx(-0.31, abs=1e-9)

    def test_zero_frequency_rows_identical_after_settle(self):
        columns, rows = run_open_loop_trajectory(A1, 1.0, 0.0, 2.0)
        settled = rows[100:]
        for row in settled[1:]:
            assert row[1:] == pytest.approx(settled[0][1:], abs=1e-9)

    def test_dog3_stride_span(self):
        columns, rows = run_open_loop_trajectory(REG.get("Dog3"), 1.0, 2.5, 2.0)
        ix = columns.index("foot_x_fr")
        xs = [row[ix] for row in rows[-40:]]  # last full cycle, r settled
        assert max(xs) - min(xs) == pytest.approx(2 * 0.36, rel=1e-3)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            run_open_loop_trajectory(A1, 1.0, 2.5, 0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.004])
    def test_duration_boundary(self, duration):
        with pytest.raises(ValueError, match="duration"):
            run_open_loop_trajectory(A1, 1.0, 2.5, duration)


def substep_trajectory(robot, mu, omega, duration):
    """The trajectory as a per-substep loop of step_oscillator and foot_target."""
    cpg = init_cpg(TROT_PHASES)
    rows = []
    for k in range(int(round(duration / CONTROL_DT))):
        for _ in range(N_SUBSTEPS):
            cpg = [step_oscillator(state, mu, omega) for state in cpg]
        row = [(k + 1) * CONTROL_DT]
        row += [s.r for s in cpg]
        row += [s.theta for s in cpg]
        for state, leg in zip(cpg, robot.legs):
            row += foot_target(state, robot.pf, leg.abd_offset)
        rows.append(row)
    return rows


def assert_same_as_substep_loop(robot, mu, omega, duration, tmp_path):
    columns, rows = run_open_loop_trajectory(robot, mu, omega, duration)
    oracle = substep_trajectory(robot, mu, omega, duration)
    assert rows == oracle
    write_csv(columns, rows, str(tmp_path / "traj.csv"))
    write_csv(columns, oracle, str(tmp_path / "oracle.csv"))
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestTrajectoryEqualsSubstepLoop:
    """Rows == and CSV bytes equal to a per-substep oracle loop."""

    @pytest.mark.parametrize("name", REG.names())
    def test_every_robot(self, name, tmp_path):
        robot = REG.get(name)
        rng = random.Random(name)
        commands = [(MU_MIN, OMEGA_MIN_HZ), (MU_MIN, OMEGA_MAX_HZ), (MU_MAX, OMEGA_MIN_HZ),
                    (MU_MAX, OMEGA_MAX_HZ)] + [
            (rng.uniform(MU_MIN, MU_MAX), rng.uniform(OMEGA_MIN_HZ, OMEGA_MAX_HZ))
            for _ in range(2)]
        for mu, omega in commands:
            assert_same_as_substep_loop(robot, mu, omega, 0.5, tmp_path)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mu=st.floats(MU_MIN, MU_MAX), omega=st.floats(OMEGA_MIN_HZ, OMEGA_MAX_HZ),
           duration=st.floats(0.01, 1.0))
    def test_any_command_and_duration(self, mu, omega, duration, tmp_path):
        assert_same_as_substep_loop(A1, mu, omega, duration, tmp_path)


class TestTrajectoryMatchesRollout:
    """The open-loop trajectory and the closed-loop rollout share the
    oscillator, pattern formation and substep count, so their common
    columns agree exactly."""

    @pytest.mark.parametrize("name", ["A1", "Solo", "Dog3"])
    def test_common_columns_identical(self, name):
        robot = REG.get(name)
        columns, rows = run_open_loop_trajectory(robot, 1.0, 2.5, 3.0)
        record = run_rollout(robot, open_loop_trot(1.0, 2.5), 3.0, seed=0)
        assert record.termination_step is None
        assert len(rows) == len(record.rows) == 300
        shared = [c for c in columns if c != "t"]
        it = [columns.index(c) for c in shared]
        ir = [record.columns.index(c) for c in shared]
        t_traj, t_roll = columns.index("t"), record.columns.index("t")
        for row, rec in zip(rows, record.rows):
            assert [row[i] for i in it] == [rec[i] for i in ir]
            assert abs(row[t_traj] - rec[t_roll]) <= 1e-9


class TestRunRollout:
    def test_summary_speed(self):
        record = run_rollout(A1, open_loop_trot(1.0, 2.5), duration=5.0, seed=0)
        assert len(record.rows) == 500
        assert record.columns == record_columns()
        # full-run mean includes the amplitude ramp transient
        assert record.mean_velocity == pytest.approx(1.30, rel=0.05)
        assert record.workspace_violations == 0

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.004])
    def test_duration_boundary(self, duration):
        with pytest.raises(ValueError, match="duration"):
            run_rollout(A1, open_loop_trot(1.0, 2.5), duration, seed=0)

    def test_time_column(self):
        record = run_rollout(A1, open_loop_trot(1.0, 2.0), duration=0.5, seed=0)
        ts = [row[0] for row in record.rows]
        assert ts == pytest.approx([0.01 * (k + 1) for k in range(50)])

    def test_constant_command_columns(self):
        record = run_rollout(A1, open_loop_trot(1.3, 2.2), duration=0.3, seed=0)
        im = record.columns.index("mu_fr")
        io = record.columns.index("omega_rl")
        for row in record.rows:
            assert row[im] == 1.3
            assert row[io] == 2.2

    def test_manifest_contents(self):
        record = run_rollout(A1, open_loop_trot(1.0, 2.5), duration=0.5, seed=7)
        m = record.manifest()
        assert (m["robot"], m["duration"], m["control_dt"]) == ("A1", 0.5, 0.01)
        assert m["seed"] == 7
        assert "seed" not in m["config"]
        assert m["columns"] == record.columns
        assert m["summary"]["steps"] == 50
        assert m["summary"]["termination_step"] is None
        assert len(m["config_hash"]) == 64


class TestCommandBox:
    @pytest.mark.parametrize("mu, omega", [
        (10.0, 2.5), (-3.0, -1.0), (1.0, -1.0), (1.0, 5.5), (math.nan, 2.5),
        (1.0, math.nan), (math.inf, 2.5)])
    def test_trajectory_rejects_out_of_box_and_nan(self, mu, omega):
        with pytest.raises(ValueError, match="outside"):
            run_open_loop_trajectory(A1, mu, omega, 1.0)

    def test_box_edges_accepted(self):
        for mu, omega in [(MU_MIN, OMEGA_MIN_HZ), (MU_MAX, OMEGA_MAX_HZ)]:
            assert len(run_open_loop_trajectory(A1, mu, omega, 0.1)[1]) == 10


class TestSeed:
    def test_rollout_depends_on_seed_only_through_its_label(self):
        a = run_rollout(A1, open_loop_trot(1.0, 2.5), 0.5, seed=0)
        b = run_rollout(A1, open_loop_trot(1.0, 2.5), 0.5, seed=123456)
        assert a.rows == b.rows
        assert (a.seed, b.seed) == (0, 123456)
        assert a.config_hash() == b.config_hash()


class TestCsvRoundTrip:
    def test_write_csv_bytes_match_csv_module(self, tmp_path):
        columns = ["t", "a", "b"]
        rows = [[0.01, math.nan, math.inf], [-math.inf, -0.0, 5e-324],
                [1e300, -1e-300, 0.1 + 0.2], [1.0, 0.0, 12345678901234567.0]]
        path = tmp_path / "t.csv"
        write_csv(columns, rows, str(path))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) for v in row])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_write_read_identity(self, tmp_path):
        record = run_rollout(A1, open_loop_trot(1.0, 2.5), duration=0.5, seed=0)
        path = tmp_path / "rollout.csv"
        write_record_csv(record, str(path))
        columns, rows = read_record_csv(str(path))
        assert columns == record.columns
        assert len(rows) == len(record.rows)
        for a, b in zip(rows, record.rows):
            assert a == b  # repr round-trips floats exactly

    def test_byte_identical_for_same_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_record_csv(run_rollout(A1, open_loop_trot(1.0, 2.5), 1.0, seed=9),
                         str(p1))
        write_record_csv(run_rollout(A1, open_loop_trot(1.0, 2.5), 1.0, seed=9),
                         str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_json(self, tmp_path):
        record = run_rollout(A1, open_loop_trot(1.0, 2.5), duration=0.2, seed=0)
        path = tmp_path / "manifest.json"
        write_record_manifest(record, str(path))
        doc = json.loads(path.read_text())
        assert doc == record.manifest()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_record_csv(str(path))

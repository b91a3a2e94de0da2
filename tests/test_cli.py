import json
import math

import pytest
import yaml

from quadcpg.cli import EXIT_CONFIG, EXIT_OK, main
from quadcpg.plotting import RecordFormatError, render_rollout_svg
from quadcpg.rollout import record_columns


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRobots:
    def test_lists_sixteen(self, capsys):
        code, out, _ = run(capsys, ["robots"])
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 2 + 16  # header, rule, one row per robot
        assert any(ln.startswith("A1") for ln in lines)
        assert any(ln.startswith("Dog3") for ln in lines)

    def test_user_registry_adds_row(self, capsys, tmp_path):
        path = tmp_path / "extra.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "TestBot", "height_cm": 35.0, "mass_kg": 10.0,
            "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 12, "morphology": 1,
            "kp": 80.0, "kd": 2.0}]}))
        code, out, _ = run(capsys, ["--registry", str(path), "robots"])
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 2 + 17
        assert any(ln.startswith("TestBot") for ln in lines)

    def test_registry_env_var(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "extra.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "EnvBot", "height_cm": 35.0, "mass_kg": 10.0,
            "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 12, "morphology": 1,
            "kp": 80.0, "kd": 2.0}]}))
        monkeypatch.setenv("QUADCPG_REGISTRY", str(path))
        code, out, _ = run(capsys, ["robots"])
        assert code == EXIT_OK
        assert "EnvBot" in out

    def test_corrupt_registry_exit_config(self, capsys, tmp_path):
        path = tmp_path / "corrupt.yaml"
        path.write_text("robots: [unclosed")
        code, _, err = run(capsys, ["--registry", str(path), "robots"])
        assert code == EXIT_CONFIG
        assert "registry" in err


class TestTraj:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, [
            "traj", "--robot", "A1", "--mu", "1.0", "--omega", "2.5",
            "--duration", "2.0", "--out", str(out_path)])
        assert code == EXIT_OK
        assert "200 samples" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 201
        header = lines[0].split(",")
        iz = header.index("foot_z_fr")
        zs = [float(ln.split(",")[iz]) for ln in lines[1:]]
        assert max(zs) == pytest.approx(-0.23, abs=1e-9)
        assert min(zs) == pytest.approx(-0.31, abs=1e-9)

    def test_unknown_robot_exit_config(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "traj", "--robot", "NoSuchBot", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "NoSuchBot" in err

    @pytest.mark.parametrize("duration", ["nan", "inf", "0.004"])
    def test_bad_duration_exit_config(self, capsys, tmp_path, duration):
        out_path = tmp_path / "x.csv"
        code, _, err = run(capsys, [
            "traj", "--robot", "A1", "--duration", duration, "--out", str(out_path)])
        assert code == EXIT_CONFIG
        assert "duration" in err
        assert not out_path.exists()

    def test_out_of_limit_command_exit_config(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "traj", "--robot", "A1", "--mu", "9.0",
            "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert err == "error: mu=9.0 outside [0.5, 4.0]\n"


class TestRollout:
    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "roll.csv"
        code, out, _ = run(capsys, [
            "rollout", "--robot", "A1", "--duration", "1.0",
            "--seed", "3", "--out", str(out_path)])
        assert code == EXIT_OK
        assert "mean_velocity" in out
        assert out_path.exists()
        doc = json.loads((tmp_path / "roll.json").read_text())
        assert doc["robot"] == "A1"
        assert doc["seed"] == 3
        assert doc["summary"]["steps"] == 100

    @pytest.mark.parametrize("duration", ["nan", "inf", "0.004"])
    def test_bad_duration_exit_config(self, capsys, tmp_path, duration):
        out_path = tmp_path / "roll.csv"
        code, _, err = run(capsys, [
            "rollout", "--robot", "A1", "--duration", duration, "--out", str(out_path)])
        assert code == EXIT_CONFIG
        assert "duration" in err
        assert not out_path.exists()
        assert not (tmp_path / "roll.json").exists()

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, [
                "rollout", "--robot", "Solo", "--duration", "1.0",
                "--seed", "11", "--out", str(p)])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSearch:
    def test_small_budget(self, capsys, tmp_path):
        out_path = tmp_path / "search.json"
        code, out, _ = run(capsys, [
            "search", "--robot", "A1", "--budget", "3",
            "--horizon", "10", "--seed", "0", "--out", str(out_path)])
        assert code == EXIT_OK
        assert "best mu=" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["samples"]) == 3

    def test_zero_budget_exit_config(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "search", "--robot", "A1", "--budget", "0",
            "--out", str(tmp_path / "s.json")])
        assert code == EXIT_CONFIG
        assert "budget" in err

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_bad_horizon_exit_config(self, capsys, tmp_path, horizon):
        out_path = tmp_path / "s.json"
        code, _, err = run(capsys, [
            "search", "--robot", "A1", "--budget", "3", "--horizon", horizon,
            "--out", str(out_path)])
        assert code == EXIT_CONFIG
        assert "horizon" in err
        assert not out_path.exists()


class TestPlot:
    def test_three_panel_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "roll.csv"
        run(capsys, ["rollout", "--robot", "A1", "--duration", "0.5",
                     "--out", str(csv_path)])
        svg_path = tmp_path / "roll.svg"
        code, out, _ = run(capsys, ["plot", "--record", str(csv_path),
                                    "--out", str(svg_path)])
        assert code == EXIT_OK
        svg = svg_path.read_text()
        for panel in ("panel-velocity", "panel-frequency", "panel-amplitude"):
            assert f'id="{panel}"' in svg
        assert "<polyline" in svg

    def test_empty_record_exit_config(self, capsys, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code, _, err = run(capsys, ["plot", "--record", str(bad),
                                    "--out", str(tmp_path / "x.svg")])
        assert code == EXIT_CONFIG
        assert "cannot plot" in err

    @pytest.mark.parametrize("column, value", [
        ("vx", "nan"), ("t", "inf"), ("omega_rl", "-inf"), ("r_fr", "nan")])
    def test_non_finite_plotted_value_exit_config(self, capsys, tmp_path, column, value):
        csv_path = tmp_path / "roll.csv"
        run(capsys, ["rollout", "--robot", "A1", "--duration", "0.1",
                     "--out", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        ix = lines[0].split(",").index(column)
        cells = lines[3].split(",")
        cells[ix] = value
        lines[3] = ",".join(cells)
        csv_path.write_text("\n".join(lines))
        svg_path = tmp_path / "roll.svg"
        code, _, err = run(capsys, ["plot", "--record", str(csv_path),
                                    "--out", str(svg_path)])
        assert code == EXIT_CONFIG
        assert f"column {column!r} holds {value}" in err and "data row 3" in err
        assert not svg_path.exists()

    def test_render_raises_record_format_error(self):
        columns = record_columns()
        rows = [[float(k)] * len(columns) for k in range(3)]
        rows[2][columns.index("r_rl")] = math.nan
        with pytest.raises(RecordFormatError, match="'r_rl'.*nan.*data row 3"):
            render_rollout_svg(columns, rows)

    def test_non_finite_unplotted_value_still_plots(self, capsys, tmp_path):
        csv_path = tmp_path / "roll.csv"
        run(capsys, ["rollout", "--robot", "A1", "--duration", "0.1",
                     "--out", str(csv_path)])
        rows = csv_path.read_text().splitlines()
        rows[1] = rows[1].rsplit(",", 1)[0] + ",nan"   # the last column is not plotted
        csv_path.write_text("\n".join(rows))
        svg_path = tmp_path / "roll.svg"
        code, _, _ = run(capsys, ["plot", "--record", str(csv_path),
                                  "--out", str(svg_path)])
        assert code == EXIT_OK
        assert "nan" not in svg_path.read_text()

    def test_missing_file_exit_config(self, capsys, tmp_path):
        code, _, err = run(capsys, ["plot", "--record",
                                    str(tmp_path / "nope.csv"),
                                    "--out", str(tmp_path / "x.svg")])
        assert code == EXIT_CONFIG
        assert err

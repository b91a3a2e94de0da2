import errno
import json
import math
import os
import sys

import pytest
import yaml

from quadcpg.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from quadcpg.plotting import RecordFormatError, render_rollout_svg
from quadcpg.rollout import record_columns, write_csv


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


BUILTIN_NAMES = ("Little Dog, Spot-Micro, Solo, Mini-Cheetah, A1, Go1, Aliengo, "
                 "Laikago, Anymal-B, Anymal-C, Spot, B1, HYQ, Dog1, Dog2, Dog3")
NO_KP = ("robots:\n  - {name: Bot, height_cm: 35, mass_kg: 10, l_step_cm: 12, "
         "l_clrnc_cm: 6, l_pntr_cm: 1, x_offset_cm: 0, dof: 12, morphology: 1, kd: 2}\n")
UNWRITABLE = "{d}/no-dir/out"


def enoent(name):
    return f"[Errno 2] No such file or directory: '{{d}}/{name}'"


CANNOT_WRITE = f"cannot write '{UNWRITABLE}': {enoent('no-dir/out')}"

#: (argv, exit code, stderr after "error: "); "{d}" is the test's directory.
FAILURES = [
    pytest.param(["--registry", "{d}/bad.yaml", "robots"], EXIT_CONFIG, None,
                 id="registry-bad-yaml"),
    pytest.param(["--registry", "{d}/no-kp.yaml", "robots"], EXIT_CONFIG,
                 "registry error: Bot: missing field 'kp'", id="registry-missing-field"),
    pytest.param(["--registry", "{d}/none.yaml", "robots"], EXIT_CONFIG,
                 "registry error: cannot read registry file '{d}/none.yaml': "
                 + enoent("none.yaml"), id="registry-missing-file"),
    pytest.param(["--registry", "{d}/list.yaml", "robots"], EXIT_CONFIG,
                 "registry error: registry file '{d}/list.yaml' must contain a top-level "
                 "'robots' list", id="registry-top-level-list"),
    pytest.param(["--registry", "{d}/robots-mapping.yaml", "robots"], EXIT_CONFIG,
                 "registry error: registry file '{d}/robots-mapping.yaml' must contain a "
                 "top-level 'robots' list", id="registry-robots-mapping"),
    pytest.param(["--registry", "{d}/entry-5.yaml", "robots"], EXIT_CONFIG,
                 "registry error: robot entry must be a mapping, got 5", id="registry-entry-5"),
    pytest.param(["--registry", "{d}/no-name.yaml", "robots"], EXIT_CONFIG,
                 "registry error: robot entry missing 'name': {{'height_cm': 35}}",
                 id="registry-no-name"),
    pytest.param(["--registry", "{d}/empty-name.yaml", "robots"], EXIT_CONFIG,
                 "registry error: robot name must be non-empty", id="registry-empty-name"),
    pytest.param(["traj", "--robot", "NoSuchBot", "--out", "{d}/x.csv"], EXIT_CONFIG,
                 f"unknown robot 'NoSuchBot'; available: {BUILTIN_NAMES}",
                 id="traj-unknown-robot"),
    pytest.param(["traj", "--robot", "A1", "--mu", "9", "--out", "{d}/x.csv"], EXIT_CONFIG,
                 "mu=9.0 outside [0.5, 4.0]", id="traj-mu"),
    pytest.param(["traj", "--robot", "A1", "--duration", "0", "--out", "{d}/x.csv"],
                 EXIT_CONFIG, "duration must be finite and at least one control period "
                 "(0.01 s), got 0.0", id="traj-duration"),
    pytest.param(["traj", "--robot", "A1", "--duration", "0.1", "--out", UNWRITABLE],
                 EXIT_RUNTIME, CANNOT_WRITE, id="traj-unwritable"),
    pytest.param(["rollout", "--robot", "A1", "--omega", "7", "--out", "{d}/x.csv"],
                 EXIT_CONFIG, "omega=7.0 outside [0.0, 5.0] Hz", id="rollout-omega"),
    pytest.param(["rollout", "--robot", "A1", "--duration", "0.1", "--out", UNWRITABLE],
                 EXIT_RUNTIME, CANNOT_WRITE, id="rollout-unwritable"),
    pytest.param(["search", "--robot", "A1", "--budget", "0", "--out", "{d}/x.json"],
                 EXIT_CONFIG, "budget must be >= 1, got 0", id="search-budget"),
    pytest.param(["search", "--robot", "A1", "--horizon", "0", "--out", "{d}/x.json"],
                 EXIT_CONFIG, "horizon must be >= 1, got 0", id="search-horizon"),
    pytest.param(["search", "--robot", "A1", "--budget", "2", "--horizon", "5",
                  "--out", UNWRITABLE], EXIT_RUNTIME, CANNOT_WRITE, id="search-unwritable"),
    pytest.param(["plot", "--record", "{d}/none.csv", "--out", "{d}/x.svg"], EXIT_CONFIG,
                 "cannot plot '{d}/none.csv': " + enoent("none.csv"),
                 id="plot-missing"),
    pytest.param(["plot", "--record", "{d}/empty.csv", "--out", "{d}/x.svg"], EXIT_CONFIG,
                 "cannot plot '{d}/empty.csv': record file '{d}/empty.csv' is empty",
                 id="plot-empty"),
    pytest.param(["plot", "--record", "{d}/word.csv", "--out", "{d}/x.svg"], EXIT_CONFIG,
                 "cannot plot '{d}/word.csv': could not convert string to float: 'abc'",
                 id="plot-non-numeric"),
    pytest.param(["plot", "--record", "{d}/short.csv", "--out", "{d}/x.svg"], EXIT_CONFIG,
                 "cannot plot '{d}/short.csv': record file '{d}/short.csv': "
                 "data row 2 has 3 cells, the header has {n}", id="plot-ragged"),
    pytest.param(["plot", "--record", "{d}/good.csv", "--out", UNWRITABLE], EXIT_RUNTIME,
                 CANNOT_WRITE, id="plot-unwritable"),
]


#: (argv, files it writes under "{out}") of each command.
STDOUT_FAILURES = [
    pytest.param(["robots"], [], id="robots"),
    pytest.param(["traj", "--robot", "A1", "--duration", "0.1", "--out", "{out}/t.csv"],
                 ["t.csv"], id="traj"),
    pytest.param(["rollout", "--robot", "A1", "--duration", "0.1", "--out", "{out}/r.csv"],
                 ["r.csv", "r.json"], id="rollout"),
    pytest.param(["search", "--robot", "A1", "--budget", "2", "--horizon", "5",
                  "--out", "{out}/s.json"], ["s.json"], id="search"),
    pytest.param(["plot", "--record", "{d}/good.csv", "--out", "{out}/p.svg"], ["p.svg"],
                 id="plot"),
]


class BrokenStdout:
    """A stdout whose reader has gone: every write raises EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass


class TestFailureMatrix:
    """Each bad input gives one exit code and one exact `error:` line."""

    @staticmethod
    def inputs(d):
        (d / "bad.yaml").write_text("robots: [unclosed")
        (d / "no-kp.yaml").write_text(NO_KP)
        (d / "list.yaml").write_text("- {name: Bot}\n")
        (d / "robots-mapping.yaml").write_text("robots: {Bot: {height_cm: 35}}\n")
        (d / "entry-5.yaml").write_text("robots: [5]\n")
        (d / "no-name.yaml").write_text("robots: [{height_cm: 35}]\n")
        (d / "empty-name.yaml").write_text(NO_KP.replace("name: Bot", "name: ''")
                                           .replace("kd: 2", "kp: 10, kd: 2"))
        (d / "empty.csv").write_text("")
        (d / "word.csv").write_text("t,vx\n0.0,abc\n")
        columns = record_columns()
        rows = [[float(k)] * len(columns) for k in range(3)]
        write_csv(columns, rows, str(d / "good.csv"))
        write_csv(columns, [rows[0], rows[1][:3], rows[2]], str(d / "short.csv"))

    @pytest.mark.parametrize("argv, code, message", FAILURES)
    def test_exit_code_and_stderr(self, capsys, tmp_path, argv, code, message):
        self.inputs(tmp_path)
        subst = dict(d=str(tmp_path), n=len(record_columns()))
        if message is None:   # the parser's own text, after the registry's prefix
            path = str(tmp_path / "bad.yaml")
            with pytest.raises(yaml.YAMLError) as exc, open(path) as fh:
                yaml.safe_load(fh)
            message = f"registry error: cannot parse registry file {path!r}: {exc.value}"
        else:
            message = message.format(**subst)
        assert run(capsys, [a.format(**subst) for a in argv]) == (code, "", f"error: {message}\n")
        assert not any((tmp_path / f"x.{ext}").exists() for ext in ("csv", "json", "svg"))

    @pytest.mark.parametrize("argv, outputs", STDOUT_FAILURES)
    def test_stdout_failure(self, capsys, monkeypatch, tmp_path, argv, outputs):
        # the summary is printed after the files are written: a failed print is
        # reported bare, and the files equal those of a run whose print works
        self.inputs(tmp_path)
        for name in ("ok", "broken"):
            (tmp_path / name).mkdir()
        assert main([a.format(d=tmp_path, out=tmp_path / "ok") for a in argv]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code = main([a.format(d=tmp_path, out=tmp_path / "broken") for a in argv])
        assert (code, capsys.readouterr().err) == (EXIT_RUNTIME, "error: [Errno 32] Broken pipe\n")
        for name in outputs:
            ok = (tmp_path / "ok" / name).read_bytes()
            assert ok and (tmp_path / "broken" / name).read_bytes() == ok, name

"""The README's library quick start and CLI examples run as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from quadcpg.cli import EXIT_OK, main
from quadcpg.registry import load_registry

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading: str, lang: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_its_comment():
    code = section_block("Library quick start", "python")
    claimed = float(re.search(r"# ~([0-9.]+) m/s", code).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert round(float(out.getvalue().split()[-1]), 2) == claimed


def test_cli_examples_exit_ok(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in section_block("CLI", "sh").splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "quadcpg"]
    assert len(commands) == 5
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, (argv, capsys.readouterr().err)


def test_registry_file_format_loads(tmp_path):
    path = tmp_path / "registry.yaml"
    path.write_text(section_block("Registry file format", "yaml"))
    robot = load_registry(str(path)).get("MyBot")
    assert robot.height_nominal == 0.35 and robot.dof_total == 12
    assert [leg.abd_offset for leg in robot.legs] == [-0.028, 0.028, -0.028, 0.028]

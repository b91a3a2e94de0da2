"""The scalar path's outputs are the same bits under every local interpreter.

Python 3.12 changed how the builtin sum() rounds floats, and the `math`
functions come from each interpreter's build.  `interpreter_probe.py`
needs only the standard library, so it runs under every other Python >=
3.10 found here, with or without numpy: each `python3.1x` on PATH and
each pyenv version.  A name on PATH may be a shim that does not start, so
every candidate is started to find out.  Its rollout CSV and manifest
hashes and its `repr`'d returns must equal this interpreter's.
"""

import glob
import json
import os
import pathlib
import subprocess
import sys

import pytest

import quadcpg
from interpreter_probe import probe

SRC = str(pathlib.Path(quadcpg.__file__).resolve().parent.parent)
PROBE = str(pathlib.Path(__file__).resolve().with_name("interpreter_probe.py"))

#: Prints the interpreter's real path and version; runs on Python 2 as well.
IDENTIFY = ("import os, sys; print(os.path.realpath(sys.executable)); "
            "print('.'.join(map(str, sys.version_info[:3])))")


def candidates():
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        yield from sorted(glob.glob(os.path.join(directory, "python3.1[0-9]")))
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    yield from sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))


def other_interpreters():
    """{real path: version} of every other interpreter >= 3.10 that starts."""
    found = {}
    this = os.path.realpath(sys.executable)
    for path in candidates():
        try:
            proc = subprocess.run([path, "-c", IDENTIFY], capture_output=True,
                                  text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2:
            continue
        real, version = lines
        if real != this and tuple(map(int, version.split("."))) >= (3, 10):
            found[real] = version
    return found


def test_scalar_outputs_equal_under_every_interpreter(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other Python >= 3.10 interpreter starts on this host")
    mine = probe(str(tmp_path))
    assert mine["rollouts"]["Little Dog"]["workspace_violations"] > 0   # clamps
    covered = []
    for path, version in sorted(others.items(), key=lambda item: item[1]):
        proc = subprocess.run([path, "-I", "-B", PROBE, SRC, str(tmp_path)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (version, path, proc.stderr)
        assert json.loads(proc.stdout.splitlines()[-1]) == mine, (version, path)
        covered.append(f"{version} ({path})")
    print(f"Python {sys.version.split()[0]} matched: " + ", ".join(covered))

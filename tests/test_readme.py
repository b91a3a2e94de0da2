"""The README's library quick start runs and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_its_comment():
    code = quick_start_block()
    claimed = float(re.search(r"# ~([0-9.]+) m/s", code).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert round(float(out.getvalue().split()[-1]), 2) == claimed

"""The library quickstart of README.md runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = [line.split() for line in out.getvalue().splitlines()]
    # the two overlapping class-1 proposals fuse into one label; the stray
    # stays a class-2 label of its own
    assert [(fields[0], len(fields)) for fields in lines[:2]] == [("1", 4), ("2", 4)]
    assert [fields[0] for fields in lines[2:]] == ["ricker", "soft", "hard"]

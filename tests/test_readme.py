"""The README's Python example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["t"] == 8822
    value, bound = (float(v) for v in capsys.readouterr().out.split())
    assert value == namespace["r"].value
    assert 0.0 < bound < 1e-12

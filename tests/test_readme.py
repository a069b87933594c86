"""The README's library quickstart runs as printed."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs_verbatim(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    assert names["found"] and names["report"].s > 6
    assert len(names["reports"]) == 7
    assert "partition" in capsys.readouterr().out

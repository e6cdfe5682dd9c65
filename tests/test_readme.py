"""The README's library quick start runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
    methods = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert methods == ["lsi", "irr"]

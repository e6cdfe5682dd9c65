"""The README's library quick start runs against the package as it is, and
the package exports what it names."""

import re
import types
from pathlib import Path

import irrspace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
    methods = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert methods == ["lsi", "irr"]


def test_public_names_are_the_export_list():
    public = {
        name
        for name, value in vars(irrspace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(irrspace.__all__)

"""The README's library quick start runs against the package as it is, its
command lines parse, the package exports only its own names, and the output
columns and record keys it lists are the ones the commands write."""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import irrspace
from irrspace import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
    methods = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert methods == ["lsi", "irr"]


def test_readme_command_lines_parse_and_convert():
    text = README.read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("irrspace "):
                lines.append(shlex.split(line)[1:])
    assert len(lines) == 5
    parser = cli._build_parser()
    for argv in lines:
        opts = cli._merge(parser.parse_args(argv))  # converts every flag, runs nothing
        assert set(opts) == set(cli._COMMANDS[argv[0]][2])


def test_export_list_holds_only_the_package_own_names():
    # __all__ is derived from the imports, so a stray import would join it
    modules = [importlib.import_module(f"irrspace.{info.name}")
               for info in pkgutil.iter_modules(irrspace.__path__)]
    strays = []
    for name in irrspace.__all__:
        value = getattr(irrspace, name)
        owners = [m.__name__ for m in modules if getattr(m, name, None) is value]
        if not owners or getattr(value, "__module__", owners[0]) not in owners:
            strays.append(name)
    assert not strays, f"not defined by an irrspace module: {strays}"


def _section(heading):
    text = README.read_text(encoding="utf-8")
    return text.split(f"### {heading}\n", 1)[1].split("\n###", 1)[0]


def test_readme_run_columns_are_the_csv_columns():
    listed = re.search(r"Columns: `(.*?)`", _section("run"), re.S).group(1)
    assert tuple(re.split(r",\s+", listed)) == cli.CSV_COLUMNS


def test_readme_verify_instance_keys_are_the_written_keys(tmp_path):
    listed = [set(re.findall(r'"(\w+)"', keys))
              for keys in re.findall(r"`\{(.*?)\}`", _section("verify"), re.S)]
    out = tmp_path / "checks.jsonl"
    assert cli.main(["verify", "--trials", "1", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()][:-1]
    written = [set(records[0]["instance"]), set(records[1]["instance"])]
    assert records[0]["check"] == "sv_perturbation"
    assert listed == written

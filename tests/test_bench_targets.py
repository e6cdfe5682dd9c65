"""The benchmark's traced run wraps package attributes by name; a rename in
``src/`` must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_benchmark_target_exists(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        f"irrspace.{module}.{attr}"
        for module, attr in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"irrspace.{module}"), attr)
    ]
    assert tracing.WRAPPED and not missing


# the traced run's counters read these arguments by position, or by name when
# passed as a keyword: (module, function, position, name)
_COUNTED_ARGUMENTS = [
    ("theory", "_eps_of_coords", 1, "m_stack"),
    ("matrixio", "save_basis", 0, "path"),
]


def test_counted_arguments_keep_their_position_and_name(monkeypatch):
    counted = _tracing(monkeypatch)._COUNTERS
    for module, attr, pos, name in _COUNTED_ARGUMENTS:
        assert f"{module}.{attr}" in counted
        func = getattr(importlib.import_module(f"irrspace.{module}"), attr)
        assert list(inspect.signature(func).parameters)[pos] == name, f"{module}.{attr}"

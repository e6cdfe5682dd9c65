"""The benchmark's traced run wraps package attributes by name; a rename in
``src/`` must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_benchmark_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        f"irrspace.{module}.{attr}"
        for module, attr in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"irrspace.{module}"), attr)
    ]
    assert tracing.WRAPPED and not missing

"""scipy is imported where irr and clustering call it, not with the package.

Each test starts a fresh interpreter on the checkout's ``src``, runs some
command lines through ``cli.main`` and reads which scipy modules are loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import contextlib, io, json, sys
import irrspace, irrspace.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert irrspace.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules(tmp_path, *argvs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_import_loads_no_scipy(tmp_path):
    assert _scipy_modules(tmp_path) == set()


def test_verify_synth_plotdata_and_vsm_lsi_runs_load_no_scipy(tmp_path):
    assert _scipy_modules(
        tmp_path,
        ["verify", "--trials", "1", "--noise", "0.2", "--out", "v.jsonl"],
        ["synth", "--dist", "6,4", "--out", "corpus"],
        ["run", "--dist", "6,4", "--methods", "vsm,lsi", "--metrics", "kappa", "--out", "r.csv"],
        ["plotdata", "--report", "r.csv", "--out", "p.csv"],
    ) == set()


def test_irr_loads_scipy_linalg_but_not_clustering(tmp_path):
    loaded = _scipy_modules(tmp_path, ["run", "--dist", "6,4", "--methods", "irr",
                                       "--metrics", "kappa", "--out", "r.csv"])
    assert "scipy.linalg" in loaded
    assert not any(m.startswith("scipy.cluster") for m in loaded)


def test_clustering_loads_scipy_hierarchy(tmp_path):
    loaded = _scipy_modules(tmp_path, ["run", "--dist", "6,4", "--methods", "vsm",
                                       "--metrics", "cluster", "--out", "r.csv"])
    assert "scipy.cluster.hierarchy" in loaded

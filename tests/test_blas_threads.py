"""What "bit-identical" depends on: the BLAS thread count.

A threaded BLAS splits its sums differently at another thread count, so a
float that `run` or `verify` writes can move in its last bits.  Each test
runs the same command lines in a fresh interpreter at OPENBLAS_NUM_THREADS=1
and =2 and compares the outputs: every field that is not a float must be
equal, and the floats must agree to _TOL scaled by max(1, |x|, |y|).

Measured with scipy-openblas 0.3.31 on 2 vCPUs: `verify --seed s --trials 24`
for s in 0, 7 and 42 moved 85-89 of 1371 values, by at most 8.0e-15 on that
scale (36 ulps of 1.0); `run` moved irr's q by one ulp.  The quantities are
norms, eigenvalues and cosines of unit-column matrices with at most 23
documents, where a reordered sum moves a value by a few n * eps ~ 5e-15.
_TOL = 1e-12 leaves a factor of 125 over the measured moves and stays four
orders below the optimum search's improvement tolerance (1e-8).
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_TOL = 1e-12


def _outputs(tmp_path, threads, argv):
    """Run ``irrspace <argv>`` at ``threads`` BLAS threads in a new directory;
    return that directory."""
    out = tmp_path / f"threads{threads}"
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-m", "irrspace.cli", *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return out


def _leaves(x):
    if isinstance(x, dict):
        return [(k, *leaf) for k in sorted(x) for leaf in _leaves(x[k])]
    if isinstance(x, list):
        return [(i, *leaf) for i, v in enumerate(x) for leaf in _leaves(v)]
    return [(x,)]


def _cell(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _assert_close(one, two):
    assert [leaf[:-1] for leaf in one] == [leaf[:-1] for leaf in two]
    for leaf1, leaf2 in zip(one, two):
        x, y = leaf1[-1], leaf2[-1]
        if isinstance(x, float) and isinstance(y, float):
            assert abs(x - y) <= _TOL * max(1.0, abs(x), abs(y)), (leaf1, leaf2)
        else:
            assert x == y and type(x) is type(y), (leaf1, leaf2)


def test_verify_agrees_across_blas_thread_counts(tmp_path):
    argv = ["verify", "--seed", "42", "--trials", "8", "--out", "v.jsonl"]
    one, two = (_outputs(tmp_path, t, argv) / "v.jsonl" for t in (1, 2))
    records = [[json.loads(line) for line in p.read_text().splitlines()] for p in (one, two)]
    assert len(records[0]) == len(records[1])
    _assert_close(_leaves(records[0]), _leaves(records[1]))


def _run_rows(tmp_path, argv):
    """The CSV rows of ``run <argv> --out r.csv`` at 1 and at 2 BLAS threads,
    without ``elapsed_ms``."""
    rows = []
    for t in (1, 2):
        with open(_outputs(tmp_path, t, [*argv, "--out", "r.csv"]) / "r.csv", newline="") as f:
            rows.append([{k: _cell(v) for k, v in row.items() if k != "elapsed_ms"}
                         for row in csv.DictReader(f)])
    return rows


def test_run_agrees_across_blas_thread_counts(tmp_path):
    argv = ["run", "--dist", "1380,120", "--seeds", "0", "--noise", "0.3",
            "--methods", "vsm,lsi,irr", "--metrics", "kappa"]
    rows = _run_rows(tmp_path, argv)
    assert len(rows[0]) == len(rows[1]) == 3
    _assert_close(_leaves(rows[0]), _leaves(rows[1]))


def test_tall_irr_agrees_across_blas_thread_counts(tmp_path):
    # about 1100 terms x 320 documents: irr runs on the QR core of a tall matrix
    argv = ["run", "--dist", "200,60,30,15,10,5", "--seeds", "0", "--noise", "0.3",
            "--methods", "irr", "--vocab-per-topic", "120", "--shared-vocab", "400",
            "--doc-length", "60", "--ell", "ratio:0.5", "--metrics", "kappa"]
    rows = _run_rows(tmp_path, argv)
    assert len(rows[0]) == len(rows[1]) == 1
    _assert_close(_leaves(rows[0]), _leaves(rows[1]))

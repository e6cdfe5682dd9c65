"""The benchmark's own checks: a wrong output counts as a failed item, a
renamed layer fails the traced run, and counts repeat exactly.

    python3 -m pytest perfbench/tests
"""

import csv
import dataclasses
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

from tracing import Tracer
from worker import import_package, run_argvs, timed_pass
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def w4_pass(tmp_path_factory):
    """One seed-0 corpus of w4 (lsi and irr), run once for the module."""
    cli = import_package(ROOT)
    w4 = dataclasses.replace(WORKLOADS["w4_basis"], n_seeds=1)
    invs = w4.invocations(0, tmp_path_factory.mktemp("w4"))
    return w4, invs, run_argvs(cli, [i.argv for i in invs])


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_w4_pass_matches_its_reference(w4_pass):
    w4, invs, codes = w4_pass
    assert w4.check(0, invs, codes) == (2, 0)


@pytest.mark.parametrize("column", ["kappa", "floor"])
def test_w4_perturbed_cell_is_a_failed_item(w4_pass, column):
    w4, invs, codes = w4_pass
    path = invs[1].out.with_suffix(".csv")
    original = path.read_text()

    def perturb(rows):
        rows[0][column] = repr(float(rows[0][column]) * (1 + 1e-6) + 1e-6)

    try:
        _edit_csv(path, perturb)
        assert w4.check(0, invs, codes) == (2, 1)
    finally:
        path.write_text(original)


def test_w4_missing_row_is_a_failed_item(w4_pass):
    w4, invs, codes = w4_pass
    path = invs[0].out.with_suffix(".csv")
    original = path.read_text()
    try:
        _edit_csv(path, lambda rows: rows.clear())
        assert w4.check(0, invs, codes) == (2, 1)
    finally:
        path.write_text(original)


def test_w4_basis_of_the_other_method_fails(w4_pass):
    w4, invs, codes = w4_pass
    lsi, irr = invs
    original = irr.out.read_bytes()
    try:
        shutil.copyfile(lsi.out, irr.out)
        assert w4.check(0, invs, codes) == (2, 1)
    finally:
        irr.out.write_bytes(original)


def test_w2_inject_bug_gives_failed_items(tmp_path, cli):
    w2 = dataclasses.replace(WORKLOADS["w2_verify"], fixed=(42, 1), shifted=(43, 1))
    invs = w2.invocations(0, tmp_path)
    assert w2.check(0, invs, run_argvs(cli, [i.argv for i in invs])) == (8, 0)
    invs[0].argv.append("--inject-bug")
    attempted, failed = w2.check(0, invs, run_argvs(cli, [i.argv for i in invs]))
    assert attempted == 8 and failed > 0


def test_w2_worse_eps_opt_than_reference_fails(tmp_path, cli):
    w2 = dataclasses.replace(WORKLOADS["w2_verify"], fixed=(42, 1), shifted=(43, 1))
    invs = w2.invocations(0, tmp_path)
    codes = run_argvs(cli, [i.argv for i in invs])
    text = invs[0].out.read_text()
    marker = '"eps_opt": '
    at = text.index(marker) + len(marker)
    end = text.index(",", at)
    worse = repr(float(text[at:end]) + 1e-9)
    invs[0].out.write_text(text[:at] + worse + text[end:])
    assert w2.check(0, invs, codes)[1] == 1


def test_renamed_layer_fails_the_traced_run(monkeypatch):
    from irrspace import theory

    monkeypatch.delattr(theory, "_refine")
    with pytest.raises(AttributeError, match="_refine"):
        Tracer().install()


def test_traced_counts_repeat_and_tracer_uninstalls(tmp_path, cli):
    from irrspace import evalmetrics

    original = evalmetrics.cut_tree
    small = dataclasses.replace(WORKLOADS["w4_basis"], n_seeds=1)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        result = timed_pass(cli, small, 1, tmp_path, tracer)
        assert result["failed"] == 0
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    rows = 2
    assert counts[0]["evalmetrics.linkage.calls"] == 6 * rows
    assert counts[0]["evalmetrics.cut_tree.calls"] == 6 * rows
    assert counts[0]["matrixio.save_basis.bytes"] > 0
    assert counts[0]["cli.errors"] == 0
    assert evalmetrics.cut_tree is original


def test_run_outside_a_checkout_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "w2_verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

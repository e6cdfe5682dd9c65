"""Command line driver: subcommands, exit codes, determinism, config files."""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrspace import cli, corpus, evalmetrics, matrixio, subspace, theory
from irrspace.errors import DataError, ParameterError


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _strip_timing(rows):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _write_csv_matrix(path, z):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in z.tolist()))


def test_synth_writes_expected_corpus(tmp_path, capsys):
    out = tmp_path / "c"
    rc = cli.main(["synth", "--dist", "25,25", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert len(list(out.glob("*.txt"))) == 50
    lines = (out / "topics.tsv").read_text().splitlines()
    assert sum(1 for ln in lines if ln.endswith("\tt0")) == 25
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["distribution"] == [25, 25]
    assert manifest["rng_seed"] == 1


def test_synth_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--dist", "5,3", "--seed", "7", "--noise", "0.3"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_synth_requires_dist_and_out(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "x")]) == 1
    assert cli.main(["synth", "--dist", "3,3"]) == 1


def test_run_row_accounting_and_method_fields(tmp_path):
    out = tmp_path / "rows.csv"
    rc = cli.main(
        [
            "run", "--dist", "8,4", "--dist", "6,6", "--seeds", "0,1",
            "--methods", "vsm,lsi,irr", "--noise", "0.2",
            "--metrics", "kappa", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 12  # 2 dists x 2 seeds x 3 methods
    assert [r["run_id"] for r in rows] == sorted(r["run_id"] for r in rows)
    for r in rows:
        assert r["kappa"] != ""
        assert r["floor"] == ""  # cluster metric not requested
        if r["method"] == "vsm":
            assert r["q"] == "" and r["ell"] == ""
        elif r["method"] == "lsi":
            assert r["q"] == "0.0" and r["ell"] == "2"
        else:
            assert float(r["q"]) > 0.0 and r["ell"] == "2"
    by_dataset = {r["dataset"] for r in rows}
    assert by_dataset == {"synth:8,4", "synth:6,6"}


def test_run_is_deterministic_modulo_timing(tmp_path):
    args = [
        "run", "--dist", "10,4", "--seeds", "0:3", "--methods", "lsi,irr",
        "--noise", "0.3", "--metrics", "kappa,cluster",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert _strip_timing(_read_rows(out1)) == _strip_timing(_read_rows(out2))


def test_run_clusters_a_one_document_collection(tmp_path):
    out = tmp_path / "one.csv"
    rc = cli.main(
        [
            "run", "--dist", "1", "--seeds", "0", "--methods", "vsm,lsi,irr",
            "--metrics", "cluster", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out)
    assert sorted(r["method"] for r in rows) == ["irr", "lsi", "vsm"]
    for row in rows:
        for name in (
            "single_link", "complete_link", "group_average", "kmeans_single_link",
            "kmeans_complete_link", "kmeans_group_average", "floor", "ceiling",
        ):
            assert float(row[name]) == 1.0


def test_synth_refuses_an_existing_out_directory(tmp_path, capsys):
    # rewriting into it would leave the old documents beside the new ones
    out = tmp_path / "c"
    assert cli.main(["synth", "--dist", "46,4", "--out", str(out)]) == 0
    before = _tree_bytes(out)
    capsys.readouterr()
    assert cli.main(["synth", "--dist", "3,3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert _tree_bytes(out) == before


def test_run_on_corpus_directory(tmp_path):
    corpus_dir = tmp_path / "corp"
    assert cli.main(["synth", "--dist", "6,4", "--seed", "2", "--noise", "0.2",
                     "--out", str(corpus_dir)]) == 0
    out = tmp_path / "rows.csv"
    rc = cli.main(["run", "--corpus", str(corpus_dir), "--methods", "lsi",
                   "--metrics", "kappa", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 1
    assert rows[0]["dataset"] == "corpus:corp"
    assert rows[0]["seed"] == "-"
    assert rows[0]["ell"] == "2"  # topic count inferred from labels


def test_shared_synth_flags_reach_synth_and_run(tmp_path):
    shape = ["--vocab-per-topic", "7", "--shared-vocab", "9", "--doc-length", "11",
             "--noise", "0.5"]
    corpus_dir = tmp_path / "corp"
    assert cli.main(["synth", "--dist", "6,4", "--seed", "3", *shape,
                     "--out", str(corpus_dir)]) == 0
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert (manifest["vocab_per_topic"], manifest["shared_vocab"], manifest["doc_length"],
            manifest["noise_rate"]) == (7, 9, 11, 0.5)
    rows = {}
    for name, source in (("corpus", ["--corpus", str(corpus_dir)]),
                         ("synth", ["--dist", "6,4", "--seeds", "3", *shape])):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["run", *source, "--methods", "vsm,lsi,irr", "--out", str(out)]) == 0
        rows[name] = [{k: v for k, v in r.items()
                       if k not in ("run_id", "dataset", "dist", "seed", "elapsed_ms")}
                      for r in _read_rows(out)]
    assert len(rows["synth"]) == 3
    assert rows["corpus"] == rows["synth"]


def test_run_matrix_input_with_save_basis(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((12, 6))
    z /= np.linalg.norm(z, axis=0)
    mat = tmp_path / "docs.ssm1"
    matrixio.write_matrix_binary(mat, z)
    basis_path = tmp_path / "basis.ssm1"
    out = tmp_path / "rows.csv"
    rc = cli.main(["run", "--matrix", str(mat), "--methods", "irr", "--ell", "3",
                   "--q", "1.5", "--metrics", "none",
                   "--save-basis", str(basis_path), "--out", str(out)])
    assert rc == 0
    basis = matrixio.load_basis(basis_path)
    assert basis.method == "irr" and basis.ell == 3 and basis.q == 1.5
    rows = _read_rows(out)
    assert rows[0]["kappa"] == "" and rows[0]["dataset"] == "matrix:docs"


@pytest.mark.parametrize(("methods", "method"), [("vsm,irr", "irr"), ("lsi,vsm", "lsi")])
def test_save_basis_next_to_a_vsm_row_saves_the_subspace_basis(methods, method, tmp_path):
    basis_path, out = tmp_path / "b.ssm1", tmp_path / "o.csv"
    assert cli.main(["run", "--dist", "6,4", "--methods", methods, "--metrics", "kappa",
                     "--save-basis", str(basis_path), "--out", str(out)]) == 0
    basis = matrixio.load_basis(basis_path)
    row = next(r for r in _read_rows(out) if r["method"] == method)
    assert basis.method == method
    assert (repr(basis.q), str(basis.ell)) == (row["q"], row["ell"])


def test_cell_that_fails_after_its_basis_is_built_writes_nothing(tmp_path, capsys):
    _write_files(tmp_path / "c", {"d0.txt": b"alpha beta gamma\n",
                                  "topics.tsv": b"d0\ta\nd0\tb\n"})
    basis_path, out = tmp_path / "b.ssm1", tmp_path / "o.csv"
    rc = cli.main(["run", "--corpus", str(tmp_path / "c"), "--methods", "lsi,vsm",
                   "--ell", "1", "--metrics", "cluster",
                   "--save-basis", str(basis_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: floor_ceiling needs single-topic documents\n"
    assert not basis_path.exists() and not out.exists()
    assert not (tmp_path / "b.ssm1.json").exists()


def test_run_metrics_on_unlabeled_matrix_is_data_error(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((8, 4))
    z /= np.linalg.norm(z, axis=0)
    mat = tmp_path / "m.csv"
    _write_csv_matrix(mat, z)
    rc = cli.main(["run", "--matrix", str(mat), "--methods", "lsi", "--ell", "2",
                   "--metrics", "kappa", "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_run_theta_mode_records_selected_ell(tmp_path):
    out = tmp_path / "rows.csv"
    rc = cli.main(["run", "--dist", "10,10", "--seeds", "0", "--methods", "lsi,irr",
                   "--ell", "ratio:0.4", "--noise", "0.1",
                   "--metrics", "kappa", "--out", str(out)])
    assert rc == 0
    for r in _read_rows(out):
        assert int(r["ell"]) >= 1


def test_run_usage_errors(tmp_path):
    assert cli.main(["run", "--methods", "lsi"]) == 1  # no input source
    assert cli.main(["run", "--dist", "4,4", "--methods", "bogus"]) == 1
    assert cli.main(["run", "--dist", "4,4", "--methods", "lsi", "--metrics", "wrong"]) == 1
    assert cli.main(["run", "--dist", "4,4", "--methods", "lsi", "--q", "fast"]) == 1
    assert cli.main(["run", "--dist", "nope", "--methods", "lsi"]) == 1


_RUN = ["run", "--dist", "4,4", "--methods", "lsi", "--metrics", "kappa"]
_SYNTH = ["synth", "--dist", "4,4"]


def test_run_takes_ell_and_clusters_from_the_topic_count(tmp_path):
    out = tmp_path / "rows.csv"
    assert cli.main(["run", "--dist", "6,4,3", "--methods", "vsm,lsi,irr",
                     "--metrics", "cluster", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert [r["ell"] for r in rows] == ["3", "3", ""]  # irr, lsi, vsm
    assert {r["clusters"] for r in rows} == {"3"}


@pytest.mark.parametrize("flag", ["--topics", "--clusters"])
def test_topic_count_flags_are_gone(flag, tmp_path, capsys):
    # the topic count comes from the data: a flag or config key for it is refused
    assert cli.main(_RUN + [flag, "2", "--out", str(tmp_path / "o.csv")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{flag[2:]} = 2\n")
    assert cli.main(_RUN + ["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: config keys not recognized")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        _RUN + ["--jobs", "x"],
        _RUN + ["--noise", "abc"],
        _RUN + ["--alpha", "q"],
        _RUN + ["--beta", "b"],
        _RUN + ["--vocab-per-topic", "x"],
        _RUN + ["--ell", "ratio:half"],
        _RUN + ["--seeds", "a:b"],
        _SYNTH + ["--seed", "x"],
        _SYNTH + ["--noise", "abc"],
        _SYNTH + ["--doc-length", "long"],
        ["synth", "--dist", "four,4"],
        ["verify", "--seed", "x"],
        ["verify", "--trials", "many"],
        ["verify", "--noise", "low"],
    ],
)
def test_non_numeric_flag_is_usage_error(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    ("argv", "config", "flag"),
    [
        (["run", "--dist", "4,4", "--methods", "irr", "--ell", "2", "--save-basis="], None,
         "save-basis"),
        (["run", "--corpus=", "--methods", "vsm", "--metrics", "kappa"], None, "corpus"),
        (["run", "--dist", "4,4", "--methods", "vsm", "--out="], None, "out"),
        (["verify", "--trials", "1", "--out="], None, "out"),
        (["plotdata", "--report", "r.csv", "--out="], None, "out"),
        (["plotdata", "--report", "r.csv", "--x="], None, "x"),
        (["run", "--dist", "4,4", "--methods", "vsm", "--config="], None, "config"),
        (["run", "--dist", "4,4", "--methods", "irr", "--ell", "2"], "save_basis =", "save-basis"),
        (["run", "--methods", "vsm", "--metrics", "kappa"], "corpus = ''", "corpus"),
        (["run", "--dist", "4,4", "--methods", "vsm"], "out =", "out"),
    ],
)
def test_empty_path_value_is_usage_error(argv, config, flag, monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.corpus, "synthesize_collection", fail)
    monkeypatch.setattr(cli.corpus, "load_corpus_dir", fail)
    Path("r.csv").write_bytes(_REPORT)
    if config is not None:
        Path("c.cfg").write_text(config + "\n", encoding="utf-8")
        argv = argv + ["--config", "c.cfg"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: --{flag} expects a nonempty value, got ''\n")
    written = {"r.csv", "c.cfg"} if config is not None else {"r.csv"}
    assert {p.name for p in tmp_path.iterdir()} == written


def test_save_basis_shape_checked_before_any_cell_is_built(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(cli.corpus, "synthesize_collection", fail)
    rc = cli.main(["run", "--dist", "4,4", "--methods", "lsi,irr",
                   "--metrics", "none", "--save-basis", str(tmp_path / "b.ssm1")])
    assert rc == 1


@pytest.mark.parametrize(
    ("argv", "run_id"),
    [
        (["--dist", "6,4", "--seeds", "0,0", "--methods", "lsi,irr"], "synth:6,4:s0:lsi"),
        (["--dist", "6,4", "--dist", "6, 4", "--methods", "lsi"], "synth:6,4:s0:lsi"),
        (["--dist", "6,4", "--seeds", "0,1", "--methods", "lsi,lsi"], "synth:6,4:s0:lsi"),
        (["--corpus", "a/c", "--corpus", "b/c", "--methods", "vsm"], "corpus:c:s-:vsm"),
    ],
)
def test_rows_that_would_share_a_run_id_are_a_usage_error(argv, run_id, monkeypatch,
                                                           tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(cli.corpus, "synthesize_collection", fail)
    monkeypatch.setattr(cli.corpus, "load_corpus_dir", fail)
    out = tmp_path / "o.csv"
    assert cli.main(["run", *argv, "--metrics", "kappa", "--out", str(out)]) == 1
    assert f"error: run_id {run_id!r} would be written more than once" in capsys.readouterr().err
    assert not out.exists()


def test_run_unlabeled_matrix_without_ell_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(2)
    z = rng.standard_normal((8, 4))
    z /= np.linalg.norm(z, axis=0)
    mat = tmp_path / "m.csv"
    _write_csv_matrix(mat, z)
    rc = cli.main(["run", "--matrix", str(mat), "--methods", "lsi",
                   "--metrics", "none", "--save-basis", str(tmp_path / "b.ssm1")])
    assert rc == 2
    assert capsys.readouterr().err == "error: no dimensionality: give --ell\n"


@pytest.mark.parametrize("flag", ["--corpus", "--matrix"])
def test_dataset_name_that_is_not_utf8_is_data_error(flag, tmp_path, capsys):
    # the file name b"caf\xe9" decodes with surrogateescape to "caf\udce9",
    # which the UTF-8 CSV cannot hold
    name = tmp_path / "caf\udce9"
    if flag == "--corpus":
        assert cli.main(["synth", "--dist", "3,3", "--out", str(tmp_path / "c")]) == 0
        (tmp_path / "c").rename(name)
    else:
        name = name.with_suffix(".csv")
        name.write_bytes(b"1,0\n0,1\n")
    out = tmp_path / "o.csv"
    out.write_text("old\n")
    capsys.readouterr()
    rc = cli.main(["run", flag, str(name), "--methods", "lsi", "--ell", "1",
                   "--metrics", "none", "--save-basis", str(tmp_path / "b.ssm1"),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: dataset name ")
    assert out.read_text() == "old\n"
    assert not (tmp_path / "b.ssm1").exists()


def test_synth_to_a_name_that_is_not_utf8_escapes_it(tmp_path, capsys):
    # pytest's capture encodes stdout as strict UTF-8, as a UTF-8 locale does
    out = tmp_path / "caf\udce9"
    assert cli.main(["synth", "--dist", "3,2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 5 documents to {tmp_path}/caf\\xe9\n"
    assert len(list(out.glob("*.txt"))) == 5


def test_run_reads_a_synth_directory_of_1000_documents_in_order(tmp_path):
    shape = ["--noise", "0.3", "--doc-length", "8"]
    assert cli.main(["synth", "--dist", "990,12", "--out", str(tmp_path / "c"), *shape]) == 0
    rows = {}
    for key, source in (("dist", ["--dist", "990,12", "--seeds", "0"]),
                        ("corpus", ["--corpus", str(tmp_path / "c")])):
        out = tmp_path / f"{key}.csv"
        assert cli.main(["run", *source, *shape, "--methods", "vsm",
                         "--metrics", "kappa", "--out", str(out)]) == 0
        rows[key] = _read_rows(out)[0]
    assert rows["corpus"]["kappa"] == rows["dist"]["kappa"]


def test_run_missing_corpus_is_data_error(tmp_path):
    rc = cli.main(["run", "--corpus", str(tmp_path / "nope"), "--methods", "lsi",
                   "--metrics", "kappa"])
    assert rc == 2


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep defaults\n"
        "dist = 6,4;8,2\n"
        "seeds = 0:2\n"
        "methods = lsi\n"
        "noise = 0.2\n"
        "metrics = kappa\n"
    )
    out1 = tmp_path / "a.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(_read_rows(out1)) == 4  # 2 dists x 2 seeds x 1 method

    out2 = tmp_path / "b.csv"
    assert cli.main(["run", "--config", str(cfg), "--methods", "vsm,lsi",
                     "--out", str(out2)]) == 0
    assert len(_read_rows(out2)) == 8  # flag overrides config methods


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("methods lsi\n")
    assert cli.main(["run", "--dist", "4,4", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("warp_drive = on\n")
    assert cli.main(["run", "--dist", "4,4", "--config", str(unknown)]) == 2
    assert cli.main(["run", "--dist", "4,4", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_jobs_key_is_data_error(tmp_path):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 2\n")
    assert cli.main(_RUN + ["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize(
    ("argv", "config"),
    [
        (["verify", "--trials", "1"], "command = synth\n"),
        (["verify", "--trials", "1"], "inject_bug = 1\n"),
        (["verify", "--trials", "1"], "inject-bug = false\n"),
        (_SYNTH, "seeds = 0:2\n"),
        (["plotdata", "--report", "r.csv"], "config = other.cfg\n"),
    ],
)
def test_config_key_that_names_no_value_flag_is_data_error(argv, config, tmp_path, capsys):
    # a config key must name a value-taking flag of the command; the
    # --inject-bug switch and the parser's own attributes are not keys
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: config keys not recognized")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("argv", "key", "value"),
    [
        (_RUN, "alpha", "x"),
        (["run", "--methods", "lsi"], "dist", "4,x"),
        (["run", "--methods", "lsi"], "dist", "4,4;4,x"),
        (_RUN, "ell", "ratio:half"),
        (_RUN, "q", "fast"),
        (_SYNTH, "doc_length", "long"),
        (["verify"], "trials", "many"),
    ],
)
def test_non_numeric_config_value_is_reported_as_the_flag(argv, key, value, tmp_path,
                                                          capsys):
    out = ["--out", str(tmp_path / "o")]
    flag_value = value.split(";")[-1]
    assert cli.main(argv + [f"--{key.replace('_', '-')}", flag_value] + out) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert cli.main(argv + ["--config", str(cfg)] + out) == 1
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith(f"error: --{key.replace('_', '-')} expects")


def test_defaults_come_from_the_library(tmp_path):
    assert cli.main(_SYNTH + ["--out", str(tmp_path / "c")]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest == json.loads(json.dumps(asdict(corpus.SynthSpec(distribution=(4, 4)))))

    out = tmp_path / "rows.csv"
    assert cli.main(["run", "--dist", "8,4", "--methods", "irr",
                     "--metrics", "kappa", "--out", str(out)]) == 0
    (row,) = _read_rows(out)
    z, _ = cli._load_synth((8, 4), {}, 0)
    assert row["q"] == repr(subspace.auto_scale(z))
    assert subspace.auto_scale(z) == subspace.auto_scale(
        z, subspace.ALPHA, subspace.BETA)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--dist", "4,4", "--seeds", "-1", "--methods", "lsi", "--metrics", "kappa"],
        ["synth", "--dist", "4,4", "--seed", "-1"],
    ],
)
def test_negative_seed_is_data_error(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rng_seed") and "Traceback" not in err


@pytest.mark.parametrize("theta", ["inf", "nan", "0", "-1", "1e400"])
def test_ratio_that_is_not_a_positive_finite_number_is_data_error(theta, tmp_path, capsys):
    # ratio:inf once meant ell 1, as any theta at or above the first ratio does
    assert cli.main(_RUN + ["--ell", f"ratio:{theta}", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: theta must be a finite number > 0")


@pytest.mark.parametrize("seeds", [",", "3:3"])
@pytest.mark.parametrize("with_corpus", [False, True])
def test_seeds_naming_no_seed_is_usage_error(seeds, with_corpus, tmp_path, capsys):
    argv = ["run", "--dist", "5,5", "--seeds", seeds, "--methods", "lsi",
            "--metrics", "kappa", "--out", str(tmp_path / "o.csv")]
    if with_corpus:
        assert cli.main(["synth", "--dist", "3,3", "--out", str(tmp_path / "c")]) == 0
        argv += ["--corpus", str(tmp_path / "c")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seeds") and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_verify_emits_parseable_records(tmp_path):
    out = tmp_path / "checks.jsonl"
    rc = cli.main(["verify", "--trials", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    summary = records[-1]
    assert summary["summary"] is True and summary["failures"] == 0
    checks = {r["check"] for r in records[:-1]}
    assert checks == {
        "sv_perturbation", "dominance_interval", "truncation_angle", "cosine_bound",
    }
    # every record names its input: the trial's matrix shape, or the instance
    trials, checks = records[:2], records[2:-1]
    assert [r["instance"]["index"] for r in trials] == [0, 1]
    assert all(len(r["instance"]["shape"]) == 2 for r in trials)
    assert [r["instance"]["index"] for r in checks] == [0, 0, 0, 1, 1, 1]
    first = checks[0]["instance"]
    assert first == {
        "index": 0, "seed": 0, "noise": 0.05, "topics": 2, "docs": 16,
        "terms": 34000, "h": first["h"], "eps_lower": first["eps_lower"],
    }
    assert 0.0 < first["eps_lower"] <= checks[0]["quantities"]["eps_opt"]
    assert checks[3]["instance"]["topics"] == 5


def _strict_json(line):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(line, parse_constant=refuse)


def test_verify_writes_null_where_a_precondition_fails(tmp_path):
    # at noise 10 neither the tangent bound nor the cosine envelope applies:
    # the bound is inf and the violations nan, which JSON cannot hold
    out = tmp_path / "checks.jsonl"
    assert cli.main(["verify", "--trials", "2", "--noise", "10", "--out", str(out)]) == 0
    records = [_strict_json(ln) for ln in out.read_text().splitlines()][:-1]
    angle = [r for r in records if r["check"] == "truncation_angle"]
    cosine = [r for r in records if r["check"] == "cosine_bound"]
    assert len(angle) == len(cosine) == 2
    for r in angle + cosine:
        assert r["condition_met"] is False and r["holds"] is True
    for r in angle:
        assert r["quantities"]["tan_bound"] is None
        assert math.isfinite(r["quantities"]["tan_measured"])
    for r in cosine:
        assert r["quantities"]["lower_violation"] is None
        assert r["quantities"]["upper_violation"] is None
        assert r["quantities"]["eps"] >= 1.0


@pytest.mark.parametrize("noise", ["2", "5"])
def test_verify_every_check_holds_at_high_noise(tmp_path, noise):
    # the suites where starting each size from the truncation moved eps_opt, h
    # and which preconditions apply: every check still holds
    out = tmp_path / "checks.jsonl"
    assert cli.main(["verify", "--trials", "24", "--noise", noise, "--out", str(out)]) == 0
    records = [_strict_json(ln) for ln in out.read_text().splitlines()]
    assert records[-1]["summary"] is True and records[-1]["failures"] == 0
    assert len(records[:-1]) == 96 and all(r["holds"] for r in records[:-1])


def test_verify_noise_off_the_table_sizes_terms_by_formula(tmp_path):
    # 0.3 is not a tabled noise level: m = round(84 / 0.3^2) = 933
    out = tmp_path / "checks.jsonl"
    assert cli.main(["verify", "--trials", "1", "--noise", "0.3", "--out", str(out)]) == 0
    records = [_strict_json(ln) for ln in out.read_text().splitlines()][1:-1]
    assert len(records) == 3
    assert {r["instance"]["terms"] for r in records} == {933}
    assert all(r["holds"] for r in records)


def test_verify_inject_bug_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["verify", "--trials", "1", "--inject-bug",
                   "--out", str(tmp_path / "x.jsonl")])
    assert rc == 3


def test_verify_inject_bug_fails_through_the_dominance_check(tmp_path):
    # --inject-bug understates each eps_opt before the verifiers run
    clean, bugged = tmp_path / "clean.jsonl", tmp_path / "bugged.jsonl"
    assert cli.main(["verify", "--trials", "2", "--out", str(clean)]) == 0
    assert cli.main(["verify", "--trials", "2", "--inject-bug", "--out", str(bugged)]) == 3
    records = [json.loads(ln) for ln in bugged.read_text().splitlines()][:-1]
    failed = [r for r in records if not r["holds"]]
    assert failed and {r["check"] for r in failed} == {"dominance_interval"}
    assert all(r["holds"] for r in records if r["check"] == "sv_perturbation")
    first = next(r for r in records if r["check"] == "dominance_interval")
    assert not first["holds"] and first["instance"]["index"] == 0
    original = next(json.loads(ln) for ln in clean.read_text().splitlines()
                    if '"dominance_interval"' in ln)
    assert first["quantities"]["eps_opt"] == original["quantities"]["eps_opt"] * 0.9


def test_verify_noise_zero_reports_exact_quantities(tmp_path):
    out = tmp_path / "exact.jsonl"
    assert cli.main(["verify", "--trials", "1", "--noise", "0",
                     "--out", str(out)]) == 0
    records = [json.loads(ln) for ln in out.read_text().splitlines()]
    dom = next(r for r in records if r["check"] == "dominance_interval")
    assert dom["quantities"]["max_deviation"] < 1e-10


def test_verify_memory_does_not_grow_with_trials(tmp_path):
    # each instance is built, checked and dropped before the next, so the peak
    # is one instance's; tracemalloc counts numpy's buffers exactly, and a
    # suite held whole reads 1.9x the peak at 16 trials that it reads at 4
    peaks = []
    for trials in (4, 16):
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--seed", "42", "--trials", str(trials),
                             "--out", str(tmp_path / f"{trials}.jsonl")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_verify_construction_error_mid_suite_writes_nothing(tmp_path, monkeypatch, capsys):
    build, built = theory.construct_ideal_instance, []

    def second_fails(*args, **kwargs):
        built.append(args)
        if len(built) == 2:
            raise ParameterError("noise cancelled a document column")
        return build(*args, **kwargs)

    monkeypatch.setattr(theory, "construct_ideal_instance", second_fails)
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--trials", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert len(built) == 2  # the third instance is never built


def test_verify_records_match_the_suite_built_whole(tmp_path):
    # verify's records are those of the suite's instances, verified one by one
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--seed", "42", "--trials", "8", "--out", str(out)]) == 0
    expected = []
    for index, inst in enumerate(theory.standard_instance_suite(8, seed=42)):
        instance = {
            "index": index, "seed": inst.seed, "noise": inst.noise,
            "topics": inst.topic_model.n_topics, "docs": inst.topic_model.n_docs,
            "terms": inst.matrix.shape[0], "h": inst.optimum.h,
            "eps_lower": inst.optimum.eps_lower,
        }
        for verify in (theory.verify_dominance_interval, theory.verify_truncation_angle,
                       theory.verify_cosine_bound):
            record = verify(inst)
            record.instance = instance
            expected.append(record.to_json())
    assert out.read_text().splitlines()[8:-1] == expected


def test_plotdata_aggregates_means(tmp_path):
    report = tmp_path / "rows.csv"
    rc = cli.main(["run", "--dist", "9,3", "--seeds", "0:3", "--methods", "lsi,irr",
                   "--noise", "0.3", "--metrics", "kappa", "--out", str(report)])
    assert rc == 0
    out = tmp_path / "plot.csv"
    assert cli.main(["plotdata", "--report", str(report), "--out", str(out)]) == 0
    plot_rows = _read_rows(out)
    assert {r["method"] for r in plot_rows} == {"lsi", "irr"}
    raw = _read_rows(report)
    for pr in plot_rows:
        ys = [float(r["kappa"]) for r in raw if r["method"] == pr["method"]]
        assert float(pr["kappa_mean"]) == pytest.approx(np.mean(ys), abs=1e-12)
        assert float(pr["kappa_std"]) == pytest.approx(np.std(ys), abs=1e-12)
        assert int(pr["n"]) == 3
        assert float(pr["nonuniformity"]) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_plotdata_skips_rows_with_an_empty_cell(tmp_path, capsys):
    report = tmp_path / "r.csv"
    report.write_text("method,nonuniformity,kappa\n"
                      "irr,1.0,0.5\nirr,1.0,\nirr,,0.9\nirr,1.0,0.7\n")
    out = tmp_path / "plot.csv"
    assert cli.main(["plotdata", "--report", str(report), "--out", str(out)]) == 0
    [row] = _read_rows(out)
    assert row["n"] == "2" and float(row["kappa_mean"]) == pytest.approx(0.6)

    report.write_text("method,nonuniformity,kappa\nirr,1.0,\nlsi,,0.5\n")
    capsys.readouterr()
    assert cli.main(["plotdata", "--report", str(report), "--out", str(out)]) == 2
    assert "no rows with both 'nonuniformity' and 'kappa' present" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--methods", "lsi", "--metrics", "none"], "--metrics none is only valid"),
        (["--methods", ","], "at least one method is required"),
        (["--methods", "lsi", "--metrics="], "at least one metric, or none, is required"),
        (["--methods", "lsi", "--metrics=,"], "at least one metric, or none, is required"),
        (["--methods", "lsi", "--dist", ","], "bad distribution"),
    ],
)
def test_run_plan_faults_are_usage_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert cli.main(["run", "--dist", "3,3", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_plotdata_missing_column_is_data_error(tmp_path):
    report = tmp_path / "r.csv"
    report.write_text("a,b\n1,2\n")
    assert cli.main(["plotdata", "--report", str(report)]) == 2
    assert cli.main(["plotdata"]) == 1


_CORPUS = {"c/d0.txt": b"alpha beta\n", "c/d1.txt": b"gamma delta\n",
           "c/topics.tsv": b"d0\tt0\nd1\tt1\n"}
_REPORT = b"run_id,method,nonuniformity,kappa\na,lsi,1.0,0.5\n"
_LONG_FIELD = b"1" * 200_000  # csv's field limit is 131,072 characters
_MATRIX = ["run", "--matrix", "m.csv"]
_PLOTDATA = ["plotdata", "--report", "r.csv"]

# fault -> (files written, argv, the file the error names); argv None reads
# the sidecar of a basis b.ssm1 through load_basis, since no command does
_FILE_FAULTS = {
    "config.non_utf8": ({"c.cfg": b"seeds = 0\xff\n"},
                        ["run", "--dist", "3,3", "--config", "c.cfg"], "c.cfg"),
    "corpus_txt.non_utf8": ({**_CORPUS, "c/d0.txt": b"alpha \xff\n"},
                            ["run", "--corpus", "c"], "c/d0.txt"),
    "topics_tsv.non_utf8": ({**_CORPUS, "c/topics.tsv": b"d0\tt0\nd1\tt\xe9\n"},
                            ["run", "--corpus", "c"], "c/topics.tsv"),
    "matrix_csv.non_utf8": ({"m.csv": b"1.0,2.0\n3.0,\xff\n"}, _MATRIX, "m.csv"),
    "matrix_csv.long_field": ({"m.csv": b"1.0," + _LONG_FIELD + b"\n"}, _MATRIX, "m.csv"),
    "report.non_utf8": ({"r.csv": _REPORT + b"b,irr,\xff,0.5\n"}, _PLOTDATA, "r.csv"),
    "report.long_field": ({"r.csv": _REPORT + b"b,irr,1.0," + _LONG_FIELD + b"\n"},
                          _PLOTDATA, "r.csv"),
    "report.short_row": ({"r.csv": _REPORT + b"b,irr,1.0\n"}, _PLOTDATA, "r.csv"),
    "report.long_row": ({"r.csv": _REPORT + b"b,irr,1.0,0.5,9\n"}, _PLOTDATA, "r.csv"),
    "sidecar.non_utf8": ({"b.ssm1.json": b'{"method": "lsi\xff"}'}, None, "b.ssm1.json"),
    "sidecar.not_json": ({"b.ssm1.json": b"{method: lsi"}, None, "b.ssm1.json"),
}


def _write_files(root, files):
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


@pytest.mark.parametrize(("files", "argv", "named"), _FILE_FAULTS.values(),
                         ids=_FILE_FAULTS.keys())
def test_input_file_fault_is_a_data_error(files, argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path, files)
    if argv is None:
        matrixio.write_matrix_binary("b.ssm1", np.eye(2)[:, :1])
        with pytest.raises(DataError, match=re.escape(named)):
            matrixio.load_basis("b.ssm1")
        return
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err


def test_leading_bom_is_dropped(tmp_path, monkeypatch):
    # Excel and Notepad start a UTF-8 file with a BOM; it is no part of the
    # first field, so a numeric first row stays data and a first key matches
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path, {"m.csv": b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n",
                            "c.cfg": b"\xef\xbb\xbfseeds = 5\n"})
    z, header = matrixio.read_matrix_csv("m.csv")
    assert header is None
    assert np.array_equal(z, [[1.0, 2.0], [3.0, 4.0]])
    assert cli.main(["run", "--dist", "3,3", "--methods", "vsm", "--metrics", "kappa",
                     "--config", "c.cfg", "--out", "o.csv"]) == 0
    assert [r["seed"] for r in _read_rows("o.csv")] == ["5"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("column", ["nonuniformity", "kappa"])
def test_plotdata_refuses_a_non_finite_cell(cell, column, tmp_path, capsys):
    report = tmp_path / "r.csv"
    cells = {"nonuniformity": "1.0", "kappa": "0.5", column: cell}
    report.write_text("method,nonuniformity,kappa\nirr,{nonuniformity},{kappa}\n".format(**cells))
    assert cli.main(["plotdata", "--report", str(report)]) == 2
    assert f"{column} must be a finite number" in capsys.readouterr().err


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-1"],
        ["--noise", "nan"],
        ["--noise", "1e300"],
        ["--noise", "inf"],
    ],
)
def test_verify_bad_seed_or_noise_is_data_error(argv, capsys):
    assert cli.main(["verify", "--trials", "1", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--dist", "3,3", "--noise=--"],
        ["run", "--dist=--"],
        ["verify", "--trials", "1", "--seed=--"],
    ],
)
def test_double_dash_flag_value_is_usage_error(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


_JUNK = st.sampled_from(["", "x", "1,2", "--", "1e", "0x10", "ratio:", "ratio:x", "auto", "1:"])
_INTS = st.one_of(
    st.integers(-5, 12),
    st.integers(-(10**30), 10**30),
    st.sampled_from([2**31, 2**63, 10**30]),
).map(str)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 1e300, -1e300]),
).map(repr)

# A valid --seeds range or --doc-length costs time in proportion to its size,
# so those two stay small; every other value may be huge.
_RUN_FLAGS = {
    "--seeds": st.one_of(
        _INTS, st.tuples(st.integers(-3, 10**30), st.integers(-1, 3)).map(
            lambda lw: f"{lw[0]}:{lw[0] + lw[1]}")
    ),
    "--ell": st.one_of(_INTS, _FLOATS.map(lambda f: f"ratio:{f}")),
    "--q": st.one_of(_FLOATS, st.just("auto")),
    "--alpha": _FLOATS,
    "--beta": _FLOATS,
    "--noise": _FLOATS,
    "--doc-length": st.integers(-(10**30), 300).map(str),
}


def _argv(command, flags, junk):
    """``command`` plus the set flags; ``junk``, if set, overrides one flag
    with a non-numeric value, so that most draws get past the parser."""
    flags = dict(flags)
    if junk is not None:
        flags[junk[0]] = junk[1]
    return command + [f"{flag}={value}" for flag, value in flags.items() if value is not None]


def _main_quietly(argv):
    """cli.main with its output swallowed and every warning an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main(argv)


@settings(deadline=None, max_examples=150)
@given(
    flags=st.fixed_dictionaries({f: st.one_of(st.none(), v) for f, v in _RUN_FLAGS.items()}),
    junk=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(_RUN_FLAGS)), _JUNK)),
)
def test_run_flag_fuzz_ends_in_an_exit_code(flags, junk):
    assert _main_quietly(_argv(["run", "--dist", "3,3"], flags, junk)) in (0, 1, 2, 3)


# Valid noise is drawn from 0.2 up: noise 0.05 builds a 34,000-row instance.
_VERIFY_FLAGS = {
    "--seed": _INTS,
    "--noise": st.one_of(
        st.just("0"),
        st.floats(0.2, 1e308).map(repr),
        st.floats(max_value=-1e-300).map(repr),
        st.sampled_from(["nan", "inf", "-inf"]),
    ),
}


@settings(deadline=None, max_examples=40)
@given(
    flags=st.fixed_dictionaries({f: st.one_of(st.none(), v) for f, v in _VERIFY_FLAGS.items()}),
    junk=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(_VERIFY_FLAGS)), _JUNK)),
)
def test_verify_flag_fuzz_ends_in_an_exit_code(flags, junk):
    assert _main_quietly(_argv(["verify", "--trials", "1"], flags, junk)) in (0, 1, 2, 3)


# Pieces of input files: separators, numbers, names the readers look for,
# bytes that are not UTF-8, NUL, CR, a BOM, quotes and a field past csv's limit.
_PIECES = st.sampled_from([
    b",", b"\t", b"\n", b"\r", b"\r\n", b'"', b"=", b" ", b"#", b"\x00", b"\xff", b"\xe9",
    b"\xef\xbb\xbf", b"0", b"1.5", b"-2", b"1e400", b"nan", b"x", b"d0", b"t0", b"lsi",
    b"method", b"nonuniformity", b"kappa", b"seeds", b"methods", b"9" * 140_000,
])
_FILE_BYTES = st.one_of(st.binary(max_size=40), st.lists(_PIECES, max_size=24).map(b"".join))
_FUZZ_RUNS = (
    ["run", "--dist", "3,3", "--methods", "vsm", "--metrics", "kappa", "--config", "{d}/c.cfg"],
    ["run", "--corpus", "{d}/c", "--methods", "vsm", "--metrics", "kappa"],
    ["run", "--matrix", "{d}/m.csv", "--methods", "lsi", "--ell", "1", "--metrics", "none",
     "--save-basis", "{d}/b.ssm1"],
    ["plotdata", "--report", "{d}/r.csv"],
)


@settings(deadline=None, max_examples=100)
@given(config=_FILE_BYTES, doc=_FILE_BYTES, topics=_FILE_BYTES,
       matrix=_FILE_BYTES, report=_FILE_BYTES, header=st.booleans())
def test_input_file_fuzz_ends_in_an_exit_code(config, doc, topics, matrix, report, header):
    # warnings stay warnings: overflow at extreme scales is a separate defect
    files = {"c.cfg": config, "c/d0.txt": doc, "c/d1.txt": b"alpha beta\n",
             "c/topics.tsv": topics, "m.csv": matrix,
             "r.csv": (_REPORT if header else b"") + report}
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp), files)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for argv in _FUZZ_RUNS:
                assert cli.main([a.format(d=tmp) for a in argv]) in (0, 1, 2, 3)


@pytest.mark.parametrize("method", ["lsi", "irr"])
def test_subspace_rows_score_as_the_projection(method, tmp_path):
    # run scores lsi and irr on the coordinates B^T z, whose cosines are the
    # projection's; the projection B B^T z stays the oracle for every score
    out, saved = tmp_path / "rows.csv", tmp_path / "basis.ssm1"
    # a noisy cell, so that no score is 0 or 1
    rc = cli.main(["run", "--dist", "10,8,6,4", "--seeds", "3", "--methods", method,
                   "--noise", "0.6", "--doc-length", "20", "--ell", "3",
                   "--metrics", "kappa,cluster", "--save-basis", str(saved), "--out", str(out)])
    assert rc == 0
    (row,) = _read_rows(out)
    z, tm = cli._load_synth((10, 8, 6, 4), {"noise_rate": 0.6, "doc_length": 20}, 3)
    x = subspace.represent(matrixio.load_basis(saved), z)
    ranked = evalmetrics.rank_pairs(x)
    intra = corpus.intra_topic_pairs(tm)
    assert float(row["kappa"]) == evalmetrics.kappa_average_precision(ranked, intra)
    outcome = evalmetrics.floor_ceiling(x, tm)
    for name in evalmetrics.ALGORITHMS:
        assert float(row[name]) == outcome.scores[name]
    assert (float(row["floor"]), float(row["ceiling"])) == (outcome.floor, outcome.ceiling)


@pytest.mark.parametrize("method", ["lsi", "irr"])
def test_save_basis_run_raises_no_floating_point_warning(method, tmp_path):
    # the 46,4 corpus is 116 terms x 50 docs, so irr runs on its QR core
    saved = tmp_path / "basis.ssm1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["run", "--dist", "46,4", "--seeds", "0", "--methods", method,
                       "--ell", "ratio:0.5", "--metrics", "kappa,cluster",
                       "--save-basis", str(saved), "--out", str(tmp_path / "rows.csv")])
    assert rc == 0
    basis = matrixio.load_basis(saved)
    assert basis.basis.shape[0] > 50
    assert basis.method == method and math.isfinite(basis.q)


def test_run_whose_auto_q_overflows_is_a_parameter_error(tmp_path, capsys):
    z = np.random.default_rng(0).standard_normal((30, 20)) * 1e77
    mat = tmp_path / "big.ssm1"
    matrixio.write_matrix_binary(mat, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["run", "--matrix", str(mat), "--methods", "irr", "--ell", "3",
                       "--metrics", "none", "--save-basis", str(tmp_path / "b.ssm1"),
                       "--out", str(tmp_path / "rows.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

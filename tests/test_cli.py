"""Command line driver: subcommands, exit codes, determinism, config files."""

import contextlib
import csv
import io
import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrspace import cli, corpus, evalmetrics, matrixio, subspace


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _strip_timing(rows):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


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
            "--methods", "vsm,lsi,irr", "--topics", "2", "--noise", "0.2",
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
        "--topics", "2", "--noise", "0.3", "--metrics", "kappa,cluster",
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


def test_run_metrics_on_unlabeled_matrix_is_data_error(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((8, 4))
    z /= np.linalg.norm(z, axis=0)
    mat = tmp_path / "m.csv"
    matrixio.write_matrix_csv(mat, z)
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
    assert cli.main(["run", "--dist", "4,4", "--methods", "bogus",
                     "--topics", "2"]) == 1
    assert cli.main(["run", "--dist", "4,4", "--methods", "lsi", "--topics", "2",
                     "--metrics", "wrong"]) == 1
    assert cli.main(["run", "--dist", "4,4", "--methods", "lsi", "--topics", "2",
                     "--q", "fast"]) == 1
    assert cli.main(["run", "--dist", "nope", "--methods", "lsi",
                     "--topics", "2"]) == 1


_RUN = ["run", "--dist", "4,4", "--methods", "lsi", "--topics", "2", "--metrics", "kappa"]
_SYNTH = ["synth", "--dist", "4,4"]


@pytest.mark.parametrize(
    "argv",
    [
        _RUN + ["--jobs", "x"],
        _RUN + ["--noise", "abc"],
        _RUN + ["--clusters", "two"],
        _RUN + ["--alpha", "q"],
        _RUN + ["--beta", "b"],
        _RUN + ["--topics", "x"],
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


def test_save_basis_shape_checked_before_any_cell_is_built(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(cli.corpus, "synthesize_collection", fail)
    rc = cli.main(["run", "--dist", "4,4", "--methods", "lsi,irr", "--topics", "2",
                   "--metrics", "none", "--save-basis", str(tmp_path / "b.ssm1")])
    assert rc == 1


def test_run_unlabeled_matrix_without_ell_is_data_error(tmp_path):
    rng = np.random.default_rng(2)
    z = rng.standard_normal((8, 4))
    z /= np.linalg.norm(z, axis=0)
    mat = tmp_path / "m.csv"
    matrixio.write_matrix_csv(mat, z)
    rc = cli.main(["run", "--matrix", str(mat), "--methods", "lsi",
                   "--metrics", "none", "--save-basis", str(tmp_path / "b.ssm1")])
    assert rc == 2


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
        "topics = 2\n"
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
    assert cli.main(["run", "--dist", "4,4", "--topics", "2",
                     "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("warp_drive = on\n")
    assert cli.main(["run", "--dist", "4,4", "--topics", "2",
                     "--config", str(unknown)]) == 2
    assert cli.main(["run", "--dist", "4,4", "--topics", "2",
                     "--config", str(tmp_path / "missing.cfg")]) == 2


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
        (["run", "--methods", "lsi", "--topics", "2"], "dist", "4,x"),
        (["run", "--methods", "lsi", "--topics", "2"], "dist", "4,4;4,x"),
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
    assert cli.main(["run", "--dist", "8,4", "--methods", "irr", "--topics", "2",
                     "--metrics", "kappa", "--out", str(out)]) == 0
    (row,) = _read_rows(out)
    z, _ = cli._load_synth((8, 4), {}, 0)
    assert row["q"] == repr(subspace.auto_scale(z))
    assert subspace.auto_scale(z) == subspace.auto_scale(
        z, subspace.IrrConfig.alpha, subspace.IrrConfig.beta)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--dist", "4,4", "--seeds", "-1", "--methods", "lsi", "--topics", "2",
         "--metrics", "kappa"],
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
    argv = ["run", "--dist", "5,5", "--seeds", seeds, "--methods", "lsi", "--topics", "2",
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


def test_verify_inject_bug_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["verify", "--trials", "1", "--inject-bug",
                   "--out", str(tmp_path / "x.jsonl")])
    assert rc == 3


def test_verify_noise_zero_reports_exact_quantities(tmp_path):
    out = tmp_path / "exact.jsonl"
    assert cli.main(["verify", "--trials", "1", "--noise", "0",
                     "--out", str(out)]) == 0
    records = [json.loads(ln) for ln in out.read_text().splitlines()]
    dom = next(r for r in records if r["check"] == "dominance_interval")
    assert dom["quantities"]["max_deviation"] < 1e-10


def test_plotdata_aggregates_means(tmp_path):
    report = tmp_path / "rows.csv"
    rc = cli.main(["run", "--dist", "9,3", "--seeds", "0:3", "--methods", "lsi,irr",
                   "--topics", "2", "--noise", "0.3", "--metrics", "kappa",
                   "--out", str(report)])
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


def test_plotdata_missing_column_is_data_error(tmp_path):
    report = tmp_path / "r.csv"
    report.write_text("a,b\n1,2\n")
    assert cli.main(["plotdata", "--report", str(report)]) == 2
    assert cli.main(["plotdata"]) == 1


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
    "--topics": _INTS,
    "--clusters": _INTS,
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
    outcome = evalmetrics.floor_ceiling(x, tm, 4)
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

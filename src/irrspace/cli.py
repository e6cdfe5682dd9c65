"""Experiment driver: synthesize corpora, build representations, evaluate,
verify the bounds, and emit CSV / plot-ready data.

Subcommands
-----------
synth     write a deterministic synthetic corpus directory
run       dataset x method x seed sweep -> one CSV row per run
verify    numerical verification of the bounds -> JSON lines + summary
plotdata  aggregate a run CSV into (x, series, mean, std) rows

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 verification
failure.  A value-taking flag may also come from a ``key = value`` config
file via ``--config``, whose keys must name such flags of the subcommand;
command line flags win.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, corpus, evalmetrics, matrixio, subspace, theory
from .errors import DataError, IrrspaceError, ParameterError, as_real

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

CSV_COLUMNS = (
    "run_id",
    "dataset",
    "dist",
    "seed",
    "method",
    "q",
    "ell",
    "clusters",
    "nonuniformity",
    "mingling",
    "f_estimate",
    "kappa",
    *evalmetrics.ALGORITHMS,
    "floor",
    "ceiling",
    "elapsed_ms",
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to exit code 1
        raise _UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _number(text: str, kind: type, flag: str):
    """``kind(text)`` for the value of ``--flag``; a value that does not
    convert is a usage error, not a traceback."""
    try:
        return kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise _UsageError(
            f"--{flag.replace('_', '-')} expects {what}, got {text!r}"
        ) from exc


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ":" in text:
        lo, hi = (_number(t, int, "seeds") for t in text.split(":", 1))
        seeds = list(range(lo, hi))
    else:
        seeds = [_number(s, int, "seeds") for s in text.split(",") if s.strip()]
    if not seeds:
        raise _UsageError(f"--seeds names no seed: {text!r}")
    return seeds


def _parse_dist(text: str) -> tuple[int, ...]:
    counts = tuple(_number(c, int, "dist") for c in text.replace(" ", "").split(",") if c)
    if not counts:
        raise _UsageError(f"bad distribution {text!r}")
    return counts


def _parse_stop(text: str) -> dict:
    """``--ell`` as subspace stopping-rule keywords: ell=<int> or theta=<float>."""
    if text.startswith("ratio:"):
        return {"theta": _number(text[len("ratio:") :], float, "ell")}
    return {"ell": _number(text, int, "ell")}


def _parse_q(text: str) -> float | None:
    """``--q``: None (auto scale) for 'auto', else a float."""
    return None if text == "auto" else _number(text, float, "q")


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


# Each subcommand's flags are one table: flag -> (kind, default, help).  The
# kind turns the flag's text into the value its command reads: int or float
# (through _number), a parser above, str, bool for a switch only the command
# line sets, or [kind] for a repeatable flag.  The default is text too; None
# leaves the flag unset.

# corpus-shape flags of synth and run; each defaults to its SynthSpec field
_SHAPE_FLAGS = {
    "noise": (float, str(corpus.SynthSpec.noise_rate), "shared-vocabulary token rate"),
    "vocab_per_topic": (int, str(corpus.SynthSpec.vocab_per_topic), "terms per topic"),
    "shared_vocab": (int, str(corpus.SynthSpec.shared_vocab), "shared vocabulary size"),
    "doc_length": (int, str(corpus.SynthSpec.doc_length), "tokens per document"),
}

_SYNTH_FLAGS = {
    "dist": (_parse_dist, None, "docs per topic, e.g. 46,4"),
    "seed": (int, str(corpus.SynthSpec.rng_seed), "generator seed"),
    **_SHAPE_FLAGS,
    "out": (str, None, "output corpus directory"),
}

_RUN_FLAGS = {
    "dist": ([_parse_dist], None, "synthetic dataset, repeatable"),
    "corpus": ([str], None, "corpus directory, repeatable"),
    "matrix": ([str], None, "term-document matrix file (.csv or binary)"),
    "seeds": (_parse_seeds, "0", "seed list 1,2,3 or range 0:10, for --dist datasets"),
    "methods": (_parse_list, ",".join(subspace.METHODS), "comma list of methods"),
    "q": (_parse_q, "auto", "'auto' or a nonnegative float, for irr"),
    "alpha": (float, str(subspace.ALPHA), "auto-scale slope"),
    "beta": (float, str(subspace.BETA), "auto-scale intercept"),
    "ell": (_parse_stop, None, "dimensionality: int, or ratio:<theta>"),
    "metrics": (_parse_list, "kappa,cluster",
                "comma list from kappa,cluster ('none' with --save-basis)"),
    **_SHAPE_FLAGS,
    "save_basis": (str, None, "write the basis of a single-method single-dataset run"),
    "out": (str, None, "output CSV path (default stdout)"),
}

_VERIFY_FLAGS = {
    "trials": (int, "12", "instance count"),
    "seed": (int, "0", "suite seed"),
    "noise": (float, None, "override instance noise level"),
    "out": (str, None, "JSON-lines output path (default stdout)"),
    "inject_bug": (bool, None, argparse.SUPPRESS),
}

_PLOTDATA_FLAGS = {
    "report": (str, None, "input CSV from 'run'"),
    "x": (str, "nonuniformity", "x-axis column"),
    "y": (str, "kappa", "y-axis column"),
    "out": (str, None, "output CSV path (default stdout)"),
}


def _spec_kwargs(opts: dict) -> dict:
    """SynthSpec keywords from the corpus-shape flags."""
    return {"noise_rate": opts["noise"], "vocab_per_topic": opts["vocab_per_topic"],
            "shared_vocab": opts["shared_vocab"], "doc_length": opts["doc_length"]}


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(matrixio.read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        value = value.strip().strip("\"'")
        if not key:
            raise DataError(f"{path}:{lineno}: empty key")
        out[key] = value
    return out


def _convert(kind, flag: str, text):
    """The value of ``--flag`` from its text; None stays None, and an empty
    path or name is a usage error."""
    if isinstance(kind, list):
        return [_convert(kind[0], flag, t) for t in text or ()]
    if text is None:
        return None
    if kind is str and not text:
        raise _UsageError(f"--{flag.replace('_', '-')} expects a nonempty value, got ''")
    return _number(text, kind, flag) if kind in (int, float) else kind(text)


def _merge(args: argparse.Namespace) -> dict:
    """Each flag of the command from the command line, else the config file,
    else its default, converted by its kind.  A switch has no config key."""
    _, _, flags = _COMMANDS[args.command]
    config = _convert(str, "config", args.config)
    cfg = _load_config(config) if config is not None else {}
    unknown = set(cfg) - {key for key, (kind, _, _) in flags.items() if kind is not bool}
    if unknown:
        raise DataError(f"config keys not recognized: {sorted(unknown)}")
    opts = {}
    for key, (kind, default, _) in flags.items():
        text = getattr(args, key)
        if text is None and key in cfg:
            # repeatable flags take ';'-separated config values
            text = cfg[key].split(";") if isinstance(kind, list) else cfg[key]
        opts[key] = _convert(kind, key, default if text is None else text)
    return opts


def _build_parser() -> _Parser:
    parser = _Parser(prog="irrspace", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"irrspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key, (kind, default, text) in flags.items():
            action = "store_true" if kind is bool else "append" if isinstance(kind, list) else None
            suffix = "" if default is None else f" (default {default})"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, action=action,
                           help=text + suffix)
        p.add_argument("--config", help="key = value defaults file")
    return parser


def _write(text: str, out: str | None) -> None:
    """``text`` to the file ``out``, or to stdout when ``out`` is unset."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(rows, out: str | None) -> None:
    """``rows``, the header first, as CSV to ``out`` or stdout."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _write(buf.getvalue(), out)


def cmd_synth(opts: dict) -> int:
    if not opts["dist"]:
        raise _UsageError("synth requires --dist")
    if not opts["out"]:
        raise _UsageError("synth requires --out")
    spec = corpus.SynthSpec(distribution=opts["dist"], rng_seed=opts["seed"],
                            **_spec_kwargs(opts))
    docs, _ = corpus.synthesize_collection(spec)
    corpus.write_corpus_dir(opts["out"], docs, asdict(spec))
    # a name that is not UTF-8 is printed with its undecodable bytes escaped
    shown = os.fsencode(opts["out"]).decode("utf-8", "backslashreplace")
    print(f"wrote {len(docs)} documents to {shown}")
    return EXIT_OK


# Cell loaders: each returns (term-document matrix, TopicModel | None).
def _load_synth(dist, spec_kwargs, seed):
    spec = corpus.SynthSpec(distribution=dist, rng_seed=seed, **spec_kwargs)
    docs, tm = corpus.synthesize_collection(spec)
    return corpus.build_matrix(docs).matrix, tm


def _load_corpus(path):
    docs = corpus.load_corpus_dir(path)
    tdm = corpus.build_matrix(docs)
    tm = corpus.topic_model_from_docs(docs) if all(d.topics for d in docs) else None
    return tdm.matrix, tm


def _load_matrix(path):
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return matrixio.read_matrix_csv(p)[0], None
    return matrixio.read_matrix_binary(p), None


def _collect_cells(opts: dict) -> list[tuple]:
    """One (dataset, dist label, seed text or '-', load) per dataset x seed;
    ``load()`` builds the cell's matrix and topic model."""
    spec_kwargs = _spec_kwargs(opts)
    cells = []
    for dist in opts["dist"]:
        label = ",".join(str(c) for c in dist)
        for seed in opts["seeds"]:
            cells.append((f"synth:{label}", label, str(seed),
                          functools.partial(_load_synth, dist, spec_kwargs, seed)))
    for path in opts["corpus"]:
        cells.append((f"corpus:{Path(path).name}", "", "-",
                      functools.partial(_load_corpus, path)))
    for path in opts["matrix"]:
        cells.append((f"matrix:{Path(path).stem}", "", "-",
                      functools.partial(_load_matrix, path)))
    if not cells:
        raise _UsageError("run requires at least one --dist, --corpus, or --matrix")
    for dataset, *_ in cells:  # it is written to the UTF-8 CSV
        try:
            dataset.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"dataset name {dataset!r} is not UTF-8 text") from None
    return cells


def _run_id(dataset: str, seed: str, method: str) -> str:
    return f"{dataset}:s{seed}:{method}"


def _run_cell(dataset: str, dist_label: str, seed: str, load, opts: dict,
              metrics: frozenset[str]) -> list[list[str]]:
    """The cell's CSV rows, each formatted once from the values it computed;
    without --ell, ell is the cell's topic count.  The cell writes
    --save-basis after its last row, so a cell that fails writes no basis."""
    z, tm = load()
    if metrics and tm is None:
        raise DataError(f"{dataset}: kappa and clustering need topic labels")
    stop = opts["ell"] or ({"ell": tm.n_topics} if tm is not None else None)
    intra = corpus.intra_topic_pairs(tm) if "kappa" in metrics else None
    shared = {"dataset": dataset, "dist": dist_label, "seed": seed,
              **(asdict(theory.topic_stats(tm)) if tm is not None else {})}
    rows = []
    basis = None
    for method in opts["methods"]:
        t0 = time.perf_counter()
        row = {"run_id": _run_id(dataset, seed, method), "method": method, **shared}
        x = z
        if method != "vsm":
            if stop is None:
                raise ParameterError("no dimensionality: give --ell")
            if method == "lsi":
                basis = subspace.lsi(z, **stop)
            else:
                basis = subspace.irr(z, **stop, q=opts["q"], alpha=opts["alpha"],
                                     beta=opts["beta"])
            # cosines and spherical k-means read the same on the ell x n
            # coordinates B^T z as on the projection B B^T z (B orthonormal)
            x = basis.basis.T @ z
            row.update(q=basis.q, ell=basis.ell)
        if "kappa" in metrics:
            row["kappa"] = evalmetrics.kappa_average_precision(evalmetrics.rank_pairs(x), intra)
        if "cluster" in metrics:
            outcome = evalmetrics.floor_ceiling(x, tm)
            row.update(outcome.scores, clusters=tm.n_topics, floor=outcome.floor,
                       ceiling=outcome.ceiling)
        row["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        rows.append([_fmt(row.get(col)) for col in CSV_COLUMNS])
    if opts["save_basis"]:  # _plan_run allows one cell and one subspace method
        matrixio.save_basis(opts["save_basis"], basis)
    return rows


def _plan_run(opts: dict, cells: list[tuple]) -> frozenset[str]:
    """Check methods, metrics, run_ids and --save-basis before any cell is
    built; return the metrics to compute."""
    methods, metrics = opts["methods"], opts["metrics"]
    if not methods:
        raise _UsageError("at least one method is required")
    unknown_methods = [m for m in methods if m not in subspace.METHODS]
    if unknown_methods:
        raise _UsageError(f"unknown methods: {unknown_methods}")
    run_ids = collections.Counter(_run_id(d, seed, m) for d, _, seed, _ in cells for m in methods)
    repeated = [run_id for run_id, count in run_ids.items() if count > 1]
    if repeated:
        raise _UsageError(f"run_id {repeated[0]!r} would be written more than once: "
                          "give each dataset, seed and method once")
    if not metrics:
        raise _UsageError("at least one metric, or none, is required")
    if metrics == ("none",):
        if not opts["save_basis"]:
            raise _UsageError("--metrics none is only valid with --save-basis")
        metrics = ()
    bad = set(metrics) - {"kappa", "cluster"}
    if bad:
        raise _UsageError(f"unknown metrics: {sorted(bad)}")
    if opts["save_basis"] and (len(cells) != 1 or len(set(methods) - {"vsm"}) != 1):
        raise _UsageError("--save-basis needs exactly one dataset and one subspace method")
    return frozenset(metrics)


def cmd_run(opts: dict) -> int:
    cells = _collect_cells(opts)
    metrics = _plan_run(opts, cells)
    # run_id leads each row and is unique, so the rows sort by it
    rows = sorted(row for cell in cells for row in _run_cell(*cell, opts, metrics))
    _write_csv([CSV_COLUMNS, *rows], opts["out"])
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    trials, seed = opts["trials"], opts["seed"]
    # checked here, before rng sees a bad seed or noise; built one at a time below
    suite = theory.standard_instance_suite(trials, seed=seed, noise=opts["noise"])
    records: list[theory.TheoremRecord] = []

    rng = np.random.default_rng(seed)
    for index in range(trials):
        shape = (int(rng.integers(2, 40)), int(rng.integers(2, 30)))
        x1 = rng.standard_normal(shape)
        x2 = x1 + rng.standard_normal(shape) * rng.uniform(0.0, 0.5)
        records.append(theory.verify_sv_perturbation(x1, x2))
        records[-1].instance = {"index": index, "shape": list(shape)}

    for index, inst in enumerate(suite):
        tm, optimum = inst.topic_model, inst.optimum
        if opts["inject_bug"]:  # an understated optimum, for the dominance check to catch
            optimum.eps_opt *= 0.9
        instance = {
            "index": index, "seed": inst.seed, "noise": inst.noise,
            "topics": tm.n_topics, "docs": tm.n_docs, "terms": inst.matrix.shape[0],
            "h": optimum.h, "eps_lower": optimum.eps_lower,
        }
        for verify in (theory.verify_dominance_interval, theory.verify_truncation_angle,
                       theory.verify_cosine_bound):
            records.append(verify(inst))
            records[-1].instance = instance

    lines = [r.to_json() for r in records]
    failures = sum(1 for r in records if not r.holds)
    summary = json.dumps(
        {"checks": len(records), "failures": failures, "summary": True},
        sort_keys=True,
    )
    _write("\n".join(lines + [summary]) + "\n", opts["out"])
    if opts["out"]:
        print(f"checks: {len(records)}, failures: {failures}")
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_plotdata(opts: dict) -> int:
    if not opts["report"]:
        raise _UsageError("plotdata requires --report")
    report, x_col, y_col = opts["report"], opts["x"], opts["y"]
    rows = matrixio.read_csv(report)
    if not rows:
        raise DataError(f"{report}: empty CSV")
    at = {name: i for i, name in enumerate(rows[0])}  # a repeated name: its last column
    for col in (x_col, y_col, "method"):
        if col not in at:
            raise DataError(f"{report}: missing column {col!r}")

    groups: dict[tuple[str, float], list[float]] = {}
    for row in rows[1:]:
        x, y = row[at[x_col]], row[at[y_col]]
        if x == "" or y == "":
            continue
        try:
            key = (row[at["method"]], as_real(x_col, float(x)))
            groups.setdefault(key, []).append(as_real(y_col, float(y)))
        except ValueError as exc:  # float's, or as_real's ParameterError
            raise DataError(f"{report}: bad {x_col}/{y_col} value: {exc}") from exc
    if not groups:
        raise DataError(f"no rows with both {x_col!r} and {y_col!r} present")

    rows = [[x_col, "method", f"{y_col}_mean", f"{y_col}_std", "n"]]
    for (method, x), ys in sorted(groups.items()):
        rows.append([_fmt(x), method, _fmt(float(np.mean(ys))), _fmt(float(np.std(ys))), len(ys)])
    _write_csv(rows, opts["out"])
    return EXIT_OK


# subcommand -> (handler, help, flags)
_COMMANDS = {
    "synth": (cmd_synth, "write a synthetic corpus directory", _SYNTH_FLAGS),
    "run": (cmd_run, "run methods over datasets, emit CSV rows", _RUN_FLAGS),
    "verify": (cmd_verify, "verify the bounds numerically", _VERIFY_FLAGS),
    "plotdata": (cmd_plotdata, "aggregate a run CSV for plotting", _PLOTDATA_FLAGS),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # before Python 3.12, argparse turns the value of --flag=-- into []
        if any(a.startswith("--") and a.endswith("=--") for a in argv):
            raise _UsageError("'--' is not a flag value")
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](_merge(args))
    except SystemExit as exc:  # --help / --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (_UsageError, IrrspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

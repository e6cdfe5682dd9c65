"""Experiment driver: synthesize corpora, build representations, evaluate,
verify the bounds, and emit CSV / plot-ready data.

Subcommands
-----------
synth     write a deterministic synthetic corpus directory
run       dataset x method x seed sweep -> one CSV row per run
verify    numerical verification of the bounds -> JSON lines + summary
plotdata  aggregate a run CSV into (x, series, mean, std) rows

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 verification
failure.  All value-taking flags may also come from a ``key = value`` config
file via ``--config``; command line flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, corpus, evalmetrics, matrixio, subspace, theory
from .errors import DataError, IrrspaceError, ParameterError

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


def _number(text: str | None, kind: type, flag: str):
    """``kind(text)`` for the value of ``--flag``; None stays None.

    A value that does not convert is a usage error, not a traceback.
    """
    if text is None:
        return None
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


# corpus-shape flag of synth and run -> (SynthSpec field, type, help)
_SYNTH_FLAGS = {
    "noise": ("noise_rate", float, "shared-vocabulary token rate (default 0)"),
    "vocab_per_topic": ("vocab_per_topic", int, "terms per topic (default 60)"),
    "shared_vocab": ("shared_vocab", int, "shared vocabulary size (default 150)"),
    "doc_length": ("doc_length", int, "tokens per document (default 45)"),
}


def _synth_kwargs(opts: dict) -> dict:
    """SynthSpec keywords from the synth flags that are set."""
    return {
        field: _number(opts[key], kind, key)
        for key, (field, kind, _) in _SYNTH_FLAGS.items()
        if opts.get(key) is not None
    }


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    for key, (_, _, text) in _SYNTH_FLAGS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text)


def _load_config(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
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


def _merge(args: argparse.Namespace, defaults: dict[str, str]) -> dict[str, str | list[str] | bool | None]:
    """Config-file values fill flags left unset; hard defaults fill the rest."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    merged: dict = {}
    for key, original in vars(args).items():
        if key == "config":
            continue
        value = original
        if value is None or (isinstance(value, list) and not value):
            if key in cfg:
                # repeatable flags take ';'-separated config values
                value = cfg[key].split(";") if isinstance(original, list) else cfg[key]
            elif key in defaults:
                value = defaults[key]
        merged[key] = value
    unknown = set(cfg) - set(merged)
    if unknown:
        raise DataError(f"config keys not recognized: {sorted(unknown)}")
    return merged


def _build_parser() -> _Parser:
    parser = _Parser(prog="irrspace", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"irrspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic corpus directory")
    p_synth.add_argument("--dist", help="docs per topic, e.g. 46,4")
    p_synth.add_argument("--seed", help="generator seed (default 0)")
    _add_synth_flags(p_synth)
    p_synth.add_argument("--out", help="output corpus directory")

    p_run = sub.add_parser("run", help="run methods over datasets, emit CSV rows")
    p_run.add_argument("--dist", action="append", default=[],
                       help="synthetic dataset, repeatable")
    p_run.add_argument("--corpus", action="append", default=[],
                       help="corpus directory, repeatable")
    p_run.add_argument("--matrix", action="append", default=[],
                       help="term-document matrix file (.csv or binary)")
    p_run.add_argument("--seeds", help="seed list 1,2,3 or range 0:10 (synth only)")
    p_run.add_argument("--methods", help="comma list from vsm,lsi,irr")
    p_run.add_argument("--q", help="'auto' or a nonnegative float (irr)")
    p_run.add_argument("--alpha", help="auto-scale slope (default 3.5)")
    p_run.add_argument("--beta", help="auto-scale intercept (default 0)")
    p_run.add_argument("--ell", help="dimensionality: int, or ratio:<theta>")
    p_run.add_argument("--topics", help="known topic count (sets default ell)")
    p_run.add_argument("--clusters", help="cluster count override")
    p_run.add_argument("--metrics", help="comma list from kappa,cluster "
                                         "(or 'none' with --save-basis)")
    _add_synth_flags(p_run)
    p_run.add_argument("--save-basis", dest="save_basis",
                       help="write the basis of a single-method single-dataset run")
    p_run.add_argument("--out", help="output CSV path (default stdout)")

    p_verify = sub.add_parser("verify", help="verify the bounds numerically")
    p_verify.add_argument("--trials", help="instance count (default 12)")
    p_verify.add_argument("--seed", help="suite seed (default 0)")
    p_verify.add_argument("--noise", help="override instance noise level")
    p_verify.add_argument("--out", help="JSON-lines output path (default stdout)")
    p_verify.add_argument("--inject-bug", dest="inject_bug", action="store_true",
                          help=argparse.SUPPRESS)

    p_plot = sub.add_parser("plotdata", help="aggregate a run CSV for plotting")
    p_plot.add_argument("--report", help="input CSV from 'run'")
    p_plot.add_argument("--x", help="x-axis column (default nonuniformity)")
    p_plot.add_argument("--y", help="y-axis column (default kappa)")
    p_plot.add_argument("--out", help="output CSV path (default stdout)")

    for p in sub.choices.values():
        p.add_argument("--config", help="key = value defaults file")
    return parser


def _write(text: str, out: str | None) -> None:
    """``text`` to the file ``out``, or to stdout when ``out`` is unset."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_synth(opts: dict) -> int:
    if not opts.get("dist"):
        raise _UsageError("synth requires --dist")
    if not opts.get("out"):
        raise _UsageError("synth requires --out")
    spec = corpus.SynthSpec(
        distribution=_parse_dist(opts["dist"]),
        rng_seed=_number(opts["seed"], int, "seed"),
        **_synth_kwargs(opts),
    )
    docs, _ = corpus.synthesize_collection(spec)
    corpus.write_corpus_dir(opts["out"], docs, asdict(spec))
    print(f"wrote {len(docs)} documents to {opts['out']}")
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
    """One (dataset, dist label, seed, load) per dataset x seed; ``load()``
    builds the cell's matrix and topic model."""
    spec_kwargs = _synth_kwargs(opts)
    seeds = _parse_seeds(opts["seeds"])
    cells = []
    for dist_text in opts["dist"]:
        dist = _parse_dist(dist_text)
        label = ",".join(str(c) for c in dist)
        for seed in seeds:
            cells.append((f"synth:{label}", label, seed,
                          functools.partial(_load_synth, dist, spec_kwargs, seed)))
    for path in opts["corpus"]:
        cells.append((f"corpus:{Path(path).name}", "", None,
                      functools.partial(_load_corpus, path)))
    for path in opts["matrix"]:
        cells.append((f"matrix:{Path(path).stem}", "", None,
                      functools.partial(_load_matrix, path)))
    if not cells:
        raise _UsageError("run requires at least one --dist, --corpus, or --matrix")
    return cells


@dataclass(frozen=True)
class _RunPlan:
    """The ``run`` options, parsed and validated once before any cell is built.

    ``stop`` is the subspace stopping rule from --ell ({"ell": n} or
    {"theta": t}); without it, ell is --topics or the cell's topic count.
    """

    methods: tuple[str, ...]
    metrics: frozenset[str]
    q: float | None
    alpha: float
    beta: float
    topics: int | None
    clusters: int | None
    stop: dict | None


def _run_cell(dataset: str, dist_label: str, seed: int | None, load, plan: _RunPlan):
    """The cell's CSV rows and the last subspace basis it built."""
    z, tm = load()
    if plan.metrics and tm is None:
        raise DataError(f"{dataset}: kappa and clustering need topic labels")
    topics = plan.topics if plan.topics is not None else (tm.n_topics if tm else None)
    stop = plan.stop or ({"ell": topics} if topics is not None else None)
    intra = corpus.intra_topic_pairs(tm) if "kappa" in plan.metrics else None

    stats = theory.topic_stats(tm) if tm is not None else None
    seed_text = str(seed) if seed is not None else "-"
    rows = []
    built = None
    for method in plan.methods:
        t0 = time.perf_counter()
        if method == "vsm":
            basis = None
        elif stop is None:
            raise ParameterError("no dimensionality: give --ell or --topics")
        elif method == "lsi":
            basis = built = subspace.lsi(z, **stop)
        else:
            config = subspace.IrrConfig(q=plan.q, alpha=plan.alpha, beta=plan.beta, **stop)
            basis = built = subspace.irr(z, config)
        if basis is None:
            x, q_out, ell_out = z, None, None
        else:
            # cosines and spherical k-means read the same on the ell x n
            # coordinates B^T z as on the projection B B^T z (B orthonormal)
            x, q_out, ell_out = basis.basis.T @ z, basis.q, basis.ell

        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(
            run_id=f"{dataset}:s{seed_text}:{method}",
            dataset=dataset,
            dist=dist_label,
            seed=seed_text,
            method=method,
            q=_fmt(q_out),
            ell=_fmt(ell_out),
        )
        if stats is not None:
            row.update(
                nonuniformity=_fmt(stats.nonuniformity),
                mingling=_fmt(stats.mingling),
                f_estimate=_fmt(stats.f_estimate),
            )
        if "kappa" in plan.metrics:
            ranked = evalmetrics.rank_pairs(x)
            row["kappa"] = _fmt(evalmetrics.kappa_average_precision(ranked, intra))
        if "cluster" in plan.metrics:
            n_clusters = plan.clusters if plan.clusters is not None else topics
            outcome = evalmetrics.floor_ceiling(x, tm, n_clusters)
            row["clusters"] = _fmt(n_clusters)
            for name in evalmetrics.ALGORITHMS:
                row[name] = _fmt(outcome.scores[name])
            row["floor"] = _fmt(outcome.floor)
            row["ceiling"] = _fmt(outcome.ceiling)
        row["elapsed_ms"] = _fmt(round((time.perf_counter() - t0) * 1000.0, 3))
        rows.append(row)
    return rows, built


def _plan_run(opts: dict, n_cells: int) -> _RunPlan:
    methods = tuple(m.strip() for m in opts["methods"].split(",") if m.strip())
    if not methods:
        raise _UsageError("at least one method is required")
    unknown_methods = [m for m in methods if m not in subspace.METHODS]
    if unknown_methods:
        raise _UsageError(f"unknown methods: {unknown_methods}")
    metrics = [m.strip() for m in opts["metrics"].split(",") if m.strip()]
    if metrics == ["none"]:
        if not opts.get("save_basis"):
            raise _UsageError("--metrics none is only valid with --save-basis")
        metrics = []
    bad = set(metrics) - {"kappa", "cluster"}
    if bad:
        raise _UsageError(f"unknown metrics: {sorted(bad)}")
    if opts.get("save_basis") and (n_cells != 1 or len(set(methods) - {"vsm"}) != 1):
        raise _UsageError("--save-basis needs exactly one dataset and one subspace method")
    return _RunPlan(
        methods=methods,
        metrics=frozenset(metrics),
        q=None if opts["q"] == "auto" else _number(opts["q"], float, "q"),
        alpha=_number(opts["alpha"], float, "alpha"),
        beta=_number(opts["beta"], float, "beta"),
        topics=_number(opts.get("topics"), int, "topics"),
        clusters=_number(opts.get("clusters"), int, "clusters"),
        stop=_parse_stop(opts["ell"]) if opts.get("ell") else None,
    )


def cmd_run(opts: dict) -> int:
    cells = _collect_cells(opts)
    plan = _plan_run(opts, len(cells))
    all_rows: list[dict] = []
    for cell in cells:
        rows, basis = _run_cell(*cell, plan)
        all_rows.extend(rows)

    if opts.get("save_basis"):  # _plan_run allows one cell and one subspace method
        matrixio.save_basis(opts["save_basis"], basis)

    all_rows.sort(key=lambda r: r["run_id"])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(all_rows)
    _write(buf.getvalue(), opts.get("out"))
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    trials = _number(opts["trials"], int, "trials")
    seed = _number(opts["seed"], int, "seed")
    noise = _number(opts.get("noise"), float, "noise")
    # built first: the suite rejects a bad seed or noise before rng sees it
    suite = theory.standard_instance_suite(trials, seed=seed, noise=noise)
    records: list[theory.TheoremRecord] = []

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        shape = (int(rng.integers(2, 40)), int(rng.integers(2, 30)))
        x1 = rng.standard_normal(shape)
        x2 = x1 + rng.standard_normal(shape) * rng.uniform(0.0, 0.5)
        records.append(theory.verify_sv_perturbation(x1, x2))

    for inst in suite:
        records.append(theory.verify_dominance_interval(inst))
        records.append(theory.verify_truncation_angle(inst))
        records.append(theory.verify_cosine_bound(inst))

    if opts.get("inject_bug") and records:
        records[0].holds = not records[0].holds

    lines = [r.to_json() for r in records]
    failures = sum(1 for r in records if not r.holds)
    summary = json.dumps(
        {"checks": len(records), "failures": failures, "summary": True},
        sort_keys=True,
    )
    _write("\n".join(lines + [summary]) + "\n", opts.get("out"))
    if opts.get("out"):
        print(f"checks: {len(records)}, failures: {failures}")
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_plotdata(opts: dict) -> int:
    if not opts.get("report"):
        raise _UsageError("plotdata requires --report")
    x_col, y_col = opts["x"], opts["y"]
    try:
        with open(opts["report"], newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{opts['report']}: empty CSV")
            for col in (x_col, y_col, "method"):
                if col not in reader.fieldnames:
                    raise DataError(f"{opts['report']}: missing column {col!r}")
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {opts['report']}: {exc}") from exc

    groups: dict[tuple[str, float], list[float]] = {}
    for row in rows:
        if row[y_col] == "" or row[x_col] == "":
            continue
        try:
            key = (row["method"], float(row[x_col]))
            groups.setdefault(key, []).append(float(row[y_col]))
        except ValueError as exc:
            raise DataError(f"non-numeric {x_col}/{y_col} value in report") from exc
    if not groups:
        raise DataError(f"no rows with both {x_col!r} and {y_col!r} present")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([x_col, "method", f"{y_col}_mean", f"{y_col}_std", "n"])
    for (method, x), ys in sorted(groups.items()):
        arr = np.asarray(ys)
        writer.writerow(
            [_fmt(x), method, _fmt(float(arr.mean())), _fmt(float(arr.std())), len(ys)]
        )
    _write(buf.getvalue(), opts.get("out"))
    return EXIT_OK


# subcommand -> (handler, hard defaults of its value-taking flags)
_COMMANDS = {
    "synth": (cmd_synth, {"seed": "0"}),
    "run": (cmd_run, {"methods": "vsm,lsi,irr", "metrics": "kappa,cluster", "q": "auto",
                      "alpha": "3.5", "beta": "0.0", "seeds": "0"}),
    "verify": (cmd_verify, {"trials": "12", "seed": "0"}),
    "plotdata": (cmd_plotdata, {"x": "nonuniformity", "y": "kappa"}),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # before Python 3.12, argparse turns the value of --flag=-- into []
        if any(a.startswith("--") and a.endswith("=--") for a in argv):
            raise _UsageError("'--' is not a flag value")
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    handler, defaults = _COMMANDS[args.command]
    try:
        return handler(_merge(args, defaults))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IrrspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

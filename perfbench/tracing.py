"""Layer spans recorded from outside the package by rebinding module attributes.

Every wrapped name is looked up through its module at call time by the
package's own code (``corpus.tokenize`` inside ``build_matrix``,
``evalmetrics.cut_tree`` inside ``_hierarchical``, ...), so replacing the
module attribute puts a span around each call without touching ``src/``.
Spans are kept in memory as (name, start_ns, end_ns, parent) and written out
once, after the traced pass.

A name that no longer exists in its module makes ``Tracer.install`` raise:
a renamed function must fail the traced run, not report zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass

LAYERS = ("corpus", "subspace", "linalg", "evalmetrics", "theory", "matrixio", "cli")

# (module, attribute) pairs wrapped in the traced pass.  The scipy names are
# the ones bound inside ``evalmetrics``; the private stage functions are the
# targets of the open performance items.
WRAPPED = (
    ("corpus", "synthesize_collection"),
    ("corpus", "build_matrix"),
    ("corpus", "tokenize"),
    ("corpus", "intra_topic_pairs"),
    ("subspace", "auto_scale"),
    ("subspace", "rescale"),
    ("subspace", "irr"),
    ("subspace", "lsi"),
    ("subspace", "dimensionality_by_residual_ratio"),
    ("subspace", "represent"),
    ("linalg", "svd"),
    ("linalg", "project"),
    ("linalg", "canonical_angles"),
    ("evalmetrics", "cosine_matrix"),
    ("evalmetrics", "rank_pairs"),
    ("evalmetrics", "kappa_average_precision"),
    ("evalmetrics", "floor_ceiling"),
    ("evalmetrics", "cluster"),
    ("evalmetrics", "_spherical_kmeans"),
    ("evalmetrics", "linkage"),
    ("evalmetrics", "cut_tree"),
    ("theory", "construct_ideal_instance"),
    ("theory", "optimum_subspace"),
    ("theory", "_best_subset"),
    ("theory", "_refine"),
    ("theory", "_eps_of_coords"),
    ("theory", "verify_dominance_interval"),
    ("theory", "verify_truncation_angle"),
    ("theory", "verify_cosine_bound"),
    ("theory", "verify_sv_perturbation"),
    ("matrixio", "save_basis"),
    ("cli", "main"),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
SELF_TIMED = (
    "evalmetrics.cut_tree",
    *(f"evalmetrics.cluster.{a}" for a in (
        "single_link", "complete_link", "group_average",
        "kmeans_single_link", "kmeans_complete_link", "kmeans_group_average",
    )),
    "evalmetrics._spherical_kmeans",
    "evalmetrics.rank_pairs",
    "evalmetrics.kappa_average_precision",
    "evalmetrics.floor_ceiling",
    "corpus.intra_topic_pairs",
    "corpus.synthesize_collection",
    "corpus.build_matrix",
    "corpus.tokenize",
    "theory.optimum_subspace",
    "theory._best_subset",
    "theory._refine",
    # the batched eigvalsh of every candidate; a child of _best_subset / _refine
    "theory._eps_of_coords",
    "theory.construct_ideal_instance",
    "theory.verify_dominance_interval",
    "theory.verify_truncation_angle",
    "theory.verify_cosine_bound",
    "theory.verify_sv_perturbation",
    "subspace.irr",
    "subspace.lsi",
    "subspace.dimensionality_by_residual_ratio",
    "subspace.represent",
    "subspace.auto_scale",
    "linalg.svd",
    "linalg.project",
    "linalg.canonical_angles",
    "matrixio.save_basis",
    "cli",
)
CALL_COUNTED = (
    "evalmetrics.cut_tree",
    "evalmetrics.linkage",
    "evalmetrics.cosine_matrix",
    "corpus.tokenize",
    "subspace.rescale",
    "linalg.svd",
)
EXTRA_COUNTS = (
    "theory._refine.rounds",
    "theory.eps_evals",
    "subspace.irr.directions",
    "matrixio.save_basis.bytes",
)


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in reporting order."""
    units = {}
    for name in CALL_COUNTED:
        units[f"{name}.calls"] = "count"
    for name in SELF_TIMED:
        units[f"{name}.self_s"] = "s"
    for name in EXTRA_COUNTS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 at top level
    layer: str
    error: bool = False
    count: int = 0  # work counted from arguments or return value


class Tracer:
    """Wraps the ``WRAPPED`` attributes and collects spans while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = []
        for mod_name, attr in WRAPPED:
            module = importlib.import_module(f"irrspace.{mod_name}")
            if not hasattr(module, attr):
                raise AttributeError(
                    f"irrspace.{mod_name}.{attr} no longer exists; "
                    "update perfbench/tracing.py WRAPPED before tracing"
                )
            targets.append((module, mod_name, attr))
        for module, mod_name, attr in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(mod_name, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, layer: str, attr: str, fn):
        base = "cli" if layer == "cli" else f"{layer}.{attr}"
        counter = _COUNTERS.get(base)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = base
            if base == "evalmetrics.cluster":
                name = f"{base}.{_arg(args, kwargs, 2, 'algorithm')}"
            index = len(self.spans)
            span = Span(name, time.perf_counter_ns(), 0,
                        self._stack[-1] if self._stack else -1, layer)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            if layer == "cli" and result != 0:
                span.error = True
            return result

        return wrapper

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "error": s.error, "count": s.count,
                }) + "\n")

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics (without trace.*)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        counts: dict[str, int] = {}
        errors = dict.fromkeys(LAYERS, 0)
        rounds = 0
        for i, s in enumerate(self.spans):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_ns[s.name] = self_ns.get(s.name, 0) + (s.end_ns - s.start_ns - child_ns[i])
            counts[s.name] = counts.get(s.name, 0) + s.count
            if s.error:
                errors[s.layer] += 1
            if s.name == "theory._eps_of_coords" and s.parent >= 0 \
                    and self.spans[s.parent].name == "theory._refine":
                rounds += 1
        out: dict[str, float] = {}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        out["theory._refine.rounds"] = rounds
        out["theory.eps_evals"] = counts.get("theory._eps_of_coords", 0)
        out["subspace.irr.directions"] = counts.get("subspace.irr", 0)
        out["matrixio.save_basis.bytes"] = counts.get("matrixio.save_basis", 0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        return out


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _saved_bytes(args, kwargs, result) -> int:
    path = str(_arg(args, kwargs, 0, "path"))
    return os.path.getsize(path) + os.path.getsize(path + ".json")


_COUNTERS = {
    # candidates whose deviation norm is evaluated: rows of the coordinate stack
    "theory._eps_of_coords": lambda a, k, r: int(_arg(a, k, 1, "m_stack").shape[0]),
    "subspace.irr": lambda a, k, r: int(r.ell),
    "matrixio.save_basis": _saved_bytes,
}

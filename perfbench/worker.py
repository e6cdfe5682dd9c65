"""One workload in one fresh process: set up, signal ready, run timed passes,
check every pass's outputs, and report one JSON line on stdout.

Started by ``run.py`` with the BLAS thread count and ``PYTHONPATH`` fixed in
the environment; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def import_package(root: Path):
    """Import irrspace and make sure it is the checkout's own source tree."""
    from irrspace import cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"irrspace imported from {cli.__file__}, not from {src}")
    return cli


def run_argvs(cli, argvs) -> list[int]:
    """Exit code of each command line; an exception counts as a failed run."""
    codes = []
    for argv in argvs:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(list(argv))
        except Exception:  # a traceback is a failed item, not a crashed benchmark
            traceback.print_exc()
            code = -1
        if code != 0:
            sys.stderr.write(f"irrspace {' '.join(argv)} -> {code}\n{sink.getvalue()}")
        codes.append(code)
    return codes


def timed_pass(cli, workload, seed: int, work: Path, tracer=None) -> dict:
    """Run one pass (traced when a tracer is given) and check its outputs."""
    invs = workload.invocations(seed, work)
    if tracer is not None:
        tracer.install()
    try:
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        codes = run_argvs(cli, [inv.argv for inv in invs])
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = workload.check(seed, invs, codes)
    return {
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        "attempted": attempted,
        "failed": failed,
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    root = Path.cwd()
    workload = WORKLOADS[args.workload]

    cli = import_package(root)
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        if any(run_argvs(cli, workload.warmup(work))):
            print("warm-up call failed", file=sys.stderr)
            return 1
        print("ready", flush=True)
        if args.setup_only:
            return 0

        passes = []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start
                             + max(p["wall_s"] for p in passes) <= args.seconds):
            passes.append(timed_pass(cli, workload, args.seed, work))
        result = {
            "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }
        if args.trace:
            result["layers"] = traced_pass(cli, workload, args, work, base, passes)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_pass(cli, workload, args, work: Path, base: Path, passes: list) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    traced = timed_pass(cli, workload, args.seed, work, tracer)
    passes.append(traced)
    tracer.write(str(base / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    layers = tracer.metrics()
    untraced = statistics.median(p["wall_s"] for p in passes[:-1])
    layers["trace.overhead_s"] = traced["wall_s"] - untraced
    layers["trace.spans"] = len(tracer.spans)
    return layers


if __name__ == "__main__":
    sys.exit(main())

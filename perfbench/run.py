"""irrspace benchmark driver.

    python3 perfbench/run.py --workload w2_verify --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout.  Each call starts fresh child
processes (``worker.py``) with the checkout's ``src`` on ``PYTHONPATH`` and
one BLAS thread, so that CPU time and peak memory belong to that workload
alone:

* ``SETUP_PROBES`` children only set up (import, warm-up call) and exit;
  with the measured child's own set-up they give the median ``setup_s``;
* the measured child repeats the workload's pass for ``--seconds`` (at least
  once) and checks every pass's outputs; ``wall_s`` and ``cpu_s`` are the
  least over passes;
* with ``--trace 1`` the measured child adds one traced pass and the
  per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is the result JSON; the line before it records the
workload, pass count, ``failed_frac`` and the environment.  Exits non-zero
without a result when the checkout has no ``src/irrspace`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_child(root: Path, args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it with its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"{args.workload}: worker did not get ready")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Rest of a worker's stdout; the worker must exit 0 in time."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(root: Path, args) -> tuple[dict, dict]:
    """Run one workload; returns (info line, result line)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = start_child(root, args, setup_only=True)
            finish(proc)
            setups.append(setup)
    proc, setup = start_child(root, args, setup_only=False)
    setups.append(setup)
    report = json.loads(finish(proc).strip().splitlines()[-1])

    passes = report["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        units = metric_units()
        metrics = {k: {"value": report["layers"][k], "unit": u} for k, u in units.items()}
    else:
        # The least pass, not the median: the host's speed switches between
        # about 1x and 1.5x for seconds to minutes at a time, and user+sys CPU
        # switches with it.  A median over one run follows whichever state
        # the run fell in; the least pass is the one least slowed by other
        # load on the host.
        values = {
            "wall_s": min(p["wall_s"] for p in passes),
            "cpu_s": min(p["cpu_s"] for p in passes),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "failed_frac": failed / attempted if attempted else 1.0,
        "env": report["env"],
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "irrspace" / "cli.py").is_file():
        print(f"error: {root} is not an irrspace checkout (no src/irrspace)", file=sys.stderr)
        return 2
    try:
        info, result = measure(root, args)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

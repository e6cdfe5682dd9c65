"""Write the seed-0 reference outputs the workload checks compare against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout.  The references pin the outputs of the
commit they were made at: regenerate them only in a change that means to
alter those outputs, and say which ones moved and why.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from worker import import_package, run_argvs
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS


def merge_csv(parts: list[Path], out: Path) -> None:
    """One CSV holding the rows of every part, in order."""
    rows = []
    for part in parts:
        with open(part, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            rows.extend(reader)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def main(names: list[str]) -> int:
    cli = import_package(Path.cwd())
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]
            invs = workload.invocations(DEFAULT_SEED, Path(tmp))
            if any(run_argvs(cli, [inv.argv for inv in invs])):
                print(f"{name}: a command failed", file=sys.stderr)
                return 1
            if name == "w2_verify":
                eps = {}
                for inv in invs:
                    records = [json.loads(x) for x in inv.out.read_text().splitlines()]
                    eps[inv.key] = [r["quantities"]["eps_opt"] for r in records
                                    if r.get("check") == "dominance_interval"]
                (REFERENCE / "w2_verify.json").write_text(json.dumps(eps, indent=1) + "\n")
            else:
                from irrspace import matrixio

                meta, bases = {}, {}
                for inv in invs:
                    basis = matrixio.load_basis(inv.out)
                    meta[inv.key] = {"ell": basis.ell, "q": basis.q}
                    bases[inv.key] = basis.basis.astype(np.float32)
                (REFERENCE / "w4_basis.json").write_text(json.dumps(meta, indent=1) + "\n")
                np.savez_compressed(REFERENCE / "w4_basis.npz", **bases)
                merge_csv([inv.out.with_suffix(".csv") for inv in invs],
                          REFERENCE / "w4_basis.csv")
            print(f"{name}: reference written", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

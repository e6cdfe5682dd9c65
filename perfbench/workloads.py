"""The benchmark's workloads: the CLI invocations of one timed pass, a small
warm-up, and the check of every output a pass writes.

Each workload runs ``irrspace.cli.main`` in-process with the arguments a user
would type.  A pass lasts a few seconds, so that a run repeats it several
times.  The benchmark seed shifts every corpus / suite seed by
``SEED_STRIDE * seed``, so seed 0 reproduces the ROADMAP definitions.

Reference outputs for seed 0 live in ``reference/`` (written by
``make_reference.py``).  At seed 0 a pass is compared with them; at other
seeds only the seed-independent checks run (completeness, ``holds``,
``load_basis``, values in range).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
SEED_STRIDE = 10
DEFAULT_SEED = 0

# Float columns of a run CSV may move in their last bits (ROADMAP items 2
# and 4 reorder sums); labels and integers must match exactly.
CSV_RTOL = 1e-9
CSV_ATOL = 1e-12
# The optimum search may only improve: eps_opt <= reference + this.
EPS_OPT_SLACK = 1e-12
# w4: q within CSV_RTOL; the stored reference bases are float32, which alone
# puts about 5e-8 between the spans, so the angle tolerance sits above that.
BASIS_ANGLE_TOL = 1e-5
W4_THETA = 0.5

ALGORITHMS = (
    "single_link", "complete_link", "group_average",
    "kmeans_single_link", "kmeans_complete_link", "kmeans_group_average",
)


@dataclass
class Invocation:
    """One ``irrspace`` command line and the file its result goes to."""

    argv: list[str]
    out: Path
    key: str = ""  # which item(s) of the workload this invocation produces


@dataclass
class Workload:
    """A workload's pass, warm-up and output check; why each workload exists
    is recorded in BENCHMARK.json and README.md."""

    name: str

    def invocations(self, seed: int, work: Path) -> list[Invocation]:
        raise NotImplementedError

    def warmup(self, work: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, seed: int, invs: list[Invocation], codes: list[int]) -> tuple[int, int]:
        """(items attempted, items failed) for the outputs of one pass."""
        raise NotImplementedError


def _finite(text: str, lo: float = -math.inf, hi: float = math.inf) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isfinite(v) and lo <= v <= hi


def _row_in_range(row: dict, method: str, topics: int, ell: int) -> bool:
    """Seed-independent checks of one run CSV row."""
    if method == "vsm":
        basis_ok = row["q"] == "" and row["ell"] == ""
    else:
        basis_ok = row["ell"] == str(ell) and _finite(row["q"], 0.0)
        if method == "lsi":
            basis_ok = basis_ok and float(row["q"]) == 0.0
    if not (basis_ok and row["clusters"] == str(topics)
            and _finite(row["nonuniformity"], 1.0) and _finite(row["mingling"], 0.0)
            and _finite(row["f_estimate"], 0.0) and float(row["f_estimate"]) > 0.0
            and _finite(row["kappa"], -1.0, 1.0) and _finite(row["elapsed_ms"], 0.0)):
        return False
    if not all(_finite(row[a], 0.0, 1.0) for a in ALGORITHMS):
        return False
    scores = [float(row[a]) for a in ALGORITHMS]
    return float(row["floor"]) == min(scores) and float(row["ceiling"]) == max(scores)


def _same_cell(got: str, ref: str) -> bool:
    if ref.lstrip("-").isdigit() or not _finite(ref):
        return got == ref
    return _finite(got) and math.isclose(float(got), float(ref),
                                         rel_tol=CSV_RTOL, abs_tol=CSV_ATOL)


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def check_run_csv(
    path: Path, expected: dict[str, tuple[str, int, str]], topics: int, ell: int,
    reference: Path | None,
) -> tuple[int, int]:
    """Check a ``run`` CSV whose rows are keyed by run_id.

    ``expected`` maps each run_id to (dist label, corpus seed, method).  A
    missing, duplicated, malformed or out-of-range row fails; with a
    reference, every cell but ``elapsed_ms`` must also match it.
    """
    attempted = len(expected)
    try:
        header, rows = _read_csv(path)
    except OSError:
        return attempted, attempted
    ref_rows: dict[str, dict] = {}
    if reference is not None:
        ref_header, ref_list = _read_csv(reference)
        if header != ref_header:
            return attempted, attempted
        ref_rows = {r["run_id"]: r for r in ref_list}
    by_id: dict[str, list[dict]] = {}
    for row in rows:
        by_id.setdefault(row.get("run_id"), []).append(row)
    failed = 0
    for run_id, (dist, seed, method) in expected.items():
        found = by_id.get(run_id, [])
        if len(found) != 1 or None in found[0].values():
            failed += 1
            continue
        row = found[0]
        ok = (row["dataset"] == f"synth:{dist}" and row["dist"] == dist
              and row["seed"] == str(seed) and row["method"] == method)
        try:
            ok = ok and _row_in_range(row, method, topics, ell)
        except (KeyError, ValueError):
            ok = False
        if ok and reference is not None:
            ref = ref_rows.get(run_id)
            ok = ref is not None and all(
                _same_cell(row[c], ref[c]) for c in header if c != "elapsed_ms"
            )
        failed += not ok
    # rows nobody asked for are wrong output too
    failed += len(set(by_id) - set(expected))
    return attempted, min(failed, attempted)


@dataclass
class Verify(Workload):
    """``verify`` on a fixed suite and on a suite shifted by the benchmark seed.

    A suite of N instances gives N perturbation checks plus 3 checks per
    instance.  Its first four instances already take every path of the
    instance mix: noise 0.05 / 0.1 / 0.2, 2- and 5-topic distributions, and
    a blended instance; the full 24-instance cycle takes about 19 s, too long
    to repeat within a run.  The optimum search's cost varies a lot between
    instances, because its refine rounds do: a suite's first instance took
    from 0.3 to 0.6 s over two suite seeds.  So most of the pass is the
    first eight instances of the ROADMAP's seed-42 suite, the same at every
    seed and gated by the eps_opt reference on every run; a one-instance
    suite shifted by the seed carries the seed.
    """

    fixed: tuple[int, int] = (42, 8)  # (suite seed, trials)
    shifted: tuple[int, int] = (43, 1)

    def _suites(self, seed: int) -> list[tuple[int, int]]:
        base, trials = self.shifted
        return [self.fixed, (base + SEED_STRIDE * seed, trials)]

    def invocations(self, seed, work):
        return [
            Invocation(["verify", "--seed", str(s), "--trials", str(n),
                        "--out", str(work / f"verify_{s}.jsonl")],
                       work / f"verify_{s}.jsonl", key=str(s))
            for s, n in self._suites(seed)
        ]

    def warmup(self, work):
        return [["verify", "--seed", "0", "--trials", "1", "--noise", "0.2",
                 "--out", str(work / "warmup.jsonl")]]

    def check(self, seed, invs, codes):
        reference = json.loads((REFERENCE / "w2_verify.json").read_text())
        attempted = failed = 0
        for inv, code, (_, trials) in zip(invs, codes, self._suites(seed)):
            a, f = check_verify(inv.out, code, trials, reference.get(inv.key))
            attempted += a
            failed += f
        return attempted, failed


def check_verify(path: Path, code: int, n: int, ref_eps: list | None) -> tuple[int, int]:
    """Check a ``verify --out`` file: 4n records that all hold, the summary
    line, and (with a reference) each instance's eps_opt <= its reference."""
    attempted = 4 * n
    try:
        records = [json.loads(x) for x in path.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError):
        return attempted, attempted
    if code != 0 or not records:
        return attempted, attempted
    summary, records = records[-1], records[:-1]
    if summary != {"checks": attempted, "failures": 0, "summary": True} \
            or len(records) != attempted:
        return attempted, attempted
    names = ["sv_perturbation"] * n + [
        "dominance_interval", "truncation_angle", "cosine_bound"] * n
    failed = 0
    for i, (rec, name) in enumerate(zip(records, names)):
        q = rec.get("quantities", {})
        ok = (rec.get("check") == name and rec.get("holds") is True
              and all(isinstance(v, float) for v in q.values()))
        if ok and "eps_opt" in q:
            eps = q["eps_opt"]
            ok = math.isfinite(eps) and eps >= 0.0
            if ok and ref_eps is not None:
                ok = eps <= ref_eps[(i - n) // 3] + EPS_OPT_SLACK
        failed += not ok
    return attempted, failed


@dataclass
class SaveBasis(Workload):
    """One ``run --save-basis`` with kappa and cluster scores per (corpus
    seed, method)."""

    n_seeds: int = 1
    methods: tuple[str, ...] = ("lsi", "irr")
    dist: str = "200,60,30,15,10,5"
    topics: int = 6

    def invocations(self, seed, work):
        invs = []
        for s in range(SEED_STRIDE * seed, SEED_STRIDE * seed + self.n_seeds):
            for m in self.methods:
                stem = work / f"s{s}_{m}"
                argv = [
                    "run", "--dist", self.dist, "--seeds", str(s), "--methods", m,
                    "--vocab-per-topic", "120", "--shared-vocab", "400",
                    "--doc-length", "60", "--noise", "0.3", "--ell", f"ratio:{W4_THETA}",
                    "--metrics", "kappa,cluster", "--save-basis", f"{stem}.ssm1",
                    "--out", f"{stem}.csv",
                ]
                invs.append(Invocation(argv, Path(f"{stem}.ssm1"), key=f"s{s}_{m}"))
        return invs

    def warmup(self, work):
        return [["run", "--dist", "6,4", "--seeds", "0", "--methods", m,
                 "--noise", "0.3", "--ell", f"ratio:{W4_THETA}", "--metrics", "kappa,cluster",
                 "--save-basis", str(work / f"warmup_{m}.ssm1"),
                 "--out", str(work / f"warmup_{m}.csv")] for m in self.methods]

    def check(self, seed, invs, codes):
        from irrspace import matrixio
        from irrspace.errors import IrrspaceError

        ref_meta = ref_bases = ref_rows = None
        if seed == DEFAULT_SEED:
            ref_meta = json.loads((REFERENCE / "w4_basis.json").read_text())
            ref_bases = np.load(REFERENCE / "w4_basis.npz")
            ref_rows = REFERENCE / "w4_basis.csv"
        failed = 0
        for inv, code in zip(invs, codes):
            corpus_seed, method = inv.key[1:].split("_")
            try:
                basis = matrixio.load_basis(inv.out)
            except (OSError, IrrspaceError):
                failed += 1
                continue
            r = basis.residual_ratios
            ok = (code == 0 and basis.method == method and basis.ell >= 1
                  and len(r) == basis.ell + 1
                  and r[-1] <= W4_THETA + 1e-9 and (basis.ell == 1 or r[-2] > W4_THETA - 1e-9)
                  and basis.q is not None and math.isfinite(basis.q) and basis.q >= 0.0
                  and (method != "lsi" or basis.q == 0.0)
                  and bool(np.all(np.isfinite(basis.basis))))
            expected = {f"synth:{self.dist}:s{corpus_seed}:{method}":
                        (self.dist, int(corpus_seed), method)}
            ok = ok and check_run_csv(inv.out.with_suffix(".csv"), expected, self.topics,
                                      basis.ell, ref_rows) == (1, 0)
            if ok and ref_meta is not None:
                ref = ref_meta[inv.key]
                ok = (basis.ell == ref["ell"]
                      and math.isclose(basis.q, ref["q"], rel_tol=CSV_RTOL, abs_tol=CSV_ATOL)
                      and largest_angle(basis.basis, ref_bases[inv.key]) <= BASIS_ANGLE_TOL)
            failed += not ok
        return len(invs), failed


def largest_angle(b: np.ndarray, ref: np.ndarray) -> float:
    """Largest canonical angle between span(b) and span(ref); ref need not be
    exactly orthonormal (it is stored in float32)."""
    if b.shape != ref.shape:
        return math.pi / 2
    q_ref, _ = np.linalg.qr(np.asarray(ref, dtype=np.float64))
    sigma = np.linalg.svd(q_ref.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(sigma.min(), 0.0, 1.0)))


WORKLOADS = {
    w.name: w
    for w in (
        Verify("w2_verify"),
        SaveBasis("w4_basis", n_seeds=2),
    )
}

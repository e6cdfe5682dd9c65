"""Acceptance suite: eleven numbered criteria, one verdict line each.

Each test computes its criterion end to end, prints a single PASS/FAIL line
with the measured quantities, then asserts.  Module-scoped fixtures share the
two expensive artifacts (the 100-instance verification suite and the
seven-type sweep CSV); a criterion whose budget covers the shared work adds
the fixture build time to its own elapsed time before asserting the budget.
"""

import csv
import math
from time import perf_counter

import numpy as np
import pytest

from irrspace import cli, corpus, subspace, theory
from irrspace.evalmetrics import (
    chance_precision,
    contingency_score,
    kappa_average_precision,
    pairwise_average_precision,
    rank_pairs,
)

SEVEN_TYPES = ((25, 25), (30, 20), (35, 15), (40, 10), (43, 7), (45, 5), (46, 4))


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def _single_topic_model(counts) -> corpus.TopicModel:
    rho = np.zeros((len(counts), sum(counts)))
    col = 0
    for t, c in enumerate(counts):
        rho[t, col : col + c] = 1.0
        col += c
    return corpus.TopicModel(
        relevance=rho, topic_ids=tuple(f"t{t}" for t in range(len(counts)))
    )


@pytest.fixture(scope="module")
def noisy_suite():
    t0 = perf_counter()
    instances = list(theory.standard_instance_suite(100, seed=42))
    return instances, perf_counter() - t0


def _sweep_args(out_path):
    args = ["run"]
    for counts in SEVEN_TYPES:
        args += ["--dist", f"{counts[0]},{counts[1]}"]
    args += [
        "--seeds", "0:10", "--methods", "vsm,lsi,irr", "--q", "auto",
        "--noise", "0.3", "--metrics", "kappa,cluster",
        "--out", str(out_path),
    ]
    return args


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    t0 = perf_counter()
    rc = cli.main(_sweep_args(out))
    seconds = perf_counter() - t0
    assert rc == 0
    return {"rows": _read_rows(out), "seconds": seconds}


def _mean(rows, dist, method, column):
    key = f"synth:{dist[0]},{dist[1]}"
    vals = [
        float(r[column])
        for r in rows
        if r["dataset"] == key and r["method"] == method
    ]
    assert len(vals) == 10
    return math.fsum(vals) / len(vals)


def test_criterion_01_contingency_exactness():
    table = np.array(
        [[5, 10, 20, 0], [5, 10, 5, 0], [0, 0, 0, 21], [15, 5, 0, 0], [0, 0, 0, 4]]
    )
    contingency_score(table)  # warm call; the budget is for the scoring itself
    # the least of 5 calls: one call can be stalled by another process
    dt = math.inf
    for _ in range(5):
        t0 = perf_counter()
        score = contingency_score(table)
        dt = min(dt, perf_counter() - t0)
    ok = score == 0.56 and dt < 1e-3
    _report(1, ok, f"contingency score == 0.56 exactly (got {score!r}, {dt * 1e3:.3f} ms)")


def test_criterion_02_truncation_equivalence_at_q0():
    rng = np.random.default_rng(20)
    t0 = perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 31))
        z = rng.standard_normal((m, n)) * rng.uniform(0.2, 5.0, n)
        rank = min(m, n)
        full = subspace.irr(z, q=0.0, ell=rank)
        assert full.ell == rank
        for ell in range(1, rank + 1):
            prefix = full.basis[:, :ell]
            via_irr = prefix @ (prefix.T @ z)
            via_lsi = subspace.represent(subspace.lsi(z, ell), z)
            worst = max(worst, float(np.linalg.norm(via_irr - via_lsi)))
    dt = perf_counter() - t0
    ok = worst <= 1e-8 and dt < 10.0
    _report(2, ok, f"100 matrices, all ell: max Frobenius gap {worst:.2e} <= 1e-8 ({dt:.2f} s)")


def test_criterion_03_singular_value_perturbation():
    rng = np.random.default_rng(30)
    t0 = perf_counter()
    failures = 0
    for _ in range(1000):
        m = int(rng.integers(2, 41))
        n = int(rng.integers(2, 31))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        x1 = rng.standard_normal((m, n)) * scale
        x2 = x1 + rng.standard_normal((m, n)) * scale * 10.0 ** rng.uniform(-6.0, 0.0)
        rec = theory.verify_sv_perturbation(x1, x2)
        failures += not rec.holds
    dt = perf_counter() - t0
    ok = failures == 0 and dt < 30.0
    _report(3, ok, f"1000 pairs, {failures} bound violations at 1e-10 slack ({dt:.2f} s)")


def test_criterion_04_exact_dominance_at_zero_noise():
    t0 = perf_counter()
    worst = 0.0
    ok = True
    for counts in SEVEN_TYPES:
        tm = _single_topic_model(counts)
        inst = theory.construct_ideal_instance(tm, m=100, noise=0.0, seed=4)
        stats = theory.topic_stats(tm)
        rec = theory.verify_dominance_interval(inst)
        worst = max(worst, rec.quantities["max_deviation"])
        ok = (
            ok
            and rec.holds
            and inst.optimum.h == len(counts)
            and inst.optimum.eps_opt <= 1e-8
            and stats.mingling == 0.0
        )
    dt = perf_counter() - t0
    ok = ok and worst <= 1e-8 and dt < 5.0
    _report(4, ok, f"seven noise-0 types: max |sv^2 - dominance^2| {worst:.2e} <= 1e-8 ({dt:.2f} s)")


def test_criterion_05_interval_and_angle_bounds_under_noise(noisy_suite):
    instances, build_s = noisy_suite
    t0 = perf_counter()
    dom_failures = 0
    angle_failures = 0
    met = 0
    for inst in instances:
        dom_failures += not theory.verify_dominance_interval(inst).holds
        rec = theory.verify_truncation_angle(inst)
        met += rec.condition_met
        angle_failures += not rec.holds
    dt = build_s + (perf_counter() - t0)
    ok = dom_failures == 0 and angle_failures == 0 and met > 0 and dt < 120.0
    _report(
        5,
        ok,
        f"100 noisy instances: {dom_failures} interval / {angle_failures} angle-bound "
        f"violations, condition met on {met} ({dt:.1f} s)",
    )


# eps_opt and h of the first eight seed-42 instances as found by the dense
# n x n search kernel; the low-rank kernel may only tie or improve on them
DENSE_SEARCH_OPTIMA = (
    (0.02249264815800143, 2),
    (0.05369658399578101, 5),
    (0.44391582813966735, 2),
    (0.008110070277322558, 5),
    (0.07184728372292538, 2),
    (0.23869500378387176, 5),
    (0.024913931625421007, 2),
    (0.05141093051724331, 5),
)


def test_optimum_search_agrees_with_verifier_and_dense_search(noisy_suite):
    instances, _ = noisy_suite
    for inst, (dense_eps, dense_h) in zip(instances, DENSE_SEARCH_OPTIMA):
        opt = inst.optimum
        a = inst.matrix
        recomputed = theory.deviation_error(inst.similarity, a, opt.basis)
        assert abs(opt.eps_opt - recomputed) <= 1e-12
        assert opt.eps_opt <= dense_eps + 1e-12
        assert opt.h == dense_h


def test_criterion_06_cosine_envelope(noisy_suite):
    instances, _ = noisy_suite
    t0 = perf_counter()
    records = [theory.verify_cosine_bound(inst) for inst in instances]
    applicable = sum(r.condition_met for r in records)
    failures = sum(not r.holds for r in records)
    dt = perf_counter() - t0
    ok = failures == 0 and applicable > 0 and dt < 120.0
    _report(
        6,
        ok,
        f"{applicable}/100 instances applicable (eps < 1), {failures} envelope "
        f"violations at 1e-9 slack ({dt:.1f} s)",
    )


# each check's largest headroom on the seed-42 suite, against a floor that
# a bound loosened twofold falls below: dominance max_deviation / bound read
# 0.9994 (0.50 with the bound doubled), truncation tan_measured / tan_bound
# 0.720 (0.36), and the cosine envelope's largest lower and upper violations
# -8.3e-4 and -9.2e-4 (-2.8e-3 and -2.9e-3 with eps doubled in the envelope)
_HEADROOM_FLOORS = {"dominance": 0.99, "truncation": 0.6, "cosine_lower": -1.5e-3,
                    "cosine_upper": -1.5e-3}


def test_no_bound_is_loose_on_every_instance(noisy_suite):
    instances, _ = noisy_suite
    dominance = [theory.verify_dominance_interval(inst).quantities for inst in instances]
    truncation = [theory.verify_truncation_angle(inst) for inst in instances]
    cosine = [theory.verify_cosine_bound(inst) for inst in instances]
    headroom = {
        "dominance": max(q["max_deviation"] / q["bound"] for q in dominance),
        "truncation": max(r.quantities["tan_measured"] / r.quantities["tan_bound"]
                          for r in truncation if r.condition_met),
        "cosine_lower": max(r.quantities["lower_violation"] for r in cosine if r.condition_met),
        "cosine_upper": max(r.quantities["upper_violation"] for r in cosine if r.condition_met),
    }
    print(", ".join(f"{key} {value:.4g}" for key, value in headroom.items()))
    assert [key for key, floor in _HEADROOM_FLOORS.items() if headroom[key] < floor] == []


def test_criterion_07_skewed_sweep_degradation(sweep):
    rows = sweep["rows"]
    lsi_even = _mean(rows, (25, 25), "lsi", "kappa")
    lsi_skew = _mean(rows, (46, 4), "lsi", "kappa")
    irr_even = _mean(rows, (25, 25), "irr", "kappa")
    irr_skew = _mean(rows, (46, 4), "irr", "kappa")
    drop = lsi_even - lsi_skew
    flat = abs(irr_even - irr_skew)
    ok = (
        len(rows) == 210
        and drop >= 0.10
        and flat <= 0.05
        and irr_skew > lsi_skew
        and sweep["seconds"] < 300.0
    )
    _report(
        7,
        ok,
        f"truncation kappa drops {drop:.3f} (>= 0.10), rescaled shifts {flat:.3f} "
        f"(<= 0.05), {irr_skew:.3f} > {lsi_skew:.3f} at (46,4) ({sweep['seconds']:.1f} s)",
    )


def test_criterion_08_auto_q_grows_with_nonuniformity(sweep):
    rows = sweep["rows"]
    by_skew = sorted(SEVEN_TYPES, key=lambda c: _mean(rows, c, "irr", "nonuniformity"))
    q_means = [_mean(rows, c, "irr", "q") for c in by_skew]
    inversions = sum(b < a for a, b in zip(q_means, q_means[1:]))
    ok = inversions <= 1
    _report(
        8,
        ok,
        f"mean auto q over types ordered by skew: "
        f"{', '.join(f'{q:.3f}' for q in q_means)} ({inversions} inversions)",
    )


def test_criterion_09_rescaled_floor_on_most_skewed_types(sweep):
    rows = sweep["rows"]
    wins = {}
    for counts in SEVEN_TYPES[-3:]:
        key = f"synth:{counts[0]},{counts[1]}"
        floors = {
            (r["seed"], r["method"]): float(r["floor"])
            for r in rows
            if r["dataset"] == key and r["method"] in ("lsi", "irr")
        }
        seeds = sorted({s for s, _ in floors})
        assert len(seeds) == 10
        wins[counts] = sum(floors[s, "irr"] >= floors[s, "lsi"] for s in seeds)
    ok = all(w >= 8 for w in wins.values()) and sweep["seconds"] < 600.0
    detail = ", ".join(f"{c}: {w}/10" for c, w in wins.items())
    _report(9, ok, f"rescaled floor >= truncation floor per seed: {detail}")


def test_criterion_10_kappa_self_consistency():
    rng = np.random.default_rng(100)
    t0 = perf_counter()
    identity_failures = 0
    invariance_failures = 0
    for _ in range(1000):
        n = int(rng.integers(4, 16))
        while True:
            labels = rng.integers(0, int(rng.integers(2, 5)), n)
            counts = np.bincount(labels)
            if counts.max() >= 2 and (counts > 0).sum() >= 2:
                break
        z = rng.standard_normal((8, n))
        z /= np.linalg.norm(z, axis=0)
        intra = np.triu(labels[:, None] == labels[None, :], 1)
        ranked = rank_pairs(z)
        kappa = kappa_average_precision(ranked, intra)
        pap = pairwise_average_precision(ranked, intra)
        chance = chance_precision(ranked, intra)
        identity_failures += kappa != (pap - chance) / (1.0 - chance)

        perm = rng.permutation(n)
        permuted_intra = np.triu(labels[perm, None] == labels[None, perm], 1)
        permuted = kappa_average_precision(rank_pairs(z[:, perm]), permuted_intra)
        invariance_failures += permuted != kappa
    dt = perf_counter() - t0
    ok = identity_failures == 0 and invariance_failures == 0 and dt < 10.0
    _report(
        10,
        ok,
        f"1000 rankings: {identity_failures} identity / {invariance_failures} "
        f"permutation mismatches, all exact ({dt:.2f} s)",
    )


def test_criterion_11_sweep_determinism(sweep, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("sweep_again") / "sweep.csv"
    t0 = perf_counter()
    rc = cli.main(_sweep_args(out2))
    dt = perf_counter() - t0
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows
    ]
    identical = strip(sweep["rows"]) == strip(_read_rows(out2))
    ok = rc == 0 and identical and dt < 300.0
    _report(11, ok, f"rerun reproduces all 210 rows minus timing ({dt:.1f} s)")

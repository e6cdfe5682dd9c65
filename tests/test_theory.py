"""Topic statistics, deviation minimization, and the bound verifiers."""

import itertools
import json
import math

import numpy as np
import pytest

from irrspace import theory
from irrspace.corpus import TopicModel
from irrspace.errors import DimensionError, ParameterError


def _single_topic(counts):
    k, n = len(counts), sum(counts)
    rho = np.zeros((k, n))
    j = 0
    for t, c in enumerate(counts):
        rho[t, j : j + c] = 1.0
        j += c
    return TopicModel(relevance=rho, topic_ids=tuple(f"t{t}" for t in range(k)))


def test_topic_stats_single_topic_hand_case():
    stats = theory.topic_stats(_single_topic((3, 1)))
    assert np.allclose(sorted(stats.dominances), [1.0, math.sqrt(3.0)])
    assert stats.mingling == 0.0
    assert stats.nonuniformity == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert stats.f_estimate == pytest.approx((9.0 + 1.0) / 16.0, abs=1e-15)


def test_topic_stats_mingling_two_blended_docs():
    # both docs split evenly across two topics: cross-correlation is 1 per
    # off-diagonal entry, so mingling = sqrt(2)
    rho = np.full((2, 2), 1.0 / math.sqrt(2.0))
    tm = TopicModel(relevance=rho, topic_ids=("a", "b"))
    assert theory.topic_stats(tm).mingling == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_squared_dominances_sum_to_doc_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, n = int(rng.integers(1, 5)), int(rng.integers(2, 12))
        raw = rng.random((k, n)) + 1e-3
        rho = raw / np.linalg.norm(raw, axis=0)
        tm = TopicModel(relevance=rho, topic_ids=tuple(f"t{t}" for t in range(k)))
        stats = theory.topic_stats(tm)
        assert float((stats.dominances**2).sum()) == pytest.approx(n, abs=1e-9)


def test_s_prime_shares_spectrum_with_similarity_matrix():
    rng = np.random.default_rng(1)
    raw = rng.random((3, 7)) + 1e-3
    rho = raw / np.linalg.norm(raw, axis=0)
    tm = TopicModel(relevance=rho, topic_ids=("a", "b", "c"))
    sp = theory.s_prime_matrix(tm)
    assert sp.shape == (7, 7)
    ev1 = np.sort(np.linalg.eigvalsh(sp))
    ev2 = np.sort(np.linalg.eigvalsh(rho.T @ rho))
    assert np.allclose(ev1, ev2, atol=1e-10)


def test_s_prime_rejects_more_topics_than_docs():
    rho = np.eye(3)[:, :2]
    tm = TopicModel(relevance=rho, topic_ids=("a", "b", "c"))
    with pytest.raises(DimensionError):
        theory.s_prime_matrix(tm)


def test_deviation_matrix_identity_cases():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    s = np.eye(4)
    assert np.allclose(theory.deviation_matrix(s, a), s - a.T @ a, atol=1e-14)
    assert theory.input_error(a.T @ a, a) == pytest.approx(0.0, abs=1e-10)


def _random_instance(seed, k=2, n=6, m=8):
    rng = np.random.default_rng(seed)
    raw = rng.random((k, n)) + 0.05
    rho = raw / np.linalg.norm(raw, axis=0)
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=0)
    return rho.T @ rho, a


def brute_force_best_subset(s, a, h_max):
    """Independent oracle: deviation of every subset of left singular
    vectors, no rotation refinement."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    r = int((sv > 1e-10 * sv[0]).sum())
    best = math.inf
    for h in range(1, min(h_max, r) + 1):
        for combo in itertools.combinations(range(r), h):
            basis = u[:, list(combo)]
            x = basis @ (basis.T @ a)
            e = s - x.T @ x
            best = min(best, float(np.max(np.abs(np.linalg.eigvalsh(e)))))
    return best


def _kernel_cases():
    rng = np.random.default_rng(5)
    n = 9
    for k in (1, 3):
        rho = rng.standard_normal((k, n))
        for h in sorted({1, k}):
            yield f"psd rank {k}, h={h}", rho.T @ rho, h
    sym = rng.standard_normal((n, n))
    yield "indefinite", sym + sym.T, 2
    full = rng.standard_normal((n, n))
    yield "full rank, k + h > n", full @ full.T + np.eye(n), 3
    yield "zero", np.zeros((n, n)), 2


@pytest.mark.parametrize("name, smat, h", list(_kernel_cases()))
def test_low_rank_kernel_matches_dense_deviation_norm(name, smat, h):
    rng = np.random.default_rng(6)
    m_stack = rng.standard_normal((50, h, smat.shape[0]))
    got = theory._eps_of_coords(theory._similarity_factor(smat), m_stack)
    dense = [theory._sym_spectral_norm(smat - m.T @ m) for m in m_stack]
    tol = 1e-12 * max(1.0, np.linalg.norm(smat, 2))
    assert np.max(np.abs(got - dense)) <= tol, name


def test_optimum_subspace_never_worse_than_subset_oracle():
    for seed in range(6):
        s, a = _random_instance(seed)
        got = theory.optimum_subspace(s, a, h_max=3)
        oracle = brute_force_best_subset(s, a, h_max=3)
        assert got.eps_opt <= oracle + 1e-12
        # the reported error must match the returned basis exactly
        recomputed = theory.deviation_error(s, a, got.basis)
        assert recomputed == pytest.approx(got.eps_opt, abs=1e-10)
        assert 1 <= got.h <= 3


def test_optimum_subspace_beats_random_subspaces():
    s, a = _random_instance(33)
    got = theory.optimum_subspace(s, a, h_max=2)
    rng = np.random.default_rng(99)
    for _ in range(300):
        q, _ = np.linalg.qr(rng.standard_normal((a.shape[0], got.h)))
        assert theory.deviation_error(s, a, q) >= got.eps_opt - 1e-8


def test_optimum_subspace_monotone_in_h_max():
    s, a = _random_instance(7, k=3, n=8, m=10)
    errors = [theory.optimum_subspace(s, a, h_max=h).eps_opt for h in (1, 2, 3, 4)]
    for lo, hi in zip(errors, errors[1:]):
        assert hi <= lo + 1e-12


def test_optimum_subspace_input_validation():
    s, a = _random_instance(1)
    with pytest.raises(ParameterError):
        theory.optimum_subspace(s, a, h_max=0)
    with pytest.raises(DimensionError):
        theory.optimum_subspace(np.eye(3), a, h_max=1)
    with pytest.raises(ParameterError):
        theory.optimum_subspace(np.zeros((2, 2)), np.zeros((3, 2)), h_max=1)


def test_ideal_instance_noise_zero_is_exact():
    tm = _single_topic((5, 3))
    inst = theory.construct_ideal_instance(tm, m=20, noise=0.0, seed=3)
    assert inst.optimum.is_exact
    assert inst.optimum.h == 2
    assert inst.optimum.eps_opt < 1e-12
    assert np.allclose(np.linalg.norm(inst.matrix, axis=0), 1.0, atol=1e-12)
    # projected singular values squared equal the topic dominances squared
    sig = np.linalg.svd(inst.optimum.basis.T @ inst.matrix, compute_uv=False)
    assert np.allclose(np.sort(sig**2), [3.0, 5.0], atol=1e-10)


def test_ideal_instance_noise_perturbs_but_normalizes():
    tm = _single_topic((4, 4))
    inst = theory.construct_ideal_instance(tm, m=50, noise=0.1, seed=5)
    assert not inst.optimum.is_exact
    assert np.allclose(np.linalg.norm(inst.matrix, axis=0), 1.0, atol=1e-12)
    assert inst.optimum.h <= 2
    assert 0.0 < inst.optimum.eps_opt < 1.0


def test_ideal_instance_validation():
    tm = _single_topic((2, 2))
    with pytest.raises(ParameterError):
        theory.construct_ideal_instance(tm, m=1, noise=0.0, seed=0)
    with pytest.raises(ParameterError):
        theory.construct_ideal_instance(tm, m=10, noise=-0.5, seed=0)


@pytest.mark.parametrize("noise", [math.nan, math.inf])
def test_ideal_instance_rejects_non_finite_noise(noise):
    with pytest.raises(ParameterError, match="finite"):
        theory.construct_ideal_instance(_single_topic((2, 2)), m=10, noise=noise, seed=0)


def test_ideal_instance_deterministic():
    tm = _single_topic((3, 2))
    a1 = theory.construct_ideal_instance(tm, m=15, noise=0.2, seed=9).matrix
    a2 = theory.construct_ideal_instance(tm, m=15, noise=0.2, seed=9).matrix
    assert np.array_equal(a1, a2)


def test_sv_perturbation_holds_and_is_tight_for_identical():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 5))
    rec = theory.verify_sv_perturbation(x, x)
    assert rec.holds and rec.quantities["max_shift"] == 0.0
    rec2 = theory.verify_sv_perturbation(x, x + rng.standard_normal((7, 5)))
    assert rec2.holds
    assert rec2.quantities["spectral"] <= rec2.quantities["frobenius"] + 1e-12
    with pytest.raises(DimensionError):
        theory.verify_sv_perturbation(x, x.T)


def test_dominance_interval_exact_instance():
    tm = _single_topic((6, 2))
    inst = theory.construct_ideal_instance(tm, m=25, noise=0.0, seed=2)
    rec = theory.verify_dominance_interval(inst)
    assert rec.holds
    assert rec.quantities["max_deviation"] < 1e-10
    assert rec.quantities["mingling"] == 0.0


def test_truncation_angle_exact_instance():
    tm = _single_topic((6, 2))
    inst = theory.construct_ideal_instance(tm, m=25, noise=0.0, seed=2)
    rec = theory.verify_truncation_angle(inst)
    assert rec.condition_met and rec.holds
    assert rec.quantities["tan_measured"] < 1e-6


def test_cosine_bound_exact_instance():
    tm = _single_topic((4, 3))
    inst = theory.construct_ideal_instance(tm, m=25, noise=0.0, seed=6)
    rec = theory.verify_cosine_bound(inst)
    assert rec.condition_met and rec.holds
    assert rec.quantities["eps"] < 1e-10


def test_cosine_bound_holds_where_sim_is_below_eps():
    # at noise 2 eps is ~0.9, far above the cross-topic similarity 0, where
    # the lower envelope must divide by 1 - eps, not 1 + eps
    for inst in theory.standard_instance_suite(2, seed=0, noise=2.0):
        rec = theory.verify_cosine_bound(inst)
        assert rec.condition_met and rec.quantities["eps"] > 0.8
        assert rec.holds
        assert rec.quantities["lower_violation"] < 0.0


def test_theorem_record_serializes_to_json():
    rec = theory.TheoremRecord(
        check="demo", quantities={"x": 1.5, "y": math.inf}, condition_met=True, holds=True
    )
    parsed = json.loads(rec.to_json())
    assert parsed["check"] == "demo"
    assert parsed["quantities"]["x"] == 1.5
    assert parsed["quantities"]["y"] == math.inf


def test_standard_instance_suite_deterministic_and_varied():
    s1 = theory.standard_instance_suite(6, seed=1)
    s2 = theory.standard_instance_suite(6, seed=1)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.matrix, b.matrix)
    assert {i.topic_model.n_topics for i in s1} == {2, 5}
    assert {i.noise for i in s1} == {0.05, 0.1, 0.2}
    mingled = [i for i in s1 if theory.topic_stats(i.topic_model).mingling > 0]
    assert mingled, "suite should include blended-topic instances"
    with pytest.raises(ParameterError):
        theory.standard_instance_suite(0)


def test_standard_instance_suite_noise_override():
    suite = theory.standard_instance_suite(2, seed=0, noise=0.0)
    assert all(inst.optimum.is_exact for inst in suite)

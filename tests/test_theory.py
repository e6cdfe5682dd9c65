"""Topic statistics, deviation minimization, and the bound verifiers."""

import dataclasses
import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrspace import cli, linalg, theory
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


def test_deviation_matrix_identity_cases():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    s = np.eye(4)
    assert np.allclose(theory.deviation_matrix(s, a), s - a.T @ a, atol=1e-14)
    assert theory.deviation_error(a.T @ a, a) == pytest.approx(0.0, abs=1e-10)


# a 30 x 8 matrix of unit columns, ||A||_F^2 = 8, and the similarities of
# two topics of 5 and 3 documents
_UNIT_A = np.random.default_rng(0).standard_normal((30, 8))
_UNIT_A /= np.linalg.norm(_UNIT_A, axis=0)
_UNIT_RHO = np.repeat(np.eye(2), (5, 3), axis=1)
_UNIT_S = _UNIT_RHO.T @ _UNIT_RHO

# every entry point of this module that squares A
_SQUARING_CALLS = {
    "optimum_subspace": lambda a: theory.optimum_subspace(_UNIT_S, a, 3),
    "deviation_error": lambda a: theory.deviation_error(_UNIT_S, a),
    "verify_sv_perturbation": lambda a: theory.verify_sv_perturbation(a, 1.1 * a),
}


@pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
@pytest.mark.parametrize("call", _SQUARING_CALLS.values(), ids=_SQUARING_CALLS.keys())
def test_input_whose_squared_norm_overflows_is_refused(call, scale):
    # squaring such an A overflows: unchecked, it warns, gives inf or ends in LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="too large"):
            call(_UNIT_A * scale)


def test_optimum_subspace_just_below_the_overflow_is_finite():
    # ||A||_F^2 = 8 * 1.6e307 = 1.28e308, below the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = theory.optimum_subspace(_UNIT_S, _UNIT_A * 4e153, 3)
    assert math.isfinite(got.eps_opt) and math.isfinite(got.eps_lower)
    assert np.isfinite(got.basis).all()


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


def _unpruned_refine(factor, c, w, eps):
    """The rotation refinement scoring every candidate: the oracle for pruning."""
    r, h = w.shape
    if r == h:
        return eps, w
    iu, ju = np.triu_indices(r, 1)
    angles = [s * t for t in theory._ANGLE_GRID for s in (1.0, -1.0)]
    pi, pj = np.repeat(iu, len(angles)), np.repeat(ju, len(angles))
    cos_t = np.cos(np.tile(angles, len(iu)))[:, None]
    sin_t = np.sin(np.tile(angles, len(iu)))[:, None]
    w = w.copy()
    for _ in range(theory._MAX_ROUNDS):
        live = np.any(w != 0.0, axis=1)
        keep = live[pi] | live[pj]
        ki, kj, kc, ks = pi[keep], pj[keep], cos_t[keep], sin_t[keep]
        wi, wj = w[ki], w[kj]
        new_i, new_j = kc * wi - ks * wj, ks * wi + kc * wj
        m_stack = w.T @ c + (new_i - wi)[:, :, None] * c[ki][:, None, :]
        m_stack += (new_j - wj)[:, :, None] * c[kj][:, None, :]
        eps_all = theory._eps_of_coords(factor, m_stack)
        k = int(np.argmin(eps_all))
        if eps_all[k] >= eps - theory._IMPROVE_TOL:
            break
        eps = float(eps_all[k])
        w[ki[k]], w[kj[k]] = new_i[k], new_j[k]
    return eps, w


def _duplicated_columns():
    # each unit column twice, with equal similarity blocks for pairs 0-1 and
    # 2-3: whole families of subsets and rotations score exactly the same eps
    a = np.repeat(np.eye(6)[:, :4], 2, axis=1)
    s = np.kron(np.diag([0.9, 0.9, 0.6, 0.6]), np.ones((2, 2)))
    return s, a


def _pruning_cases():
    for inst in theory.standard_instance_suite(4, seed=7):
        yield f"{inst.topic_model.n_topics} topics, noise {inst.noise}", (
            inst.similarity, inst.matrix, inst.topic_model.n_topics)
    yield "duplicated columns", (*_duplicated_columns(), 3)


@pytest.mark.parametrize("name, case", list(_pruning_cases()))
def test_pruned_search_is_bit_identical_to_unpruned(name, case, monkeypatch):
    s, a, h_max = case
    got = theory.optimum_subspace(s, a, h_max)
    monkeypatch.setattr(theory, "_refine", _unpruned_refine)
    want = theory.optimum_subspace(s, a, h_max)
    assert got.eps_opt == want.eps_opt, name
    assert got.h == want.h, name
    assert got.basis.tobytes() == want.basis.tobytes(), name


def test_pruned_search_at_rank_40_is_bit_identical_to_unpruned(monkeypatch):
    # 4 topics x 10 documents: A has rank 40, so each round bounds 780 planes
    # at 8 angles and best-first scoring visits few of them (72 rounds)
    tm = TopicModel(relevance=np.repeat(np.eye(4), 10, axis=1),
                    topic_ids=tuple(f"t{t}" for t in range(4)))
    inst = theory.construct_ideal_instance(tm, m=200, noise=0.2, seed=0)
    assert inst.svd.rank == 40
    monkeypatch.setattr(theory, "_refine", _unpruned_refine)
    want = theory.optimum_subspace(inst.similarity, inst.matrix, h_max=4)
    got = inst.optimum
    assert got.eps_opt == want.eps_opt
    assert got.h == want.h
    assert got.basis.tobytes() == want.basis.tobytes()


def test_duplicated_columns_tie_on_eps():
    # the tie-break case above is real: several subsets share the least eps
    s, a = _duplicated_columns()
    c = np.linalg.svd(a, full_matrices=False)[0][:, :4].T @ a
    eps = theory._eps_of_coords(theory._similarity_factor(s), c[:, None, :])
    assert np.sum(eps == eps.min()) >= 2


def _every_candidate(c, w):
    """Each candidate's coordinates M' = w'.T C, planes (i, j), i < j, in
    row-major order and the angles in _refine's order within a plane."""
    out = []
    for i, j in zip(*np.triu_indices(w.shape[0], 1)):
        for t in theory._ANGLES:
            moved = w.copy()
            moved[i] = math.cos(t) * w[i] - math.sin(t) * w[j]
            moved[j] = math.sin(t) * w[i] + math.cos(t) * w[j]
            out.append(moved.T @ c)
    return np.array(out).reshape(-1, w.shape[1], c.shape[1])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    h=st.integers(1, 3),
    s_scale=st.floats(1e-3, 1e3),
    c_scale=st.floats(1e-3, 1e3),
)
def test_probe_bound_never_exceeds_deviation_norm(seed, n, h, s_scale, c_scale):
    """Courant-Fischer: each candidate's per-plane probe bound is at most its
    scored norm, up to the pruning margin, and it is the direct
    max_l |u_l.T S~ u_l - ||M' u_l||^2| over the round's probes, up to that
    margin too."""
    rng = np.random.default_rng(seed)
    h = min(h, n)
    g = rng.standard_normal((int(rng.integers(1, n + 1)), n))
    factor = theory._similarity_factor(s_scale * (g.T @ g))
    r = int(rng.integers(h, n + 1))
    c = c_scale * rng.standard_normal((r, n))
    w = np.linalg.qr(rng.standard_normal((r, h)))[0]
    m0 = w.T @ c
    s_tilde = theory._similarity_matrix(factor)
    lb = theory._probe_bounds(s_tilde, c, w, m0, np.triu_indices(r, 1))
    m_stack = _every_candidate(c, w)
    assert lb.shape == (len(m_stack),)
    margin = theory._prune_margin(factor, c)
    if len(m_stack):
        assert np.all(lb <= theory._eps_of_coords(factor, m_stack) + margin)
    probes = np.linalg.eigh(s_tilde - m0.T @ m0)[1]
    s_probe = np.sum(probes * (s_tilde @ probes), axis=0)
    direct = np.max(np.abs(s_probe - np.sum((m_stack @ probes) ** 2, axis=1)), axis=1)
    assert np.all(np.abs(lb - direct) <= margin)


@settings(max_examples=200, deadline=None)
@given(
    cases=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1,
                   max_size=30),
    margin=st.integers(0, 4),
    bound=st.one_of(st.just(math.inf), st.integers(0, 13)),
)
def test_least_matches_scoring_every_candidate(cases, margin, bound):
    """The pruned argmin equals brute force whenever each bound is valid,
    lb <= eps + margin.  Values are eighths, so every sum is exact and ties
    are common."""
    eps = np.array([e for e, _ in cases]) / 8.0
    lb = eps + (margin - np.array([d for _, d in cases])) / 8.0
    margin, bound = margin / 8.0, bound / 8.0
    scored = []

    def score(sel):
        scored.append(np.array(sel))
        return eps[sel]

    k = int(np.argmin(eps))
    want = (k, float(eps[k])) if eps[k] < bound else None
    assert theory._least(lb, bound, margin, score) == want
    # whatever the schedule: nothing is scored twice or bounded out by
    # ``bound``, and nothing is left unscored that could tie the result
    done = np.concatenate([np.zeros(0, int), *scored])
    assert len(set(done.tolist())) == done.size
    assert np.all(lb[done] < bound + margin)
    cap = bound if want is None else want[1]
    must = np.flatnonzero((lb <= cap + margin) & (lb < bound + margin))
    assert set(must.tolist()) <= set(done.tolist())


def _search_every_size(s, a, h_max):
    """The search without size skipping: every h in ascending order, a
    strictly lower norm replacing the best, so ties go to the smallest h.
    A is read through linalg.as_matrix, in C order, as the search reads it."""
    a = linalg.as_matrix(a)
    res = linalg.svd(a)
    u, c = res.u[:, : res.rank], res.u[:, : res.rank].T @ a
    factor = theory._similarity_factor(s)
    best = None
    for h in range(1, min(h_max, res.rank) + 1):
        eps, w = theory._best_subset(factor, c, h)
        eps, w = theory._refine(factor, c, w, eps)
        if best is None or eps < best[0]:
            best = (eps, h, u @ w)
    return best, theory._prune_margin(factor, c)


@st.composite
def _search_inputs(draw):
    """(S, A, h_max): S = G.T G and A = Q G plus noise of any rank, Q with
    orthonormal columns as in an ideal instance, or S and A diagonal in small
    integers; some documents duplicated, and h_max up to beyond the rank of A."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n0 = draw(st.integers(2, 6))
    if draw(st.booleans()):  # norms that tie exactly across sizes
        g = np.diag(rng.integers(0, 3, n0).astype(float))
        a = np.eye(draw(st.integers(n0, 8)))[:, :n0] * rng.integers(1, 3, n0)
    else:
        k = draw(st.integers(1, n0))
        m, rank = draw(st.integers(k, 8)), draw(st.integers(1, 6))
        g = rng.standard_normal((k, n0))
        noise = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n0))
        a = np.linalg.qr(rng.standard_normal((m, k)))[0] @ g + draw(st.floats(0, 1)) * noise
    docs = np.concatenate([np.arange(n0), rng.integers(0, n0, draw(st.integers(0, 3)))])
    s = (g.T @ g)[np.ix_(docs, docs)]
    return s, a[:, docs], draw(st.integers(1, len(docs) + 1))


@settings(max_examples=40, deadline=None)
@given(case=_search_inputs())
def test_size_skipping_is_bit_identical_to_searching_every_size(case):
    got = theory.optimum_subspace(*case)
    (eps, h, basis), _ = _search_every_size(*case)
    assert np.array_equal(got.eps_opt, eps)
    assert got.h == h
    assert np.array_equal(got.basis, basis)


@settings(max_examples=40, deadline=None)
@given(case=_search_inputs(), seed=st.integers(0, 2**32 - 1))
def test_eps_lower_bounds_every_subspace(case, seed):
    """eps_lower certifies the search: neither its result nor any subspace
    of at most h_max dimensions has a smaller deviation, up to roundoff."""
    s, a, h_max = case
    got = theory.optimum_subspace(*case)
    _, margin = _search_every_size(*case)
    assert got.eps_lower <= got.eps_opt + margin
    rng = np.random.default_rng(seed)
    for _ in range(5):
        q = np.linalg.qr(rng.standard_normal((a.shape[0], rng.integers(1, h_max + 1))))[0]
        assert got.eps_lower <= theory.deviation_error(s, a, q) + margin


def _margin(s, a):
    res = linalg.svd(a)
    return theory._prune_margin(theory._similarity_factor(s), res.u[:, : res.rank].T @ a)


def _sigma_term_bound(s, a, h_max):
    """The certified bound eps_lower replaced: min over h <= min(h_max, rank A)
    of max(lambda_{h+1}(S~), max_{i<=h} (lambda_i(S~) - sigma_i(A)^2)_+)."""
    res = linalg.svd(a)
    lam = np.sort(theory._similarity_factor(s)[0])[::-1]
    lam = np.concatenate([lam, np.zeros(a.shape[1] + 1 - len(lam))])
    top = min(h_max, res.rank)
    sigma_term = np.maximum.accumulate(np.maximum(lam[:top] - res.s[:top] ** 2, 0.0))
    return float(np.maximum(sigma_term, lam[1 : top + 1]).min())


@settings(max_examples=40, deadline=None)
@given(case=_search_inputs())
def test_eps_lower_is_never_looser_than_the_sigma_term_bound(case):
    # lambda_i(S~) <= lambda_max(S~ - A.T A) + sigma_i(A)^2 (Weyl), so T
    # dominates the sigma term up to roundoff
    s, a, _ = case
    got = theory.optimum_subspace(*case)
    assert got.eps_lower >= _sigma_term_bound(*case) - _margin(s, a)


def test_eps_lower_is_tight_on_the_seed_42_suite():
    # the largest relative gap measured 1.4e-5 (26.6% with the sigma-term bound)
    gaps = []
    for inst in theory.standard_instance_suite(24, seed=42):
        got = inst.optimum
        assert got.eps_lower <= got.eps_opt + _margin(inst.similarity, inst.matrix)
        gaps.append((got.eps_opt - got.eps_lower) / got.eps_opt)
    assert max(gaps) < 1e-4


def test_eps_lower_is_attained():
    # S = diag(4, 1), A = I: T = lambda_max(S - A.T A) = 3, met by the line
    # e_1; the plane gives 3 too, so the tie goes to h = 1
    got = theory.optimum_subspace(np.diag([4.0, 1.0]), np.eye(2), h_max=2)
    assert got.h == 1
    assert got.eps_opt == got.eps_lower == 3.0


@settings(max_examples=40, deadline=None)
@given(case=_search_inputs())
def test_search_is_never_worse_than_the_truncation_at_any_size(case):
    # each size starts from LSI's rank-h truncation U_h, and neither refining
    # nor skipping a size can leave the result above its deviation
    s, a, h_max = case
    got = theory.optimum_subspace(*case)
    res = linalg.svd(a)
    for h in range(1, min(h_max, res.rank) + 1):
        assert got.eps_opt <= theory.deviation_error(s, a, res.u[:, :h]) + _margin(s, a)


def test_search_at_rank_40_and_h_max_10_is_bounded(monkeypatch):
    # 40 documents in 10 topics at noise 0.1: A has rank 40, where a search
    # over all C(40, 10) = 8.5e8 subsets of singular vectors never finished.
    # The candidates bounded are capped at every plane and angle of every
    # refinement round of every size, and exceeding the cap fails at once.
    budget = 10 * theory._MAX_ROUNDS * 2 * len(theory._ANGLE_GRID) * math.comb(40, 2)
    bounded, least = [0], theory._least

    def counted(lb, *args):
        bounded[0] += lb.size
        assert bounded[0] <= budget
        return least(lb, *args)

    monkeypatch.setattr(theory, "_least", counted)
    tm = TopicModel(relevance=np.repeat(np.eye(10), 4, axis=1),
                    topic_ids=tuple(f"t{t}" for t in range(10)))
    inst = theory.construct_ideal_instance(tm, m=80, noise=0.1, seed=0)  # h_max = 10
    assert inst.svd.rank == 40
    got = inst.optimum
    # measured 2.2e-7 relative to eps_opt
    assert got.eps_lower <= got.eps_opt + _margin(inst.similarity, inst.matrix)
    assert got.eps_opt - got.eps_lower <= 1e-5 * got.eps_opt


def test_best_subset_scores_the_top_h_frame():
    # the refinement's start: LSI's rank-h truncation U_h, in coordinates I[:, :h]
    inst = next(theory.standard_instance_suite(1, seed=3, noise=0.3))
    s, a = inst.similarity, inst.matrix
    res = linalg.svd(a)
    c = res.u[:, : res.rank].T @ a
    factor = theory._similarity_factor(s)
    for h in range(1, res.rank + 1):
        eps, w = theory._best_subset(factor, c, h)
        assert np.array_equal(w, np.eye(res.rank, h))
        assert abs(eps - theory.deviation_error(s, a, res.u[:, :h])) <= _margin(s, a)


@pytest.mark.parametrize("noise", [None, 0.0, 0.3, 0.5, 2.0, 5.0])
def test_suite_search_is_bracketed_by_its_lower_bound_and_the_truncation(noise):
    # every noise regime verify runs: the result is no worse than LSI's
    # truncation at any size searched, and no better than the certified bound
    for inst in theory.standard_instance_suite(4, seed=0, noise=noise):
        s, a, got = inst.similarity, inst.matrix, inst.optimum
        margin = _margin(s, a)
        assert got.eps_lower <= got.eps_opt + margin
        for h in range(1, min(inst.topic_model.n_topics, inst.svd.rank) + 1):
            assert got.eps_opt <= theory.deviation_error(s, a, inst.svd.u[:, :h]) + margin


def test_w2_suites_search_nine_of_thirty_sizes(monkeypatch):
    # perfbench w2_verify's suites: 30 sizes up to the topic counts, of which
    # the lower bound rules out all but 9 (searching every size makes 30)
    calls = []
    search = theory._best_subset

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(theory, "_best_subset", counted)
    suites = [*theory.standard_instance_suite(8, seed=42),
              *theory.standard_instance_suite(1, seed=43)]
    assert sum(inst.topic_model.n_topics for inst in suites) == 30
    assert len(calls) == 9


def test_optimum_subspace_with_h_max_at_or_above_the_rank():
    # at h = rank(A) the subspace is all of range(A): nothing to rotate into
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
    a /= np.linalg.norm(a, axis=0)
    s_random, _ = _random_instance(11)
    for s in (a.T @ a, s_random):
        got = theory.optimum_subspace(s, a, h_max=4)
        oracle = brute_force_best_subset(s, a, h_max=4)
        assert got.eps_opt <= oracle + 1e-12
        assert theory.deviation_error(s, a, got.basis) == pytest.approx(got.eps_opt, abs=1e-10)
    # S = A^T A is met exactly by range(A) and by no line
    exact = theory.optimum_subspace(a.T @ a, a, h_max=4)
    assert exact.h == 2 and exact.eps_opt < 1e-12


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
    assert inst.optimum.h == 2
    assert inst.optimum.eps_opt < 1e-12
    assert np.allclose(np.linalg.norm(inst.matrix, axis=0), 1.0, atol=1e-12)
    # projected singular values squared equal the topic dominances squared
    sig = np.linalg.svd(inst.optimum.basis.T @ inst.matrix, compute_uv=False)
    assert np.allclose(np.sort(sig**2), [3.0, 5.0], atol=1e-10)


def test_ideal_instance_noise_perturbs_but_normalizes():
    tm = _single_topic((4, 4))
    inst = theory.construct_ideal_instance(tm, m=50, noise=0.1, seed=5)
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


def test_sv_perturbation_is_tight_on_a_top_pair_perturbation():
    # negative control: X2 = X1 + t u1 v1.T moves sigma_1 by exactly t =
    # ||X1 - X2||_2 = ||X1 - X2||_F, so the check holds with no headroom and
    # any bound understated by more than the slack would read false
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal((7, 5))
    u, _, vt = np.linalg.svd(x1)
    rec = theory.verify_sv_perturbation(x1, x1 + 0.5 * np.outer(u[:, 0], vt[0]))
    q = rec.quantities
    assert q["max_shift"] == pytest.approx(q["spectral"], rel=1e-12, abs=0.0)
    assert q["frobenius"] == pytest.approx(q["spectral"], rel=1e-12, abs=0.0)
    assert rec.holds


def test_dominance_interval_exact_instance():
    tm = _single_topic((6, 2))
    inst = theory.construct_ideal_instance(tm, m=25, noise=0.0, seed=2)
    rec = theory.verify_dominance_interval(inst)
    assert rec.holds
    assert rec.quantities["max_deviation"] < 1e-10
    assert rec.quantities["mingling"] == 0.0


def test_dominance_interval_pads_an_optimum_with_fewer_directions_than_topics():
    # a one-dimensional optimum on a two-topic model: its missing second
    # singular value reads as 0 against the second dominance
    tm = _single_topic((3, 2))
    inst = theory.construct_ideal_instance(tm, m=10, noise=0.2, seed=1)
    line = theory.optimum_subspace(inst.similarity, inst.matrix, 1)
    assert line.basis.shape[1] == 1
    rec = theory.verify_dominance_interval(dataclasses.replace(inst, optimum=line))
    sigma = np.linalg.svd(line.basis.T @ inst.matrix, compute_uv=False)[0]
    expected = max(abs(sigma**2 - 3.0), abs(0.0 - 2.0))
    assert rec.quantities["max_deviation"] == pytest.approx(expected, abs=1e-12)
    assert rec.quantities["bound"] == line.eps_opt  # mingling is 0 for single topics
    assert rec.holds == (expected <= line.eps_opt + theory._DOMINANCE_SLACK)


def test_truncation_angle_exact_instance():
    tm = _single_topic((6, 2))
    inst = theory.construct_ideal_instance(tm, m=25, noise=0.0, seed=2)
    rec = theory.verify_truncation_angle(inst)
    assert rec.condition_met and rec.holds
    assert rec.quantities["tan_measured"] < 1e-6


def _hand_instance(a, rho, basis, eps_opt):
    """An IdealInstance of matrix ``a``, S = rho.T rho and the given optimum."""
    tm = TopicModel(relevance=rho, topic_ids=tuple(f"t{t}" for t in range(len(rho))))
    optimum = theory.OptimumSubspaceResult(basis=basis, eps_opt=eps_opt, eps_lower=0.0)
    return theory.IdealInstance(matrix=a, topic_model=tm, optimum=optimum, noise=0.0, seed=0)


def test_truncation_angle_agreement_and_angle_claims_are_tight():
    # negative control: one document A = e1 and a basis at angle 0.1 from it.
    # eps_tilde = eps_opt = sin^2(0.1) and eps_0 = 0, so the agreement claim
    # has no headroom; tan_measured / tan_bound = 1 - tan^2(0.1), so an angle
    # bound 1.1% smaller would fail
    a, rho = np.array([[1.0], [0.0]]), np.array([[1.0]])
    basis = np.array([[math.cos(0.1)], [math.sin(0.1)]])
    eps_opt = theory.deviation_error(rho.T @ rho, a, basis)
    rec = theory.verify_truncation_angle(_hand_instance(a, rho, basis, eps_opt))
    q = rec.quantities
    assert rec.condition_met and rec.holds
    assert abs(abs(q["eps_tilde"] - q["eps_0"]) - q["eps_opt"]) <= 1e-15
    assert q["tan_measured"] / q["tan_bound"] == pytest.approx(1.0 - math.tan(0.1) ** 2,
                                                               rel=0.0, abs=1e-12)
    rec = theory.verify_truncation_angle(_hand_instance(a, rho, basis, 0.9 * eps_opt))
    assert rec.condition_met and not rec.holds


def test_truncation_angle_next_singular_value_claim_is_tight():
    # negative control: A = diag(1, 0.5) with the optimum e1 leaves
    # Dbar = diag(0, 0.5), so sigma_2(A) = sqrt(eps_tilde) = 0.5 exactly
    a, rho = np.diag([1.0, 0.5]), np.eye(2)
    rec = theory.verify_truncation_angle(_hand_instance(a, rho, np.eye(2)[:, :1], 1.0))
    q = rec.quantities
    assert rec.condition_met and rec.holds
    assert q["sigma_h_plus_1"] == math.sqrt(q["eps_tilde"]) == 0.5


def test_verify_factors_each_ideal_instance_once(monkeypatch, tmp_path):
    # the truncation check reads the SVD the optimum search ran on: one
    # linalg.svd per instance, none from the check itself
    calls = []
    svd = linalg.svd

    def counted(z):
        calls.append(np.shape(z))
        return svd(z)

    monkeypatch.setattr(linalg, "svd", counted)
    assert cli.main(["verify", "--seed", "42", "--trials", "8",
                     "--out", str(tmp_path / "v.jsonl")]) == 0
    assert len(calls) == 8


def test_truncation_angle_reads_each_instance_own_svd():
    # an instance built by hand, or by dataclasses.replace from a constructed
    # one, computes the SVD of its own matrix, never the one stored on the
    # instance it was copied from
    hand = _hand_instance(np.diag([1.0, 0.5]), np.eye(2), np.eye(2)[:, :1], 1.0)
    assert hand.svd.s.tolist() == [1.0, 0.5]
    tm = _single_topic((4, 3))
    inst = theory.construct_ideal_instance(tm, m=30, noise=0.2, seed=1)
    other = theory.construct_ideal_instance(tm, m=30, noise=0.2, seed=2).matrix
    moved = dataclasses.replace(inst, matrix=other)
    fresh = theory.IdealInstance(matrix=other, topic_model=tm, optimum=inst.optimum,
                                 noise=inst.noise, seed=inst.seed)
    got = theory.verify_truncation_angle(moved).to_json()
    assert got == theory.verify_truncation_angle(fresh).to_json()
    assert got != theory.verify_truncation_angle(inst).to_json()
    assert np.array_equal(moved.svd.u, linalg.svd(other).u)


def test_h_and_similarity_follow_a_replaced_input():
    # both are read off the fields they derive from, so dataclasses.replace
    # of the basis or the topic model cannot leave them stale
    inst = theory.construct_ideal_instance(_single_topic((4, 3)), m=30, noise=0.2, seed=1)
    tm2 = _single_topic((2, 5))
    moved = dataclasses.replace(inst, topic_model=tm2)
    assert np.array_equal(moved.similarity, tm2.relevance.T @ tm2.relevance)
    assert not np.array_equal(moved.similarity, inst.similarity)
    b = np.eye(30)[:, :3]
    assert inst.optimum.h != 3
    assert dataclasses.replace(inst.optimum, basis=b).h == b.shape[1] == 3


@pytest.mark.parametrize("count, seed, noise", [(24, 42, None), (12, 0, None), (12, 0, 0.0)])
def test_eps_tilde_from_the_gram_matches_the_svd(count, seed, noise):
    # eps_tilde = lambda_max(Dbar.T Dbar) against sigma_1(Dbar)^2: measured
    # within 2.3e-15 relative, and 3.6e-15 at noise 0, where it is roundoff
    for inst in theory.standard_instance_suite(count, seed=seed, noise=noise):
        basis, a = inst.optimum.basis, inst.matrix
        dbar = a - basis @ (basis.T @ a)
        want = float(np.linalg.svd(dbar, compute_uv=False)[0]) ** 2
        got = theory.verify_truncation_angle(inst).quantities["eps_tilde"]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cosine_bound_exact_instance():
    tm = _single_topic((4, 3))
    inst = theory.construct_ideal_instance(tm, m=25, noise=0.0, seed=6)
    rec = theory.verify_cosine_bound(inst)
    assert rec.condition_met and rec.holds
    assert rec.quantities["eps"] < 1e-10


def test_cosine_bound_holds_where_sim_is_below_eps():
    # at noise 3 eps is ~0.9, far above the cross-topic similarity 0, where
    # the lower envelope must divide by 1 - eps, not 1 + eps; the envelope
    # (sim - eps) / (1 + eps) is violated on the same instances (a negative
    # control: the check can tell a wrong envelope from a right one)
    for inst in theory.standard_instance_suite(2, seed=2, noise=3.0):
        rec = theory.verify_cosine_bound(inst)
        eps = rec.quantities["eps"]
        assert rec.condition_met and eps > 0.8
        assert rec.holds
        assert rec.quantities["lower_violation"] < 0.0
        x = linalg.project(inst.optimum.basis, inst.matrix)
        norms = np.linalg.norm(x, axis=0)
        iu = np.triu_indices(x.shape[1], k=1)
        cos = (x.T @ x / np.outer(norms, norms))[iu]
        wrong_low = (inst.similarity[iu] - eps) / (1.0 + eps)
        assert np.max(wrong_low - cos) > theory._COSINE_SLACK


def test_theorem_record_serializes_to_json():
    rec = theory.TheoremRecord(
        check="demo", quantities={"x": 1.5, "y": math.inf}, condition_met=True, holds=True
    )
    parsed = json.loads(rec.to_json())
    assert parsed["check"] == "demo"
    assert parsed["quantities"]["x"] == 1.5
    assert parsed["quantities"]["y"] is None  # JSON has no Infinity
    assert "instance" not in parsed  # only verify's records name an instance
    rec.instance = {"index": 3}
    assert json.loads(rec.to_json())["instance"] == {"index": 3}


def test_standard_instance_suite_deterministic_and_varied():
    s1 = list(theory.standard_instance_suite(6, seed=1))
    s2 = theory.standard_instance_suite(6, seed=1)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.matrix, b.matrix)
    assert {i.topic_model.n_topics for i in s1} == {2, 5}
    assert {i.noise for i in s1} == {0.05, 0.1, 0.2}
    mingled = [i for i in s1 if theory.topic_stats(i.topic_model).mingling > 0]
    assert mingled, "suite should include blended-topic instances"
    with pytest.raises(ParameterError):
        theory.standard_instance_suite(0)


def test_standard_instance_suite_builds_each_instance_when_reached(monkeypatch):
    built, construct = [], theory.construct_ideal_instance

    def counted(*args, **kwargs):
        built.append(kwargs["seed"])
        return construct(*args, **kwargs)

    monkeypatch.setattr(theory, "construct_ideal_instance", counted)
    suite = theory.standard_instance_suite(3, seed=1)
    assert built == []
    next(suite)
    assert built == [1_000_003]
    assert len(list(suite)) == 2 and built == [1_000_003, 1_000_004, 1_000_005]


# sha256 of each relevance matrix (float64 bytes, C order) of
# standard_instance_suite(24, seed=0): every distribution, and the six blended
# instances 2, 6, ..., 22
_SUITE_RELEVANCE_SHA256 = (
    "fa21098d609486db4053f350fe9d889e29ee6b0077e9a10367e908b09fe10097",
    "a49b0cb8592b0c37f498d0aaecd74c6d2dcf59a5e4813130e4f6fc707d2bccc8",
    "4705b8938f3ff86666742343c0180adb41ebd28acbdd76362c11dff3472d493e",
    "2d72f5ddb7ed4f0f4a63cf796886b122ba812f1430108a3f8c698fb2647bc293",
    "04ed47983674da7fb391349340732fe75671c41c0866d16d50addfa4f094db83",
    "d8907d53e26bf4afd37cdcf48ef34c4e103cbae605b6d869161f171bd3293f15",
    "a2eeba7bb4a935a7679dc27689fb61a659138ed5c2eb22f3c291eb8c349818da",
    "a49b0cb8592b0c37f498d0aaecd74c6d2dcf59a5e4813130e4f6fc707d2bccc8",
    "fa21098d609486db4053f350fe9d889e29ee6b0077e9a10367e908b09fe10097",
    "2d72f5ddb7ed4f0f4a63cf796886b122ba812f1430108a3f8c698fb2647bc293",
    "aa73f0661e7c7891f681bc340c11f0ee134a92d29e2776bc814f8a57b5c18f9b",
    "d8907d53e26bf4afd37cdcf48ef34c4e103cbae605b6d869161f171bd3293f15",
    "04ed47983674da7fb391349340732fe75671c41c0866d16d50addfa4f094db83",
    "a49b0cb8592b0c37f498d0aaecd74c6d2dcf59a5e4813130e4f6fc707d2bccc8",
    "0b1491fd0edd6ef18e75d04fe7661d5a6397c8bacbbcffdba32aa08b2fd0056b",
    "2d72f5ddb7ed4f0f4a63cf796886b122ba812f1430108a3f8c698fb2647bc293",
    "fa21098d609486db4053f350fe9d889e29ee6b0077e9a10367e908b09fe10097",
    "d8907d53e26bf4afd37cdcf48ef34c4e103cbae605b6d869161f171bd3293f15",
    "75316618e7f7d651c0feefd25693c0d6fd419d605198b479f698f2fd37ac9311",
    "a49b0cb8592b0c37f498d0aaecd74c6d2dcf59a5e4813130e4f6fc707d2bccc8",
    "04ed47983674da7fb391349340732fe75671c41c0866d16d50addfa4f094db83",
    "2d72f5ddb7ed4f0f4a63cf796886b122ba812f1430108a3f8c698fb2647bc293",
    "6fe7606e127955e0495ee00f975390d88e6324d5f2b98c9795742d4b29c3ae82",
    "d8907d53e26bf4afd37cdcf48ef34c4e103cbae605b6d869161f171bd3293f15",
)


def test_standard_instance_suite_topic_models_are_pinned():
    suite = theory.standard_instance_suite(24, seed=0)
    got = tuple(hashlib.sha256(inst.topic_model.relevance.tobytes()).hexdigest()
                for inst in suite)
    assert got == _SUITE_RELEVANCE_SHA256


def test_standard_instance_suite_noise_override():
    # at noise 0 the search finds the topic span: A's top-k left singular
    # vectors, with zero deviation
    suite = [inst for seed in (0, 42)
             for inst in theory.standard_instance_suite(24, seed=seed, noise=0.0)]
    assert {inst.noise for inst in suite} == {0.0}
    for inst in suite:
        k = inst.topic_model.n_topics
        assert inst.optimum.h == k
        assert inst.optimum.eps_opt <= 1e-12
        top = linalg.svd(inst.matrix).u[:, :k]
        assert linalg.canonical_angles(top, inst.optimum.basis).angles[0] <= 1e-10


def test_rank_one_instance_at_noise_zero_takes_its_rank():
    # six documents of one blend span a single direction: the optimum is
    # that line, and the truncation check's precondition holds on it
    rho = np.tile([[math.cos(0.4)], [math.sin(0.4)]], 6)
    tm = TopicModel(relevance=rho, topic_ids=("a", "b"))
    inst = theory.construct_ideal_instance(tm, m=20, noise=0.0, seed=0)
    assert inst.optimum.h == 1
    assert inst.optimum.eps_opt < 1e-14
    rec = theory.verify_truncation_angle(inst)
    assert rec.condition_met and rec.holds


def _permute_documents(s, a, rng):
    perm = rng.permutation(a.shape[1])
    return s[np.ix_(perm, perm)], a[:, perm]  # P^T S P, A P


def _reflect_terms(s, a, rng):
    # the Householder reflection that takes a random document onto term 0
    v = a[:, rng.integers(a.shape[1])].copy()
    v[0] -= 1.0
    v /= np.linalg.norm(v)
    return s, a - 2.0 * np.outer(v, v @ a)  # (I - 2 v v^T) A


@pytest.mark.parametrize("transform", [_permute_documents, _reflect_terms],
                         ids=["document_permutation", "term_reflection"])
def test_optimum_subspace_is_invariant(transform):
    # eps_opt, eps_lower and h depend on S and A only through document order
    # and term geometry, neither of which these transformations change
    rng = np.random.default_rng(0)
    for inst in theory.standard_instance_suite(4, seed=0):
        s, a = transform(inst.similarity, inst.matrix, rng)
        got = theory.optimum_subspace(s, a, h_max=inst.topic_model.n_topics)
        assert got.h == inst.optimum.h
        assert abs(got.eps_opt - inst.optimum.eps_opt) <= 1e-12
        assert abs(got.eps_lower - inst.optimum.eps_lower) <= 1e-12

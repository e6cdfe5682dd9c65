"""Ranking and clustering metrics against hand-worked and brute-force oracles."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import cut_tree as scipy_cut_tree
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from irrspace import evalmetrics
from irrspace.corpus import TopicModel
from irrspace.errors import DimensionError, ParameterError, UndefinedMetricError


def test_cosine_matrix_unit_diag_and_zero_columns():
    z = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
    cos = evalmetrics.cosine_matrix(z)
    assert np.allclose(np.diag(cos), [1.0, 1.0, 1.0])
    assert cos[0, 1] == 0.0  # zero column similarity defined as 0
    assert cos[0, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_rank_pairs_orders_by_cosine_then_pair():
    # doc0/doc1 identical, doc2 orthogonal, doc3 at 45 degrees to doc0
    z = np.array(
        [
            [1.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )
    z = z / np.linalg.norm(z, axis=0)
    ranked = evalmetrics.rank_pairs(z)
    order = list(zip(ranked.i.tolist(), ranked.j.tolist()))
    assert order[0] == (0, 1)  # cosine 1
    # cos(0,3) = cos(1,3) = cos(2,3) = 1/sqrt(2); ties resolve by index pair
    assert order[1:4] == [(0, 3), (1, 3), (2, 3)]
    assert order[4:] == [(0, 2), (1, 2)]
    assert ranked.cosine[0] == pytest.approx(1.0, abs=1e-15)


def _ranking(order, n_docs):
    # descending placeholder cosines; only the order matters to the metrics
    i, j = np.array(order).T
    return evalmetrics.RankedPairs(
        i=i, j=j, cosine=1.0 - 0.01 * np.arange(len(order)), n_docs=n_docs
    )


def _mask(pairs, n_docs):
    """The n_docs x n_docs intra mask that is true exactly at ``pairs``."""
    mask = np.zeros((n_docs, n_docs), dtype=bool)
    for i, j in pairs:
        mask[i, j] = True
    return mask


def test_pairwise_average_precision_hand_case():
    # intra pairs land at ranks 1 and 4: (1/1 + 2/4) / 2 = 0.75
    ranked = _ranking([(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3)], 4)
    intra = _mask({(0, 1), (2, 3)}, 4)
    assert evalmetrics.pairwise_average_precision(ranked, intra) == pytest.approx(
        0.75, abs=1e-15
    )


def test_kappa_hand_case_with_exact_fractions():
    ranked = _ranking(list(itertools.combinations(range(5), 2)), 5)
    intra = _mask({(0, 1), (0, 2)}, 5)  # at ranks 1 and 2 of 10
    pap = Fraction(1, 1)
    chance = Fraction(2, 10)
    expected = (pap - chance) / (1 - chance)
    got = evalmetrics.kappa_average_precision(ranked, intra)
    assert got == pytest.approx(float(expected), abs=1e-15)


def test_kappa_matches_affine_identity_on_random_rankings():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        z = rng.standard_normal((6, n))
        ranked = evalmetrics.rank_pairs(z)
        all_pairs = list(zip(ranked.i.tolist(), ranked.j.tolist()))
        k = int(rng.integers(1, len(all_pairs)))
        picks = rng.permutation(len(all_pairs))[:k]  # k < len: never every pair
        intra = _mask([all_pairs[i] for i in picks], n)
        pap = evalmetrics.pairwise_average_precision(ranked, intra)
        chance = evalmetrics.chance_precision(ranked, intra)
        kappa = evalmetrics.kappa_average_precision(ranked, intra)
        assert kappa == (pap - chance) / (1.0 - chance)  # exact, not approx


def test_kappa_invariant_under_document_permutation():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 10))
    tm_intra = _mask({(0, 1), (2, 5), (3, 4), (6, 9)}, 10)
    base = evalmetrics.kappa_average_precision(evalmetrics.rank_pairs(z), tm_intra)
    perm = rng.permutation(10)
    z2 = z[:, perm]
    intra2 = np.triu((tm_intra | tm_intra.T)[np.ix_(perm, perm)], 1)
    got = evalmetrics.kappa_average_precision(evalmetrics.rank_pairs(z2), intra2)
    assert got == base  # exact equality, not within tolerance


def test_metrics_undefined_cases():
    ranked = _ranking([(0, 1)], 2)
    with pytest.raises(UndefinedMetricError):
        evalmetrics.pairwise_average_precision(ranked, _mask((), 2))
    with pytest.raises(UndefinedMetricError):
        evalmetrics.kappa_average_precision(ranked, _mask({(0, 1)}, 2))  # chance = 1
    with pytest.raises(ParameterError):
        evalmetrics.pairwise_average_precision(ranked, _mask({(1, 0)}, 2))


@pytest.mark.parametrize("metric", ["pairwise_average_precision", "chance_precision",
                                    "kappa_average_precision"])
def test_intra_mask_error_contract(metric):
    score = getattr(evalmetrics, metric)
    ranked = evalmetrics.rank_pairs(np.random.default_rng(0).standard_normal((3, 4)))
    for shape in [(3, 3), (4, 5), (16,)]:
        with pytest.raises(DimensionError, match="intra mask has shape"):
            score(ranked, np.zeros(shape, dtype=bool))
    for bad in [(1, 1), (2, 0)]:  # on and below the diagonal, next to a valid pair
        with pytest.raises(ParameterError, match="on or below the diagonal"):
            score(ranked, _mask({(0, 1), bad}, 4))
    with pytest.raises(UndefinedMetricError, match="no intra-topic pairs"):
        score(ranked, _mask((), 4))
    partial = _ranking([(0, 1), (0, 2)], 3)  # (1, 2) left out of the ranking
    with pytest.raises(ParameterError, match="missing from the ranking"):
        score(partial, _mask({(0, 1), (1, 2)}, 3))
    every_pair = np.triu(np.ones((4, 4), dtype=bool), 1)
    if metric == "kappa_average_precision":
        with pytest.raises(UndefinedMetricError, match="every pair is intra-topic"):
            score(ranked, every_pair)
    else:
        assert score(ranked, every_pair) == 1.0


def _oracle_rank_pairs(z):
    """The pair-tuple ranking: sort ((i, j), cosine) by (-cosine, (i, j))."""
    c = evalmetrics.cosine_matrix(z)
    n = c.shape[0]
    entries = [((i, j), float(c[i, j])) for i in range(n) for j in range(i + 1, n)]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def _oracle_kappa(entries, intra):
    precisions = []
    seen_intra = 0
    for rank, (pair, _) in enumerate(entries, start=1):
        if pair in intra:
            seen_intra += 1
            precisions.append(seen_intra / rank)
    pap = math.fsum(precisions) / len(precisions)
    chance = len(intra) / len(entries)
    return (pap - chance) / (1.0 - chance)


def _same_label_pairs(labels):
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(labels)), 2)
        if labels[i] == labels[j]
    }


@st.composite
def _tied_docs(draw):
    """Small-integer columns, so exact cosine ties are common, with columns
    drawn from a pool that holds a zero column, so duplicates are common too;
    plus a random topic label per document."""
    m = draw(st.integers(1, 4))
    pool = np.array(
        draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                      min_size=1, max_size=5)) + [[0] * m],
        dtype=np.float64,
    ).T
    cols = draw(st.lists(st.integers(0, pool.shape[1] - 1), min_size=2, max_size=12))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(cols), max_size=len(cols)))
    return pool[:, cols], labels


@settings(deadline=None)
@given(_tied_docs())
def test_array_ranking_and_kappa_match_tuple_oracle(docs):
    z, labels = docs
    ranked = evalmetrics.rank_pairs(z)
    oracle = _oracle_rank_pairs(z)
    assert list(zip(ranked.i.tolist(), ranked.j.tolist())) == [p for p, _ in oracle]
    assert ranked.cosine.tolist() == [c for _, c in oracle]
    intra = _same_label_pairs(labels)
    assume(0 < len(intra) < len(oracle))
    mask = _mask(intra, len(labels))
    assert evalmetrics.kappa_average_precision(ranked, mask) == _oracle_kappa(oracle, intra)


@st.composite
def _many_docs(draw):
    """100-400 documents: tie-free Gaussian columns, or columns drawn from a
    pool of small-integer columns, their negations (whose zeros are -0.0)
    and a zero column, so exact ties and duplicates are common."""
    n = draw(st.integers(100, 400))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.standard_normal((m, n))
    pool = rng.integers(-2, 3, size=(m, draw(st.integers(1, 8)))).astype(np.float64)
    pool = np.hstack([pool, -pool, np.zeros((m, 1))])
    return pool[:, rng.integers(0, pool.shape[1], n)]


@settings(deadline=None, max_examples=60)
@given(_many_docs())
def test_rank_pairs_is_the_stable_order_at_simd_sizes(z):
    # n >= 100 puts numpy's default sort on its vectorized path
    n = z.shape[1]
    i, j = np.triu_indices(n, 1)
    cos = evalmetrics.cosine_matrix(z)[i, j]
    order = np.argsort(-cos, kind="stable")
    ranked = evalmetrics.rank_pairs(z)
    assert np.array_equal(ranked.i, i[order])
    assert np.array_equal(ranked.j, j[order])
    assert ranked.cosine.tobytes() == cos[order].tobytes()


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    sources=st.lists(st.integers(0, 4), min_size=3, max_size=12),
    source_labels=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    data=st.data(),
)
def test_kappa_invariant_under_permutation_with_duplicate_and_zero_columns(
    seed, m, sources, source_labels, data
):
    # Source 4 is the zero column.  Duplicates of a source share its label and
    # every zero-column document has a label of its own, so each exact cosine
    # tie joins pairs that are all intra or all not: the tie-break by index,
    # which a permutation changes, cannot move kappa.
    pool = np.hstack([np.random.default_rng(seed).standard_normal((m, 4)), np.zeros((m, 1))])
    z = pool[:, sources]
    labels = [source_labels[s] if s < 4 else 3 + d for d, s in enumerate(sources)]
    intra = _same_label_pairs(labels)
    assume(0 < len(intra) < len(sources) * (len(sources) - 1) // 2)
    perm = data.draw(st.permutations(range(len(sources))))
    base = evalmetrics.kappa_average_precision(
        evalmetrics.rank_pairs(z), _mask(intra, len(sources))
    )
    permuted = evalmetrics.kappa_average_precision(
        evalmetrics.rank_pairs(z[:, perm]),
        _mask(_same_label_pairs([labels[p] for p in perm]), len(sources)),
    )
    assert permuted == base


def contingency_score_oracle(table):
    """Re-derived scoring rule: count a cell only when it strictly beats
    every other entry in both its row and its column."""
    t = np.asarray(table)
    total = 0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            v = t[i, j]
            row_ok = all(v > t[i, jj] for jj in range(t.shape[1]) if jj != j)
            col_ok = all(v > t[ii, j] for ii in range(t.shape[0]) if ii != i)
            if row_ok and col_ok:
                total += int(v)
    return total / t.sum()


def test_contingency_score_hand_case():
    table = np.array([[3, 1], [0, 2]])
    assert evalmetrics.contingency_score(table) == pytest.approx(5 / 6, abs=1e-15)


def test_contingency_score_whose_total_overflows_is_refused():
    # unchecked, the total overflows to inf and the score is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="too large"):
            evalmetrics.contingency_score([[1e308, 0], [0, 1e308]])


def test_contingency_score_ties_do_not_count():
    table = np.array([[2, 2], [1, 0]])
    assert evalmetrics.contingency_score(table) == 0.0


def test_contingency_score_matches_oracle_on_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        table = rng.integers(0, 9, shape)
        if table.sum() == 0:
            continue
        assert evalmetrics.contingency_score(table) == pytest.approx(
            contingency_score_oracle(table), abs=1e-15
        )


@settings(deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(0, 4), min_size=rows, max_size=rows), min_size=1, max_size=5
        )
    )
)
def test_contingency_score_matches_oracle_on_generated_tables(columns):
    table = np.array(columns).T
    assume(table.sum() > 0)
    assert evalmetrics.contingency_score(table) == contingency_score_oracle(table)


def test_contingency_table_counts():
    labels = np.array([0, 0, 1, 1, 1])
    truth = np.array([0, 1, 1, 1, 0])
    table = evalmetrics.contingency_table(labels, truth, 2, 2)
    assert np.array_equal(table, [[1, 1], [1, 2]])


@pytest.mark.parametrize(
    "labels",
    [[0, -1, 1], [0, 2, 1], [0, 0.5, 1]],
    ids=["negative", "out_of_range", "non_integer"],
)
def test_contingency_table_rejects_bad_labels(labels):
    truth = np.array([0, 1, 1])
    with pytest.raises(ParameterError, match="cluster label"):
        evalmetrics.contingency_table(np.array(labels), truth, 2, 2)
    with pytest.raises(ParameterError, match="topic index"):
        evalmetrics.contingency_table(truth, np.array(labels), 2, 2)


def _two_blob_matrix(seed=0):
    rng = np.random.default_rng(seed)
    a = np.tile([[1.0], [0.0], [0.0]], (1, 6)) + rng.normal(0, 0.05, (3, 6))
    b = np.tile([[0.0], [0.0], [1.0]], (1, 6)) + rng.normal(0, 0.05, (3, 6))
    z = np.concatenate([a, b], axis=1)
    return z / np.linalg.norm(z, axis=0)


def _same_partition(labels, truth):
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    for i in range(len(truth)):
        for j in range(i + 1, len(truth)):
            if (labels[i] == labels[j]) != (truth[i] == truth[j]):
                return False
    return True


@pytest.mark.parametrize("algorithm", evalmetrics.ALGORITHMS)
def test_every_algorithm_recovers_separated_blobs(algorithm):
    z = _two_blob_matrix()
    truth = np.array([0] * 6 + [1] * 6)
    labels = evalmetrics.cluster(z, 2, algorithm)
    assert _same_partition(labels, truth)


def test_cluster_is_deterministic():
    z = _two_blob_matrix(3)
    for algorithm in evalmetrics.ALGORITHMS:
        l1 = evalmetrics.cluster(z, 2, algorithm)
        l2 = evalmetrics.cluster(z.copy(), 2, algorithm)
        assert np.array_equal(l1, l2)


def test_cluster_validates_arguments():
    z = _two_blob_matrix()
    with pytest.raises(ParameterError):
        evalmetrics.cluster(z, 0, "single_link")
    with pytest.raises(ParameterError):
        evalmetrics.cluster(z, 13, "single_link")
    with pytest.raises(ParameterError):
        evalmetrics.cluster(z, 2, "ward")


@pytest.mark.parametrize("algorithm", evalmetrics.ALGORITHMS)
def test_one_cluster_is_all_zeros_even_for_one_document(algorithm):
    assert np.array_equal(evalmetrics.cluster(np.ones((3, 1)), 1, algorithm), [0])
    labels = evalmetrics.cluster(_two_blob_matrix(), 1, algorithm)
    assert labels.dtype == np.intp and np.array_equal(labels, np.zeros(12))


@pytest.mark.parametrize("method", ["single", "complete", "average"])
def test_linkage_is_scipys_bit_for_bit(method):
    # distances 1 - cos with cosines in quarters: most merge heights tie
    rng = np.random.default_rng(20010909)
    d = 1.0 - rng.integers(0, 5, 40 * 39 // 2) / 4.0
    got = evalmetrics.linkage(d, method=method)
    want = linkage(d, method=method)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cut_tree_matches_scipy_on_every_k_with_ties():
    # coordinates rounded to 0 or 1 decimals give many equal merge heights
    rng = np.random.default_rng(20010909)
    for trial in range(60):
        n = int(rng.integers(2, 81))
        x = np.round(rng.uniform(0.0, 3.0, (n, int(rng.integers(1, 4)))), trial % 2)
        z = linkage(pdist(x), method=("single", "complete", "average")[trial % 3])
        # scipy fills the k = n column at index 0, so ask for k descending
        want = scipy_cut_tree(z, n_clusters=np.arange(n, 0, -1))
        for k in range(1, n + 1):
            got = evalmetrics.cut_tree(z, k)
            assert got.dtype == np.intp and got.shape == (n,)
            assert np.array_equal(got, want[:, n - k]), (trial, k)


def test_cut_tree_applies_tied_merges_in_scipy_order():
    # single link on the points 3, 3, 1, 1, 1: all three merges at height 0
    # tie.  Applying z's rows in order would join leaves 0 and 1 first; scipy
    # applies tied merges in reverse breadth-first order from the root, right
    # child first, so the first merge is row 1, which joins leaves 2 and 3.
    z = np.array(
        [[0.0, 1.0, 0.0, 2.0], [2.0, 3.0, 0.0, 2.0], [4.0, 6.0, 0.0, 3.0], [5.0, 7.0, 2.0, 5.0]]
    )
    want = [0, 1, 2, 2, 3]
    assert np.array_equal(scipy_cut_tree(z, n_clusters=4).ravel(), want)
    assert np.array_equal(evalmetrics.cut_tree(z, 4), want)


def test_floor_ceiling_brackets_all_scores():
    z = _two_blob_matrix(1)
    rho = np.zeros((2, 12))
    rho[0, :6] = 1.0
    rho[1, 6:] = 1.0
    tm = TopicModel(relevance=rho, topic_ids=("a", "b"))
    out = evalmetrics.floor_ceiling(z, tm)
    assert set(out.scores) == set(evalmetrics.ALGORITHMS)
    assert out.floor == min(out.scores.values())
    assert out.ceiling == max(out.scores.values())
    assert out.floor == pytest.approx(1.0)  # trivially separable blobs


@pytest.mark.parametrize("columns", [slice(None), [2, 7, 15]], ids=["all", "three"])
@pytest.mark.parametrize("e", [-700, -550, 520, 660])
def test_cosine_metrics_ignore_column_scale(e, columns):
    # squared norms of columns scaled by 2**e underflow or overflow; every
    # cosine metric must still give the unscaled result, bit for bit
    z = np.random.default_rng(20010909).uniform(0.0, 1.0, (30, 20))
    scaled = z.copy()
    scaled[:, columns] = np.ldexp(z[:, columns], e)
    rho = np.repeat(np.eye(2), 10, axis=1)
    tm = TopicModel(relevance=rho, topic_ids=("a", "b"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, got = evalmetrics.rank_pairs(z), evalmetrics.rank_pairs(scaled)
        for field in ("i", "j", "cosine"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        for algorithm in evalmetrics.ALGORITHMS:
            assert np.array_equal(evalmetrics.cluster(scaled, 3, algorithm),
                                  evalmetrics.cluster(z, 3, algorithm)), algorithm
        assert evalmetrics.floor_ceiling(scaled, tm) == evalmetrics.floor_ceiling(z, tm)


def test_floor_ceiling_requires_single_topic_docs():
    z = _two_blob_matrix(2)
    rho = np.full((2, 12), 1 / math.sqrt(2))
    tm = TopicModel(relevance=rho, topic_ids=("a", "b"))
    with pytest.raises(ParameterError):
        evalmetrics.floor_ceiling(z, tm)


def test_kmeans_refinement_recorded_against_seed_partition():
    # refinement starting from each linkage result should rarely score worse;
    # record the comparison on a mildly noisy instance without asserting it,
    # then assert determinism of the refined labels
    rng = np.random.default_rng(11)
    z = _two_blob_matrix(4) + rng.normal(0, 0.2, (3, 12))
    z = z / np.linalg.norm(z, axis=0)
    truth = np.array([0] * 6 + [1] * 6)
    for base in ("single_link", "complete_link", "group_average"):
        seeded = evalmetrics.cluster(z, 2, base)
        refined = evalmetrics.cluster(z, 2, f"kmeans_{base}")
        t_base = evalmetrics.contingency_table(seeded, truth, 2, 2)
        t_ref = evalmetrics.contingency_table(refined, truth, 2, 2)
        s_base = evalmetrics.contingency_score(t_base)
        s_ref = evalmetrics.contingency_score(t_ref)
        print(f"{base}: linkage={s_base:.3f} refined={s_ref:.3f}")
        again = evalmetrics.cluster(z, 2, f"kmeans_{base}")
        assert np.array_equal(refined, again)


@pytest.mark.parametrize("base", ["single_link", "complete_link", "group_average"])
def test_kmeans_reseeds_the_cluster_a_zero_column_empties(base):
    # each linkage puts the zero column (a document with no indexed terms) in
    # a cluster of its own, whose centroid is then zero; the column moves to
    # cluster 0, and the emptied cluster 2 is reseeded with the point least
    # similar to its stale centroid: all tie at 0, so the lowest index
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.0, 0.95], [0.0, 0.0]]).T
    assert evalmetrics.cluster(x, 3, base).tolist() == [0, 0, 1, 1, 2]
    assert evalmetrics.cluster(x, 3, f"kmeans_{base}").tolist() == [2, 0, 1, 1, 0]

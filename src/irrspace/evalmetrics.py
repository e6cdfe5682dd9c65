"""Retrieval-style and clustering evaluation of document representations.

A ranking holds every document pair i < j as index arrays sorted by
nonincreasing cosine, ties broken by (i, j); intra-topic pairs are a strictly
upper-triangular n_docs x n_docs bool mask.  Every metric is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .corpus import TopicModel
from .errors import DimensionError, ParameterError, UndefinedMetricError, as_integer

_LINKAGE = {
    "single_link": "single",
    "complete_link": "complete",
    "group_average": "average",
}

# each linkage, then k-means seeded by it; cluster reads the base off the prefix
ALGORITHMS = (*_LINKAGE, *(f"kmeans_{name}" for name in _LINKAGE))

_KMEANS_MAX_ITER = 100


def cosine_matrix(z) -> np.ndarray:
    """Pairwise column cosines; pairs involving a zero column get cosine 0."""
    x = linalg.unit_columns(z)
    c = np.clip(x.T @ x, -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return c


@dataclass
class RankedPairs:
    """All unordered document pairs (i[r], j[r]), i < j, by nonincreasing cosine."""

    i: np.ndarray
    j: np.ndarray
    cosine: np.ndarray
    n_docs: int


def rank_pairs(z) -> RankedPairs:
    a = linalg.as_matrix(z)
    n = a.shape[1]
    if n < 2:
        raise ParameterError("need at least two documents to rank pairs")
    i, j = np.triu_indices(n, 1)
    cos = cosine_matrix(a)[i, j]
    # triu order is (i, j) order, so ties must keep their triu order
    order = np.argsort(-cos)
    ranked = cos[order]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        # rank each pair by the first sorted position of its value, then sort
        # the unique keys rank * N + index: the stable order.  The key fits in
        # int64 for N < 3e9 pairs (about 77k documents), far beyond what a
        # dense n x n cosine matrix allows.
        pos = np.arange(cos.size)
        rank = np.maximum.accumulate(np.where(np.r_[False, tied], 0, pos))
        order = np.sort(rank * cos.size + order) % cos.size
    return RankedPairs(i=i[order], j=j[order], cosine=cos[order], n_docs=n)


def _precisions(ranked: RankedPairs, intra: np.ndarray) -> tuple[float, float]:
    """(chance precision, pairwise average precision) of the pairs marked in
    the ``intra`` mask, both from one hit vector over the ranking."""
    intra = np.asarray(intra, dtype=bool)
    if intra.shape != (ranked.n_docs,) * 2:
        raise DimensionError(f"intra mask has shape {intra.shape}, not {(ranked.n_docs,) * 2}")
    if np.tril(intra).any():
        raise ParameterError("intra mask has a true entry on or below the diagonal")
    hits = intra[ranked.i, ranked.j]
    ranks = np.flatnonzero(hits) + 1
    if ranks.size != np.count_nonzero(intra):
        raise ParameterError("intra pairs missing from the ranking")
    if ranks.size == 0:
        raise UndefinedMetricError("no intra-topic pairs; precision is undefined")
    return ranks.size / hits.size, math.fsum(np.arange(1, ranks.size + 1) / ranks) / ranks.size


def pairwise_average_precision(ranked: RankedPairs, intra: np.ndarray) -> float:
    """Mean over intra pairs p of (#intra ranked at or above p) / rank(p)."""
    return _precisions(ranked, intra)[1]


def chance_precision(ranked: RankedPairs, intra: np.ndarray) -> float:
    return _precisions(ranked, intra)[0]


def kappa_average_precision(ranked: RankedPairs, intra: np.ndarray) -> float:
    """Chance-corrected average precision: (pap - chance) / (1 - chance)."""
    chance, pap = _precisions(ranked, intra)
    if chance == 1.0:
        raise UndefinedMetricError("every pair is intra-topic; kappa is undefined")
    return (pap - chance) / (1.0 - chance)


def linkage(y: np.ndarray, method: str) -> np.ndarray:
    """scipy's ``linkage(y, method=method)``, unchanged.

    scipy is imported on the first call rather than with this module, so
    only a clustering loads it.  ``_hierarchical`` looks this name up at
    call time, so a wrapper bound over the module attribute sees every call.
    """
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    return scipy_linkage(y, method=method)


def cut_tree(z: np.ndarray, n_clusters: int) -> np.ndarray:
    """Flat labels of a monotone linkage ``z`` cut into ``n_clusters`` groups.

    Reproduces scipy's ``cut_tree(z, n_clusters=k)``, ties included.  scipy
    does not apply the merges in z's row order: it applies them by height,
    and at equal heights in reverse breadth-first order from the root,
    visiting the right child before the left.  The first n - k merges in
    that order form k trees; each leaf takes its tree's root, and the roots
    are relabelled 0, 1, ... by first appearance among the leaves.
    """
    n = z.shape[0] + 1
    children = z[:, :2].astype(np.intp).tolist()
    # breadth-first position of each merge; the queue grows as it is walked
    bfs = [0] * (n - 1)
    queue = [2 * n - 2]
    for pos, node in enumerate(queue):
        bfs[node - n] = pos
        left, right = children[node - n]
        if right >= n:
            queue.append(right)
        if left >= n:
            queue.append(left)
    kept = np.lexsort((np.negative(bfs), z[:, 2]))[: n - n_clusters]
    # a merge's children are ids below its own, so a descending sweep pushes
    # every root down to its leaves
    root = list(range(2 * n - 1))
    for row in sorted(kept.tolist(), reverse=True):
        left, right = children[row]
        root[left] = root[right] = root[n + row]
    _, first, inverse = np.unique(root[:n], return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _hierarchical(x: np.ndarray, k: int, algorithm: str) -> np.ndarray:
    # condensed cosine distances: the pairs i < j in row order; cosine_matrix
    # clips to [-1, 1], so none is negative
    d = 1.0 - cosine_matrix(x)[np.triu_indices(x.shape[1], 1)]
    return cut_tree(linkage(d, method=_LINKAGE[algorithm]), k)


def _spherical_kmeans(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Lloyd iterations with cosine similarity and renormalized centroids.

    Assignment ties go to the lowest cluster index; a cluster left empty is
    reseeded with the point farthest from its previous centroid, the first on
    a tie.  A reseed can empty another cluster, so fewer than k groups may
    come back: columns (1,0), (1,0), (0,1) at k = 3 give [0 0 2].  Stops when
    assignments are stable or after a fixed iteration cap.
    """
    units = linalg.unit_columns(x)
    labels = labels.copy()
    centroids = np.zeros((units.shape[0], k))
    for _ in range(_KMEANS_MAX_ITER):
        for c in range(k):
            members = units[:, labels == c]
            if members.shape[1] == 0:
                continue  # keep the stale centroid for the reseed rule
            mean = members.mean(axis=1)
            norm = np.linalg.norm(mean)
            centroids[:, c] = mean / norm if norm > 0.0 else 0.0
        sims = centroids.T @ units
        new_labels = np.argmax(sims, axis=0).astype(np.intp)
        for c in range(k):
            if not np.any(new_labels == c):
                new_labels[int(np.argmin(sims[c]))] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def cluster(z, k: int, algorithm: str) -> np.ndarray:
    """A label in [0, k) per column: exactly k groups from a linkage, and
    possibly fewer from a k-means variant (see _spherical_kmeans), as when
    the columns point in fewer than k distinct directions."""
    x = linalg.as_matrix(z)
    n = x.shape[1]
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    k = as_integer("k", k, 1, n)
    if k == 1:
        return np.zeros(n, dtype=np.intp)  # every algorithm's one cluster
    if algorithm in _LINKAGE:
        return _hierarchical(x, k, algorithm)
    base = algorithm.removeprefix("kmeans_")
    return _spherical_kmeans(x, _hierarchical(x, k, base), k)


def _index_array(values: np.ndarray, size: int, what: str) -> np.ndarray:
    """``values`` as intp indices; each must be an integer in [0, size)."""
    if values.dtype.kind not in "biuf":
        raise ParameterError(f"{what}s must be integers, got dtype {values.dtype}")
    bad = values[(values < 0) | (values >= size) | (values != np.floor(values))]
    if bad.size:
        raise ParameterError(f"{what} {bad[0]} is not an integer in [0, {size})")
    return values.astype(np.intp)


def contingency_table(
    labels: np.ndarray, topic_index: np.ndarray, n_clusters: int, n_topics: int
) -> np.ndarray:
    labels = np.asarray(labels)
    topic_index = np.asarray(topic_index)
    if labels.shape != topic_index.shape:
        raise DimensionError("labels and topic assignments differ in length")
    rows = _index_array(labels, as_integer("n_clusters", n_clusters, 0), "cluster label")
    cols = _index_array(topic_index, as_integer("n_topics", n_topics, 0), "topic index")
    table = np.zeros((n_clusters, n_topics), dtype=np.int64)
    np.add.at(table, (rows, cols), 1)
    return table


def contingency_score(table) -> float:
    """Fraction of documents in cells that are the strict unique maximum of
    both their row and their column."""
    t = linalg.as_matrix(table, "contingency table")
    if (t < 0).any() or (t != np.round(t)).any():
        raise ParameterError("contingency table must hold counts >= 0")
    with np.errstate(over="ignore"):
        n = t.sum()
    if not math.isfinite(n):
        raise ParameterError("contingency table is too large: its total overflows")
    if n == 0:
        raise UndefinedMetricError("empty contingency table")
    row_max = t == t.max(axis=1, keepdims=True)
    col_max = t == t.max(axis=0, keepdims=True)
    unique = (row_max.sum(axis=1, keepdims=True) == 1) & (col_max.sum(axis=0) == 1)
    return float(t[row_max & col_max & unique & (t != 0)].sum() / n)


@dataclass
class ClusteringOutcome:
    scores: dict[str, float]
    floor: float
    ceiling: float


def floor_ceiling(z, tm: TopicModel) -> ClusteringOutcome:
    """Contingency scores of all six algorithms, each clustering into the
    model's topic count, plus their min and max.

    Requires a single-topic model: documents relevant to several topics have
    no unique true class to count against.
    """
    x = linalg.as_matrix(z)
    if x.shape[1] != tm.n_docs:
        raise DimensionError("representation and topic model differ in doc count")
    positives = (tm.relevance > 0.0).sum(axis=0)
    if (positives != 1).any():
        raise ParameterError("floor_ceiling needs single-topic documents")
    truth, k = np.argmax(tm.relevance, axis=0), tm.n_topics
    scores = {
        name: contingency_score(contingency_table(cluster(x, k, name), truth, k, k))
        for name in ALGORITHMS
    }
    return ClusteringOutcome(
        scores=scores, floor=min(scores.values()), ceiling=max(scores.values())
    )

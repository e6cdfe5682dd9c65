"""Corpora: text processing, term-document matrices, topic models, synthesis.

A term-document matrix holds raw term frequencies with every column scaled to
unit L2 norm; documents whose tokens are all filtered away stay as zero
columns (with a warning) so that column indices keep lining up with doc ids.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg, matrixio
from .errors import DataError, DimensionError, EmptyVocabularyError, ParameterError
from .errors import as_integer, as_real
from .stemming import porter_stem
from .stopwords import DEFAULT_STOPWORDS

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    topics: frozenset[str] = field(default_factory=frozenset)


@dataclass
class TermDocumentMatrix:
    """Terms x documents matrix with unit (or zero) columns."""

    matrix: np.ndarray
    terms: tuple[str, ...]
    doc_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        self.matrix = linalg.as_matrix(self.matrix, "term-document matrix")
        m, n = self.matrix.shape
        if len(self.terms) != m:
            raise DimensionError(f"{len(self.terms)} terms for {m} rows")
        if len(self.doc_ids) != n:
            raise DimensionError(f"{len(self.doc_ids)} doc ids for {n} columns")
        norms = np.linalg.norm(self.matrix, axis=0)
        bad = np.abs(norms - 1.0) > 1e-8
        bad &= norms > 0.0
        if bad.any():
            raise DataError("term-document columns must have unit or zero norm")


@dataclass
class TopicModel:
    """Topics x documents relevance matrix rho with unit columns."""

    relevance: np.ndarray
    topic_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        self.relevance = linalg.as_matrix(self.relevance, "relevance matrix")
        if len(self.topic_ids) != self.relevance.shape[0]:
            raise DimensionError("topic id count does not match relevance rows")
        if (self.relevance < 0.0).any():
            raise DataError("relevance scores must be nonnegative")
        norms = np.linalg.norm(self.relevance, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise DataError("every document needs relevance scores of unit norm")

    @property
    def n_topics(self) -> int:
        return self.relevance.shape[0]

    @property
    def n_docs(self) -> int:
        return self.relevance.shape[1]


def intra_topic_pairs(tm: TopicModel) -> np.ndarray:
    """n_docs x n_docs bool mask of the doc pairs i < j sharing a positive topic."""
    positive = (tm.relevance > 0.0).astype(np.float64)
    return np.triu(positive.T @ positive > 0.0, 1)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop DEFAULT_STOPWORDS, Porter-stem."""
    raw = _TOKEN_SPLIT.split(text.lower())
    return [porter_stem(t) for t in raw if t and t not in DEFAULT_STOPWORDS]


def build_matrix(docs: list[Document]) -> TermDocumentMatrix:
    """Raw term frequencies over the corpus vocabulary, columns L2-normalized."""
    if not docs:
        raise ParameterError("cannot build a matrix from zero documents")
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate document ids")
    token_lists = [tokenize(d.text) for d in docs]
    vocab = sorted({t for tokens in token_lists for t in tokens})
    if not vocab:
        raise EmptyVocabularyError("no terms survive tokenization")
    index = {t: i for i, t in enumerate(vocab)}
    n = len(docs)
    rows = np.array([index[t] for tokens in token_lists for t in tokens], dtype=np.intp)
    cols = np.repeat(np.arange(n), [len(tokens) for tokens in token_lists])
    # integer counts are exact, so this equals adding 1.0 per token
    a = np.bincount(rows * n + cols, minlength=len(vocab) * n)
    a = a.reshape(len(vocab), n).astype(np.float64)
    empty = [doc_id for doc_id, tokens in zip(ids, token_lists) if not tokens]
    if empty:
        warnings.warn(f"documents with no indexed terms kept as zero columns: {empty}")
    return TermDocumentMatrix(matrix=linalg.unit_columns(a), terms=tuple(vocab),
                              doc_ids=tuple(ids))


def topic_model_from_docs(docs: list[Document]) -> TopicModel:
    """Uniform relevance over each document's judged topics."""
    unlabeled = [d.id for d in docs if not d.topics]
    if unlabeled:
        raise DataError(f"documents without topic judgments: {unlabeled}")
    topic_ids = tuple(sorted({t for d in docs for t in d.topics}))
    index = {t: i for i, t in enumerate(topic_ids)}
    rho = np.zeros((len(topic_ids), len(docs)))
    for j, d in enumerate(docs):
        w = 1.0 / np.sqrt(len(d.topics))
        for t in d.topics:
            rho[index[t], j] = w
    return TopicModel(relevance=rho, topic_ids=topic_ids)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic single-topic collection.

    ``distribution`` gives the document count per topic.  Each document is
    ``doc_length`` tokens drawn independently: with probability ``noise_rate``
    a uniform token from the shared vocabulary, otherwise a uniform token from
    the topic's own ``vocab_per_topic`` terms.

    The defaults are calibrated so that at noise_rate 0.3 a rank-2 truncation
    loses the 4-document topic of a (46, 4) split while rescaled extraction
    keeps it; shorter documents degrade both, longer ones degrade neither.
    """

    distribution: tuple[int, ...]
    vocab_per_topic: int = 60
    shared_vocab: int = 150
    doc_length: int = 45
    noise_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        try:
            counts = () if isinstance(self.distribution, str) else tuple(self.distribution)
        except TypeError:  # not iterable
            counts = ()
        if not counts:
            raise ParameterError("distribution must be a nonempty sequence of counts, "
                                 f"got {self.distribution!r}")
        counts = tuple(as_integer("distribution", c, 1) for c in counts)
        object.__setattr__(self, "distribution", counts)
        minima = {"vocab_per_topic": 1, "shared_vocab": 1, "doc_length": 1, "rng_seed": 0}
        for name, low in minima.items():
            object.__setattr__(self, name, as_integer(name, getattr(self, name), low))
        object.__setattr__(self, "noise_rate", as_real("noise_rate", self.noise_rate, 0, 1))


def synthesize_collection(spec: SynthSpec) -> tuple[list[Document], TopicModel]:
    """Deterministic synthetic collection; identical for identical specs.

    Document ids are ``d`` plus the running index, zero-padded to at least
    three digits and to the width of the last index, so that ids sort in
    synthesis order."""
    rng = np.random.default_rng(spec.rng_seed)
    width = max(3, len(str(sum(spec.distribution) - 1)))
    shared_names = [f"sw{w:03d}" for w in range(spec.shared_vocab)]
    docs: list[Document] = []
    for ti, count in enumerate(spec.distribution):
        topics = frozenset({f"t{ti}"})
        # the topic's own terms, then the shared ones at offset vocab_per_topic
        names = [f"t{ti}w{w:03d}" for w in range(spec.vocab_per_topic)] + shared_names
        for _ in range(count):
            noise = rng.random(spec.doc_length) < spec.noise_rate
            primary = rng.integers(0, spec.vocab_per_topic, spec.doc_length)
            shared = rng.integers(0, spec.shared_vocab, spec.doc_length)
            picks = np.where(noise, shared + spec.vocab_per_topic, primary).tolist()
            text = " ".join([names[w] for w in picks])
            docs.append(Document(id=f"d{len(docs):0{width}d}", text=text, topics=topics))
    tm = topic_model_from_docs(docs)
    return docs, tm


def write_corpus_dir(path, docs: list[Document], manifest: dict) -> None:
    """Write one .txt per document plus topics.tsv and manifest.json into the
    new directory ``path``: an existing one raises FileExistsError, and a
    manifest that JSON cannot encode a ParameterError before anything is written."""
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"manifest cannot be written as JSON: {exc}") from exc
    p = Path(path)
    p.mkdir(parents=True)
    for d in docs:
        (p / f"{d.id}.txt").write_text(d.text + "\n", encoding="utf-8")
    lines = [
        f"{d.id}\t{t}\n"
        for d in docs
        for t in sorted(d.topics)
    ]
    (p / "topics.tsv").write_text("".join(lines), encoding="utf-8")
    (p / "manifest.json").write_text(text, encoding="utf-8")


def load_corpus_dir(path) -> list[Document]:
    """Read *.txt documents (id = filename stem) and topics.tsv judgments."""
    p = Path(path)
    if not p.is_dir():
        raise DataError(f"{p} is not a directory")
    txt_files = sorted(p.glob("*.txt"))
    if not txt_files:
        raise DataError(f"no .txt documents in {p}")
    topics: dict[str, set[str]] = {}
    tsv = p / "topics.tsv"
    if tsv.exists():
        for lineno, line in enumerate(matrixio.read_text(tsv).splitlines(), 1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(f"{tsv}:{lineno}: expected 'doc_id<TAB>topic_id'")
            topics.setdefault(parts[0], set()).add(parts[1])
    known = {f.stem for f in txt_files}
    orphans = sorted(set(topics) - known)
    if orphans:
        raise DataError(f"topics.tsv names unknown documents: {orphans}")
    return [
        Document(
            id=f.stem,
            text=matrixio.read_text(f),
            topics=frozenset(topics.get(f.stem, set())),
        )
        for f in txt_files
    ]

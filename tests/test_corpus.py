"""Text pipeline, topic models, synthetic collections, and corpus I/O."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from irrspace import corpus
from irrspace.errors import (
    DataError,
    DimensionError,
    EmptyVocabularyError,
    ParameterError,
)


def test_tokenize_lowercases_splits_and_stems():
    got = corpus.tokenize("The RUNNING dogs, quickly-jumping!")
    assert got == ["run", "dog", "quickli", "jump"]


def test_tokenize_removes_stopwords_before_stemming():
    # "during" stems to "dure"; it must be dropped as a raw stopword first
    assert corpus.tokenize("during the run") == ["run"]


def test_tokenize_keeps_digit_tokens_intact():
    assert corpus.tokenize("t0w003 sw015") == ["t0w003", "sw015"]


def _docs(*texts, topics=None):
    return [
        corpus.Document(
            id=f"d{i}",
            text=t,
            topics=frozenset(topics[i]) if topics else frozenset(),
        )
        for i, t in enumerate(texts)
    ]


def test_build_matrix_hand_computed_counts():
    docs = _docs("cat cat dog", "dog")
    tdm = corpus.build_matrix(docs)
    assert tdm.terms == ("cat", "dog")
    assert tdm.doc_ids == ("d0", "d1")
    expected0 = np.array([2.0, 1.0]) / math.sqrt(5.0)
    assert np.allclose(tdm.matrix[:, 0], expected0, atol=1e-15)
    assert np.allclose(tdm.matrix[:, 1], [0.0, 1.0], atol=1e-15)


def test_build_matrix_columns_are_unit_norm():
    rng = np.random.default_rng(0)
    texts = [" ".join(f"w{rng.integers(0, 30):02d}x" for _ in range(40)) for _ in range(8)]
    tdm = corpus.build_matrix(_docs(*texts))
    assert np.allclose(np.linalg.norm(tdm.matrix, axis=0), 1.0, atol=1e-12)


def test_build_matrix_duplicate_ids_rejected():
    docs = [
        corpus.Document(id="same", text="cat", topics=frozenset()),
        corpus.Document(id="same", text="dog", topics=frozenset()),
    ]
    with pytest.raises(DataError):
        corpus.build_matrix(docs)


def test_build_matrix_all_stopwords_doc_warns_and_keeps_zero_column():
    docs = _docs("cat dog", "the and of")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tdm = corpus.build_matrix(docs)
    assert any("d1" in str(w.message) for w in caught)
    assert np.all(tdm.matrix[:, 1] == 0.0)


def test_build_matrix_empty_vocabulary():
    with pytest.raises(EmptyVocabularyError):
        corpus.build_matrix(_docs("the and", "of in"))


def test_topic_model_single_and_multi_topic():
    docs = _docs("a1 b2", "c3 d4", topics=[{"t0"}, {"t0", "t1"}])
    tm = corpus.topic_model_from_docs(docs)
    assert tm.topic_ids == ("t0", "t1")
    assert np.allclose(tm.relevance[:, 0], [1.0, 0.0])
    assert np.allclose(tm.relevance[:, 1], [1 / math.sqrt(2)] * 2, atol=1e-15)
    assert np.allclose(np.linalg.norm(tm.relevance, axis=0), 1.0)


def test_topic_model_requires_labels_everywhere():
    docs = _docs("a1", "b2", topics=[{"t0"}, set()])
    with pytest.raises(DataError):
        corpus.topic_model_from_docs(docs)


def test_intra_topic_pairs():
    docs = _docs("x1", "y2", "z3", topics=[{"a"}, {"a", "b"}, {"b"}])
    tm = corpus.topic_model_from_docs(docs)
    mask = corpus.intra_topic_pairs(tm)
    assert mask.dtype == bool and mask.shape == (3, 3)
    assert set(zip(*np.nonzero(mask))) == {(0, 1), (1, 2)}


def test_synth_spec_bad_values_are_parameter_errors_naming_the_field():
    for kwargs, field in [
        ({"distribution": ("a",)}, "distribution"),
        ({"distribution": (2.7, 3)}, "distribution"),
        ({"distribution": (5,), "noise_rate": "x"}, "noise_rate"),
        ({"distribution": (5,), "doc_length": 2.5}, "doc_length"),
    ]:
        with pytest.raises(ParameterError, match=field):
            corpus.SynthSpec(**kwargs)
    spec = corpus.SynthSpec(distribution=(np.int64(5), 3), doc_length=np.int32(20))
    assert spec.distribution == (5, 3) and spec.doc_length == 20
    assert all(type(c) is int for c in spec.distribution)


def test_synthesize_collection_counts_and_labels():
    docs, tm = corpus.synthesize_collection(corpus.SynthSpec(distribution=(46, 4)))
    assert len(docs) == 50
    assert sum(1 for d in docs if d.topics == {"t0"}) == 46
    assert sum(1 for d in docs if d.topics == {"t1"}) == 4
    assert tm.n_topics == 2 and tm.n_docs == 50


def test_synthesize_collection_is_deterministic():
    spec = corpus.SynthSpec(distribution=(5, 3), noise_rate=0.3, rng_seed=9)
    docs1, _ = corpus.synthesize_collection(spec)
    docs2, _ = corpus.synthesize_collection(spec)
    assert docs1 == docs2
    docs3, _ = corpus.synthesize_collection(
        corpus.SynthSpec(distribution=(5, 3), noise_rate=0.3, rng_seed=10)
    )
    assert docs1 != docs3


def test_noise_rate_extremes_control_vocabulary():
    pure, _ = corpus.synthesize_collection(
        corpus.SynthSpec(distribution=(4,), noise_rate=0.0, rng_seed=1)
    )
    assert all(tok.startswith("t0w") for d in pure for tok in d.text.split())
    shared, _ = corpus.synthesize_collection(
        corpus.SynthSpec(distribution=(4,), noise_rate=1.0, rng_seed=1)
    )
    assert all(tok.startswith("sw") for d in shared for tok in d.text.split())


def test_corpus_dir_round_trip(tmp_path):
    spec = corpus.SynthSpec(distribution=(3, 2), noise_rate=0.2, rng_seed=4)
    docs, _ = corpus.synthesize_collection(spec)
    corpus.write_corpus_dir(tmp_path / "c", docs, manifest={"rng_seed": 4})
    tsv = tmp_path / "c" / "topics.tsv"
    tsv.write_text("\n" + tsv.read_text() + " \n")  # blank lines are skipped
    loaded = corpus.load_corpus_dir(tmp_path / "c")
    assert [d.id for d in loaded] == [d.id for d in docs]
    assert [d.topics for d in loaded] == [d.topics for d in docs]
    assert [d.text.strip() for d in loaded] == [d.text for d in docs]
    assert (tmp_path / "c" / "manifest.json").exists()


def _circular() -> dict:
    manifest = {}
    manifest["self"] = manifest
    return manifest


@pytest.mark.parametrize("manifest", [{"noise_rate": Fraction(1, 2)}, _circular()],
                         ids=["fraction", "circular"])
def test_manifest_json_cannot_encode_writes_nothing(tmp_path, manifest):
    # the manifest's text is formed before the directory is made
    docs, _ = corpus.synthesize_collection(corpus.SynthSpec((2, 2)))
    with pytest.raises(ParameterError, match="^manifest cannot be written as JSON: "):
        corpus.write_corpus_dir(tmp_path / "c", docs, manifest)
    assert not (tmp_path / "c").exists()


def test_load_corpus_dir_errors(tmp_path):
    with pytest.raises(DataError):
        corpus.load_corpus_dir(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataError):
        corpus.load_corpus_dir(empty)

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "d0.txt").write_text("hello world\n")
    (bad / "topics.tsv").write_text("d0 t0\n")  # spaces, not a tab
    with pytest.raises(DataError, match="topics.tsv:1|expected"):
        corpus.load_corpus_dir(bad)

    orphan = tmp_path / "orphan"
    orphan.mkdir()
    (orphan / "d0.txt").write_text("hello\n")
    (orphan / "topics.tsv").write_text("d9\tt0\n")
    with pytest.raises(DataError, match="unknown"):
        corpus.load_corpus_dir(orphan)


def test_term_document_matrix_validation():
    with pytest.raises(DataError):
        corpus.TermDocumentMatrix(
            matrix=np.array([[2.0], [0.0]]),  # norm 2, not unit
            terms=("a", "b"),
            doc_ids=("d0",),
        )
    with pytest.raises(DimensionError):
        corpus.TermDocumentMatrix(
            matrix=np.eye(2), terms=("a",), doc_ids=("d0", "d1")
        )


def test_topic_model_validation():
    with pytest.raises(DataError):
        corpus.TopicModel(relevance=np.array([[0.5], [0.5]]), topic_ids=("a", "b"))
    with pytest.raises(DataError):
        corpus.TopicModel(relevance=np.array([[-1.0], [0.0]]), topic_ids=("a", "b"))


@pytest.mark.parametrize("spec,digest", [
    (corpus.SynthSpec((46, 4), noise_rate=0.3),
     "52c2c5b999985a9ceadaa06105f3331e9f108ca96d02f7319d5b3c67b32064ae"),
    # the benchmark's w4 corpus at seed 0
    (corpus.SynthSpec((200, 60, 30, 15, 10, 5), vocab_per_topic=120, shared_vocab=400,
                      doc_length=60, noise_rate=0.3),
     "9f59d2b7f25e7cad5838deb3d4272768e013f3155aeb0c37c0a6c05902935b92"),
])
def test_synthesize_collection_is_pinned(spec, digest):
    docs, _ = corpus.synthesize_collection(spec)
    h = hashlib.sha256()
    for d in docs:
        h.update(f"{d.id}\t{d.text}\n".encode())
    assert h.hexdigest() == digest


def test_synth_ids_sort_in_synthesis_order(tmp_path):
    docs, _ = corpus.synthesize_collection(corpus.SynthSpec((600, 401), doc_length=3))
    assert (docs[0].id, docs[-1].id) == ("d0000", "d1000")
    corpus.write_corpus_dir(tmp_path / "c", docs, manifest={})
    loaded = corpus.load_corpus_dir(tmp_path / "c")
    assert [d.id for d in loaded] == [d.id for d in docs]
    assert [d.text.strip() for d in loaded] == [d.text for d in docs]
    small, _ = corpus.synthesize_collection(corpus.SynthSpec((999,), doc_length=1))
    assert (small[0].id, small[-1].id) == ("d000", "d998")


def _counts_oracle(docs):
    """Per-token ``+= 1.0`` counts over the sorted vocabulary, columns unscaled."""
    token_lists = [corpus.tokenize(d.text) for d in docs]
    vocab = sorted({t for tokens in token_lists for t in tokens})
    a = np.zeros((len(vocab), len(docs)))
    for j, tokens in enumerate(token_lists):
        for t in tokens:
            a[vocab.index(t), j] += 1.0
    return vocab, a


def test_build_matrix_matches_per_token_counts():
    docs = _docs(
        "Connections connected connecting; the CONNECTION!",
        "t0w003 t0w003 sw015 42 42 42 route66",
        "the and of in",  # every token a stopword: a zero column
        "running runs ran runner running running",
        "happiness happy happily, and the generalizations",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tdm = corpus.build_matrix(docs)
    assert [str(w.message) for w in caught] == [
        "documents with no indexed terms kept as zero columns: ['d2']"
    ]
    vocab, counts = _counts_oracle(docs)
    assert tdm.terms == tuple(vocab)
    norms = np.linalg.norm(counts, axis=0)
    np.divide(counts, norms, out=counts, where=norms > 0.0)
    assert tdm.matrix.tobytes() == counts.tobytes()
    assert np.all(tdm.matrix[:, 2] == 0.0)

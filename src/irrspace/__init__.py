"""Subspace document representations and their verification toolkit.

Three representations over a unit-column term-document matrix:

* ``vsm``: the identity representation (raw column space);
* ``lsi``: projection onto leading left singular vectors;
* ``irr``: iterated rescaling of document residuals, which re-weights
  minority content before extracting each basis direction.

Plus topic-model diagnostics (dominance, mingling, nonuniformity), a
deviation-minimizing subspace search, numerical verifiers for the bounds
relating all of these, synthetic corpus generation, clustering/ranking
evaluation, and a command line front end (``irrspace``).
"""

from .corpus import (
    Document,
    SynthSpec,
    TermDocumentMatrix,
    TopicModel,
    build_matrix,
    intra_topic_pairs,
    load_corpus_dir,
    synthesize_collection,
    tokenize,
    topic_model_from_docs,
    write_corpus_dir,
)
from .errors import (
    DataError,
    DimensionError,
    EmptyVocabularyError,
    InvalidBasisError,
    InvalidInputError,
    IrrspaceError,
    ParameterError,
    UndefinedMetricError,
)
from .evalmetrics import (
    ALGORITHMS,
    ClusteringOutcome,
    RankedPairs,
    chance_precision,
    cluster,
    contingency_score,
    contingency_table,
    cosine_matrix,
    floor_ceiling,
    kappa_average_precision,
    pairwise_average_precision,
    rank_pairs,
)
from .linalg import (
    CanonicalAngles,
    SvdResult,
    canonical_angles,
    project,
    svd,
)
from .matrixio import (
    load_basis,
    read_matrix_binary,
    read_matrix_csv,
    save_basis,
    write_matrix_binary,
)
from .stemming import porter_stem
from .stopwords import DEFAULT_STOPWORDS
from .subspace import (
    METHODS,
    SubspaceBasis,
    auto_scale,
    dimensionality_by_residual_ratio,
    irr,
    lsi,
    represent,
    rescale,
)
from .theory import (
    IdealInstance,
    OptimumSubspaceResult,
    TheoremRecord,
    TopicStats,
    construct_ideal_instance,
    deviation_error,
    deviation_matrix,
    iter_instance_suite,
    optimum_subspace,
    standard_instance_suite,
    topic_stats,
    verify_cosine_bound,
    verify_dominance_interval,
    verify_sv_perturbation,
    verify_truncation_angle,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "CanonicalAngles",
    "ClusteringOutcome",
    "DEFAULT_STOPWORDS",
    "DataError",
    "DimensionError",
    "Document",
    "EmptyVocabularyError",
    "IdealInstance",
    "InvalidBasisError",
    "InvalidInputError",
    "IrrspaceError",
    "METHODS",
    "OptimumSubspaceResult",
    "ParameterError",
    "RankedPairs",
    "SubspaceBasis",
    "SvdResult",
    "SynthSpec",
    "TermDocumentMatrix",
    "TheoremRecord",
    "TopicModel",
    "TopicStats",
    "UndefinedMetricError",
    "auto_scale",
    "build_matrix",
    "canonical_angles",
    "chance_precision",
    "cluster",
    "construct_ideal_instance",
    "contingency_score",
    "contingency_table",
    "cosine_matrix",
    "deviation_error",
    "deviation_matrix",
    "dimensionality_by_residual_ratio",
    "floor_ceiling",
    "intra_topic_pairs",
    "irr",
    "iter_instance_suite",
    "kappa_average_precision",
    "load_basis",
    "load_corpus_dir",
    "lsi",
    "optimum_subspace",
    "pairwise_average_precision",
    "porter_stem",
    "project",
    "rank_pairs",
    "read_matrix_binary",
    "read_matrix_csv",
    "represent",
    "rescale",
    "save_basis",
    "standard_instance_suite",
    "svd",
    "synthesize_collection",
    "tokenize",
    "topic_model_from_docs",
    "topic_stats",
    "verify_cosine_bound",
    "verify_dominance_interval",
    "verify_sv_perturbation",
    "verify_truncation_angle",
    "write_corpus_dir",
    "write_matrix_binary",
]

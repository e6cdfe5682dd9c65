"""One integer rule for count and seed arguments across the package."""

import numpy as np
import pytest

from irrspace import corpus, evalmetrics, subspace, theory
from irrspace.errors import ParameterError

_TM = corpus.TopicModel(relevance=np.repeat(np.eye(2), 3, axis=1), topic_ids=("a", "b"))
_Z = theory.construct_ideal_instance(_TM, m=8, noise=0.1, seed=0).tdm.matrix

_CALLS = {
    "irr_config_fractional_ell": lambda: subspace.IrrConfig(ell=2.5),
    "irr_config_bool_ell": lambda: subspace.IrrConfig(ell=True),
    "cluster_fractional_k": lambda: evalmetrics.cluster(_Z, 2.5, "single_link"),
    "kmeans_fractional_k": lambda: evalmetrics.cluster(_Z, 2.5, "kmeans_single_link"),
    "cluster_bool_k": lambda: evalmetrics.cluster(_Z, True, "single_link"),
    "floor_ceiling_fractional_k": lambda: evalmetrics.floor_ceiling(_Z, _TM, 2.5),
    "optimum_fractional_h_max": lambda: theory.optimum_subspace(np.eye(6), _Z, 1.5),
    "instance_fractional_m": lambda: theory.construct_ideal_instance(_TM, 2.5, 0.1, 0),
    "instance_negative_seed": lambda: theory.construct_ideal_instance(_TM, 8, 0.1, -1),
    "instance_bool_seed": lambda: theory.construct_ideal_instance(_TM, 8, 0.1, True),
    "suite_fractional_count": lambda: theory.standard_instance_suite(2.5),
    "synth_bool_doc_length": lambda: corpus.SynthSpec(distribution=(3, 3), doc_length=True),
}


@pytest.mark.parametrize("call", _CALLS.values(), ids=_CALLS.keys())
def test_count_arguments_must_be_integers(call):
    with pytest.raises(ParameterError):
        call()

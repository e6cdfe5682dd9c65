"""One rule per argument kind: integers, reals and matrices.

``as_integer`` checks every count and seed, ``as_real`` every real-valued
parameter and ``linalg.as_matrix`` every array.  The tables below feed each
rule bad values through the public entry points; ``_FAULTS`` holds the shape
and data faults, each with its own error.  A key of the form
``<callable>.<parameter>.<case>`` names the argument it covers, and the guard
test at the end asks for one such key per int- or float-annotated parameter of
every public callable.
"""

import inspect
import json
import math
import pickle
import re
import warnings
from collections.abc import Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import irrspace
from irrspace import cli, corpus, evalmetrics, linalg, matrixio, subspace, theory
from irrspace.errors import (DataError, DimensionError, InvalidInputError, IrrspaceError,
                             ParameterError, UndefinedMetricError, as_real)

_TM = corpus.TopicModel(relevance=np.repeat(np.eye(2), 3, axis=1), topic_ids=("a", "b"))
_Z = theory.construct_ideal_instance(_TM, m=8, noise=0.1, seed=0).matrix
_BASIS = np.eye(3)[:, :2]
_LABELS = np.array([0, 1, 1])

_CALLS = {
    "irr_fractional_ell": lambda: subspace.irr(_Z, ell=2.5),
    "irr_bool_ell": lambda: subspace.irr(_Z, ell=True),
    "cluster_fractional_k": lambda: evalmetrics.cluster(_Z, 2.5, "single_link"),
    "kmeans_fractional_k": lambda: evalmetrics.cluster(_Z, 2.5, "kmeans_single_link"),
    "cluster_bool_k": lambda: evalmetrics.cluster(_Z, True, "single_link"),
    "optimum_fractional_h_max": lambda: theory.optimum_subspace(np.eye(6), _Z, 1.5),
    "instance_fractional_m": lambda: theory.construct_ideal_instance(_TM, 2.5, 0.1, 0),
    "instance_negative_seed": lambda: theory.construct_ideal_instance(_TM, 8, 0.1, -1),
    "instance_bool_seed": lambda: theory.construct_ideal_instance(_TM, 8, 0.1, True),
    "suite_fractional_count": lambda: theory.standard_instance_suite(2.5),
    "synth_bool_doc_length": lambda: corpus.SynthSpec(distribution=(3, 3), doc_length=True),
    "synth_bool_noise_rate": lambda: corpus.SynthSpec(distribution=(3, 3), noise_rate=True),
    "suite_bool_seed": lambda: theory.standard_instance_suite(1, seed=True),
    "suite_string_seed": lambda: theory.standard_instance_suite(1, seed="x"),
    "suite_fractional_seed": lambda: theory.standard_instance_suite(1, seed=2.5),
    # a distribution that is not a nonempty sequence, and inputs too small to use
    "SynthSpec.distribution.empty": lambda: corpus.SynthSpec(distribution=()),
    "SynthSpec.distribution.int": lambda: corpus.SynthSpec(distribution=5),
    "SynthSpec.distribution.none": lambda: corpus.SynthSpec(distribution=None),
    "SynthSpec.distribution.text": lambda: corpus.SynthSpec(distribution="46,4"),
    "build_matrix.docs.empty": lambda: corpus.build_matrix([]),
    "rank_pairs.z.one_doc": lambda: evalmetrics.rank_pairs(np.ones((3, 1))),
    "contingency_table.labels.text": lambda: evalmetrics.contingency_table(
        np.array(["a", "b", "b"]), _LABELS, 2, 2),
    "contingency_score.table.fractional": lambda: evalmetrics.contingency_score(
        [[1.5, 0.2], [0.1, 2.7]]),
    "contingency_score.table.negative": lambda: evalmetrics.contingency_score(
        [[-3, 1], [1, 5]]),
    # a basis's ratios must be a list or tuple, and exhausted a bool
    "SubspaceBasis.residual_ratios.bare_none": lambda: subspace.SubspaceBasis(
        _BASIS, "lsi", residual_ratios=None),
    "SubspaceBasis.residual_ratios.bare_number": lambda: subspace.SubspaceBasis(
        _BASIS, "lsi", residual_ratios=5.0),
    "SubspaceBasis.residual_ratios.bare_string": lambda: subspace.SubspaceBasis(
        _BASIS, "lsi", residual_ratios=""),
    "SubspaceBasis.exhausted.number": lambda: subspace.SubspaceBasis(_BASIS, "lsi", exhausted=1),
    "SubspaceBasis.exhausted.string": lambda: subspace.SubspaceBasis(
        _BASIS, "lsi", exhausted="yes"),
    "SubspaceBasis.exhausted.none": lambda: subspace.SubspaceBasis(
        _BASIS, "lsi", exhausted=None),
}

# every count and seed gets each of these, and its out-of-range values below
_BAD_INTEGERS = {
    "bool": True,
    "string": "2",
    "fractional": 2.5,
    "float": 2.0,
    "nan": math.nan,
    "none": None,
}
_INTEGER_CALLS = {
    "irr.ell": lambda v: subspace.irr(_Z, ell=v),
    "lsi.ell": lambda v: subspace.lsi(_Z, ell=v),
    "SynthSpec.distribution": lambda v: corpus.SynthSpec(distribution=(3, v)),
    "SynthSpec.vocab_per_topic": lambda v: corpus.SynthSpec((3, 3), vocab_per_topic=v),
    "SynthSpec.shared_vocab": lambda v: corpus.SynthSpec((3, 3), shared_vocab=v),
    "SynthSpec.doc_length": lambda v: corpus.SynthSpec((3, 3), doc_length=v),
    "SynthSpec.rng_seed": lambda v: corpus.SynthSpec((3, 3), rng_seed=v),
    "cluster.k": lambda v: evalmetrics.cluster(_Z, v, "single_link"),
    "contingency_table.n_clusters": lambda v: evalmetrics.contingency_table(
        _LABELS, _LABELS, v, 2),
    "contingency_table.n_topics": lambda v: evalmetrics.contingency_table(
        _LABELS, _LABELS, 2, v),
    "optimum_subspace.h_max": lambda v: theory.optimum_subspace(np.eye(6), _Z, v),
    "construct_ideal_instance.m": lambda v: theory.construct_ideal_instance(_TM, v, 0.1, 0),
    "construct_ideal_instance.seed": lambda v: theory.construct_ideal_instance(_TM, 8, 0.1, v),
    "standard_instance_suite.count": lambda v: theory.standard_instance_suite(v),
    "standard_instance_suite.seed": lambda v: theory.standard_instance_suite(1, seed=v),
}
# None is a valid ell: it means "stop by theta"
_OPTIONAL_INTEGERS = {"irr.ell", "lsi.ell"}
_INTEGER_OUT_OF_RANGE = {
    "irr.ell": {"zero": 0},
    "lsi.ell": {"zero": 0},
    "SynthSpec.distribution": {"zero": 0},
    "SynthSpec.vocab_per_topic": {"zero": 0},
    "SynthSpec.shared_vocab": {"zero": 0},
    "SynthSpec.doc_length": {"zero": 0},
    "SynthSpec.rng_seed": {"negative": -1},
    "cluster.k": {"zero": 0, "above_n": 7},
    "contingency_table.n_clusters": {"negative": -1},
    "contingency_table.n_topics": {"negative": -1},
    "optimum_subspace.h_max": {"zero": 0},
    "construct_ideal_instance.m": {"below_topics": 1},
    "construct_ideal_instance.seed": {"negative": -1},
    "standard_instance_suite.count": {"zero": 0},
    "standard_instance_suite.seed": {"negative": -1},
}
_INTEGERS = {
    **_CALLS,
    **{
        f"{param}.{case}": (lambda call=call, value=value: call(value))
        for param, call in _INTEGER_CALLS.items()
        for case, value in {**_BAD_INTEGERS, **_INTEGER_OUT_OF_RANGE[param]}.items()
        if not (case == "none" and param in _OPTIONAL_INTEGERS)
    },
}

# every real parameter gets each of these, and its out-of-range values below
_BAD_REALS = {
    "bool": True,
    "string": "1",
    "nan": math.nan,
    "inf": math.inf,
    "minus_inf": -math.inf,
    "huge_int": 10**400,
    "none": None,
}
_REAL_CALLS = {
    "irr.q": lambda v: subspace.irr(_Z, q=v, ell=2),
    "irr.theta": lambda v: subspace.irr(_Z, theta=v),
    "SubspaceBasis.q": lambda v: subspace.SubspaceBasis(_BASIS, "irr", q=v),
    "SubspaceBasis.residual_ratios": lambda v: subspace.SubspaceBasis(
        _BASIS, "irr", residual_ratios=(1.0, 0.5, v)),
    "SynthSpec.noise_rate": lambda v: corpus.SynthSpec((3, 3), noise_rate=v),
    "rescale.q": lambda v: subspace.rescale(_Z, v),
    "lsi.theta": lambda v: subspace.lsi(_Z, theta=v),
    "dimensionality_by_residual_ratio.theta": lambda v: (
        subspace.dimensionality_by_residual_ratio(_Z, v)),
    "dimensionality_by_residual_ratio.q": lambda v: (
        subspace.dimensionality_by_residual_ratio(_Z, 0.5, q=v)),
    "construct_ideal_instance.noise": lambda v: theory.construct_ideal_instance(_TM, 8, v, 0),
    "standard_instance_suite.noise": lambda v: theory.standard_instance_suite(1, noise=v),
}
# None is a valid value of these: it means "not set"
_OPTIONAL = {"irr.q", "SubspaceBasis.q", "dimensionality_by_residual_ratio.q",
             "standard_instance_suite.noise"}
_OUT_OF_RANGE = {
    "irr.q": {"negative": -0.5},
    "irr.theta": {"zero": 0.0, "negative": -1.0},
    "SubspaceBasis.q": {"negative": -1.0},
    "SubspaceBasis.residual_ratios": {"negative": -0.5},
    "SynthSpec.noise_rate": {"negative": -0.1, "above_one": 1.5},
    "rescale.q": {"negative": -1.0},
    "lsi.theta": {"zero": 0.0, "negative": -1.0},
    "dimensionality_by_residual_ratio.theta": {"zero": 0.0},
    "dimensionality_by_residual_ratio.q": {"negative": -2.0},
    "construct_ideal_instance.noise": {"negative": -0.5},
    "standard_instance_suite.noise": {"negative": -0.1},
}
_REALS = {
    f"{param}.{case}": (lambda call=call, value=value: call(value))
    for param, call in _REAL_CALLS.items()
    for case, value in {**_BAD_REALS, **_OUT_OF_RANGE.get(param, {})}.items()
    if not (case == "none" and param in _OPTIONAL)
}

# a valid value of every count and seed, fed as numpy integers; 10**13 times
# the suite's seed stride overflows int64
_VALID_INTEGERS = {
    "irr.ell": (2,),
    "lsi.ell": (2,),
    "SynthSpec.distribution": (3,),
    "SynthSpec.vocab_per_topic": (5,),
    "SynthSpec.shared_vocab": (5,),
    "SynthSpec.doc_length": (5,),
    "SynthSpec.rng_seed": (2, 10**13),
    "cluster.k": (2,),
    "contingency_table.n_clusters": (2,),
    "contingency_table.n_topics": (2,),
    "optimum_subspace.h_max": (2,),
    "construct_ideal_instance.m": (8,),
    "construct_ideal_instance.seed": (2, 10**13),
    "standard_instance_suite.count": (1,),
    "standard_instance_suite.seed": (2, 10**13),
}
_NUMPY_INTEGERS = {"int8": np.int8, "uint64": np.uint64, "int64": np.int64, "array": np.array}
# a valid value of every real parameter, fed as numpy floats
_VALID_REALS = {
    "irr.q": 1.5,
    "irr.theta": 0.5,
    "SubspaceBasis.q": 1.5,
    "SubspaceBasis.residual_ratios": 0.25,
    "SynthSpec.noise_rate": 0.25,
    "rescale.q": 1.5,
    "lsi.theta": 0.5,
    "dimensionality_by_residual_ratio.theta": 0.5,
    "dimensionality_by_residual_ratio.q": 1.5,
    "construct_ideal_instance.noise": 0.1,
    "standard_instance_suite.noise": 0.1,
}
_NUMPY_REALS = {"float16": np.float16, "float32": np.float32, "float64": np.float64}
_NUMPY_VALUES = {
    **{
        f"{param}.{kind}.{value}": (call, make(value))
        for param, call in _INTEGER_CALLS.items()
        for value in _VALID_INTEGERS[param]
        for kind, make in _NUMPY_INTEGERS.items()
        if value <= np.iinfo(make(0).dtype).max
    },
    **{
        f"{param}.{kind}": (call, make(_VALID_REALS[param]))
        for param, call in _REAL_CALLS.items()
        for kind, make in _NUMPY_REALS.items()
    },
}

_MATRICES = {
    "svd.z.string": lambda: linalg.svd([["a", "b"], ["c", "d"]]),
    "svd.z.ragged": lambda: linalg.svd([[1.0, 2.0], [3.0]]),
    "svd.z.complex_list": lambda: linalg.svd([[1j, 0.0], [0.0, 1.0]]),
    "svd.z.complex_array": lambda: linalg.svd(np.eye(2, dtype=complex)),
    "svd.z.huge_int": lambda: linalg.svd([[10**400, 0], [0, 1]]),
    "svd.z.object": lambda: linalg.svd([[object()]]),
    "lsi.z.ragged": lambda: subspace.lsi([[1.0], [1.0, 2.0]], ell=1),
    "irr.z.complex": lambda: subspace.irr(_Z * 1j, ell=1),
    "project.basis.complex": lambda: linalg.project(_BASIS.astype(complex), np.ones((3, 2))),
    "deviation_matrix.basis.empty": lambda: theory.deviation_matrix(
        np.eye(6), _Z, np.zeros((8, 0))),
    "rank_pairs.z.string": lambda: evalmetrics.rank_pairs([["x", "y"]]),
    "contingency_score.table.nan": lambda: evalmetrics.contingency_score([[math.nan, 1]]),
    "contingency_score.table.string": lambda: evalmetrics.contingency_score([["x", 1]]),
    "TermDocumentMatrix.matrix.nan": lambda: corpus.TermDocumentMatrix(
        np.array([[math.nan]]), ("t",), ("d",)),
    "TermDocumentMatrix.matrix.one_d": lambda: corpus.TermDocumentMatrix(
        np.ones(2), ("t",), ("d",)),
    "TopicModel.relevance.nan": lambda: corpus.TopicModel(np.array([[math.nan]]), ("a",)),
    "TopicModel.relevance.inf": lambda: corpus.TopicModel(np.array([[math.inf]]), ("a",)),
    "TopicModel.relevance.one_d": lambda: corpus.TopicModel(np.ones(1), ("a",)),
    "TopicModel.relevance.string": lambda: corpus.TopicModel([["x"]], ("a",)),
}


def _written(name: str, text: str) -> str:
    Path(name).write_text(text, encoding="utf-8")
    return name


# (error, message, call): the shape and data faults, each with its documented
# error; the test runs in an empty working directory
_FAULTS = {
    "_load_config.path.empty_key": (
        DataError, "c.cfg:2: empty key",
        lambda: cli._load_config(_written("c.cfg", "seeds = 0\n = 1\n"))),
    "read_matrix_csv.path.non_numeric": (
        DataError, "m.csv: non-numeric entry",
        lambda: matrixio.read_matrix_csv(_written("m.csv", "1,2\n3,x\n"))),
    "TermDocumentMatrix.doc_ids.count": (
        DimensionError, "1 doc ids for 2 columns",
        lambda: corpus.TermDocumentMatrix(np.eye(2), ("s", "t"), ("d",))),
    "TopicModel.topic_ids.count": (
        DimensionError, "topic id count does not match",
        lambda: corpus.TopicModel(np.eye(2), ("a",))),
    "contingency_table.topic_index.length": (
        DimensionError, "differ in length",
        lambda: evalmetrics.contingency_table(_LABELS, _LABELS[:2], 2, 2)),
    "contingency_score.table.empty": (
        UndefinedMetricError, "empty contingency table",
        lambda: evalmetrics.contingency_score([[0, 0], [0, 0]])),
    "floor_ceiling.z.doc_count": (
        DimensionError, "differ in doc count",
        lambda: evalmetrics.floor_ceiling(_Z[:, :5], _TM)),
    "canonical_angles.b2.rows": (
        DimensionError, "3 vs 4 rows",
        lambda: linalg.canonical_angles(np.eye(3)[:, :2], np.eye(4)[:, :2])),
}

# public classes that only carry results; their fields are not arguments
_RESULT_CONTAINERS = {
    "CanonicalAngles",
    "ClusteringOutcome",
    "IdealInstance",
    "OptimumSubspaceResult",
    "RankedPairs",
    "TheoremRecord",
    "TopicStats",
}


@pytest.mark.parametrize("call", _INTEGERS.values(), ids=_INTEGERS.keys())
def test_count_arguments_must_be_integers(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call", _REALS.values(), ids=_REALS.keys())
def test_real_arguments_must_be_finite_numbers_in_range(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call", _MATRICES.values(), ids=_MATRICES.keys())
def test_matrix_arguments_must_be_real_and_finite(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(("error", "message", "call"), _FAULTS.values(), ids=_FAULTS.keys())
def test_shape_and_data_faults_raise_their_documented_error(error, message, call,
                                                            tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize(("call", "value"), _NUMPY_VALUES.values(), ids=_NUMPY_VALUES.keys())
def test_numpy_values_act_as_their_python_values(call, value):
    def result(v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(v)
            return list(out) if isinstance(out, Iterator) else out

    try:
        got = result(value)
    except IrrspaceError:
        return
    # pickle tells the types apart too, so a numpy scalar stored for an int shows
    assert pickle.dumps(got) == pickle.dumps(result(value.item()))


def test_suite_seed_is_reported_as_given():
    with pytest.raises(ParameterError, match=r"seed must be an integer >= 0, got 2\.5$"):
        theory.standard_instance_suite(1, seed=2.5)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: evalmetrics.cluster(_Z, 7, "single_link"),
         r"^k must be an integer in \[1, 6\], got 7$"),
        (lambda: subspace.lsi(_Z, theta=0), r"^theta must be a finite number > 0, got 0$"),
        (lambda: subspace.irr(_Z, q=True, ell=1),
         r"^q must be a finite number >= 0, got True$"),
        (lambda: corpus.SynthSpec((3,), noise_rate=2),
         r"^noise_rate must be a finite number in \[0, 1\], got 2$"),
        (lambda: as_real("kappa", math.nan), r"^kappa must be a finite number, got nan$"),
        (lambda: corpus.SynthSpec(distribution="46,4"),
         r"^distribution must be a nonempty sequence of counts, got '46,4'$"),
    ],
)
def test_each_rule_has_one_message(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_valid_values_are_stored_as_given():
    # the rules check noise_rate and noise, and do not rebind them, so a
    # synth manifest and a verify record print what the caller gave
    assert type(corpus.SynthSpec((3, 3), noise_rate=0).noise_rate) is int
    assert type(theory.construct_ideal_instance(_TM, 8, 0, 0).noise) is int
    basis = subspace.SubspaceBasis(_BASIS, "lsi", q=0.0, residual_ratios=(1, 0.5, 0))
    assert [type(r) for r in basis.residual_ratios] == [float] * 3
    assert subspace.SubspaceBasis(_BASIS, "lsi", exhausted=np.True_).exhausted is True


def test_numpy_scalars_are_stored_as_python_values(tmp_path):
    # a numpy scalar is stored as its .item(), so the basis and the manifest save as JSON
    basis = subspace.irr(_Z, ell=np.int64(2), q=np.float16(0.5))
    assert (basis.ell, basis.q) == (2, 0.5) and type(basis.q) is float
    matrixio.save_basis(tmp_path / "b.ssm1", basis)
    assert matrixio.load_basis(tmp_path / "b.ssm1").q == 0.5
    assert type(subspace.SubspaceBasis(_BASIS, "irr", q=np.float32(1.5)).q) is float
    spec = corpus.SynthSpec((3, 3), noise_rate=np.float32(0.25))
    assert type(spec.noise_rate) is float
    assert json.loads(json.dumps(asdict(spec)))["noise_rate"] == 0.25


def test_ideal_instance_stores_numpy_scalars_as_python_values():
    # verify names its records by the instance's noise and seed
    inst = theory.construct_ideal_instance(_TM, 8, np.float32(0.1), np.uint16(3))
    assert (type(inst.noise), type(inst.seed)) == (float, int)
    record = theory.verify_dominance_interval(inst)
    record.instance = {"noise": inst.noise, "seed": inst.seed}
    assert json.loads(record.to_json())["instance"] == {"noise": float(np.float32(0.1)),
                                                        "seed": 3}


def test_every_numeric_parameter_has_a_bad_input_case():
    covered = {key.rsplit(".", 1)[0]
               for key in (*_INTEGERS, *_REALS, *_MATRICES, *_FAULTS) if "." in key}
    missing = []
    for name in irrspace.__all__:
        obj = getattr(irrspace, name)
        exception = isinstance(obj, type) and issubclass(obj, Exception)
        if name in _RESULT_CONTAINERS or exception or not callable(obj):
            continue
        for param in inspect.signature(obj).parameters.values():
            numeric = re.search(r"\b(int|float)\b", str(param.annotation))
            if numeric and f"{name}.{param.name}" not in covered:
                missing.append(f"{name}.{param.name}")
    assert not missing, f"no bad-input case for {missing}"

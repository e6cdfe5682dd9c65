"""Binary/CSV matrix serialization and basis persistence."""

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from irrspace import matrixio, subspace
from irrspace.errors import DataError


def test_binary_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((7, 4))
    path = tmp_path / "m.ssm1"
    matrixio.write_matrix_binary(path, z)
    back = matrixio.read_matrix_binary(path)
    assert np.array_equal(back, z)  # bit-exact, not approximate


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ssm1"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        matrixio.read_matrix_binary(path)


def test_binary_rejects_magic_without_header(tmp_path):
    path = tmp_path / "short.ssm1"
    path.write_bytes(b"SSM1")
    with pytest.raises(DataError, match="truncated header"):
        matrixio.read_matrix_binary(path)


def test_binary_rejects_truncated_payload(tmp_path):
    z = np.ones((3, 3))
    path = tmp_path / "trunc.ssm1"
    matrixio.write_matrix_binary(path, z)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        matrixio.read_matrix_binary(path)


def test_binary_rejects_nonfinite_payload(tmp_path):
    payload = np.array([[np.inf, 1.0], [0.0, 1.0]]).tobytes()
    path = tmp_path / "inf.ssm1"
    path.write_bytes(b"SSM1" + struct.pack("<QQ", 2, 2) + payload)
    with pytest.raises(DataError, match=re.escape(f"{path}: matrix has non-finite entries")):
        matrixio.read_matrix_binary(path)


def test_csv_round_trip_with_and_without_header(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 3))
    body = "".join(",".join(map(repr, row)) + "\n" for row in z.tolist())
    bare = tmp_path / "bare.csv"
    bare.write_text(body)
    back, header = matrixio.read_matrix_csv(bare)
    assert header is None
    assert np.array_equal(back, z)  # repr round-trips doubles exactly

    with_h = tmp_path / "withh.csv"
    with_h.write_text("a,b,c\n" + body)
    back2, header2 = matrixio.read_matrix_csv(with_h)
    assert header2 == ["a", "b", "c"]
    assert np.array_equal(back2, z)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    for text in ("1.0,2.0\n3.0\n", "a,b\n1,2\n3,4,5\n", "1\n2\n3,4\n", "a,b,c\n1,2\n3,4\n"):
        path.write_text(text)
        with pytest.raises(DataError, match="rows have differing lengths"):
            matrixio.read_matrix_csv(path)


def test_basis_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    z = rng.standard_normal((10, 6))
    basis = subspace.irr(z, ell=3)
    path = tmp_path / "basis.ssm1"
    matrixio.save_basis(path, basis)
    assert path.with_name(path.name + ".json").exists()
    back = matrixio.load_basis(path)
    assert np.array_equal(back.basis, basis.basis)
    assert back.method == "irr"
    assert back.q == basis.q
    assert back.residual_ratios == basis.residual_ratios


def _rank_two(rng):
    return rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))


# built by each method, with exhausted set and not, and irr with auto q
_SAVED_BASES = {
    "irr_auto_q_exhausted": lambda rng: subspace.irr(_rank_two(rng), ell=4),
    "lsi_exhausted": lambda rng: subspace.lsi(_rank_two(rng), 4),
    "lsi_full": lambda rng: subspace.lsi(rng.standard_normal((10, 6)), 3),
}


@pytest.mark.parametrize("build", _SAVED_BASES.values(), ids=_SAVED_BASES.keys())
def test_basis_round_trip_keeps_every_field(tmp_path, build):
    basis = build(np.random.default_rng(5))
    path = tmp_path / "basis.ssm1"
    matrixio.save_basis(path, basis)
    meta = json.loads(path.with_name(path.name + ".json").read_text())
    fields = [f.name for f in dataclasses.fields(subspace.SubspaceBasis)]
    # a field added to the type but not to the sidecar fails here
    assert set(meta) == {"ell", *fields} - {"basis"}
    back = matrixio.load_basis(path)
    assert np.array_equal(back.basis, basis.basis)
    for name in fields[1:]:
        assert getattr(back, name) == getattr(basis, name), name
    if basis.method == "irr":
        assert basis.exhausted


def test_sidecar_with_the_retired_alpha_and_beta_keys_still_loads(tmp_path):
    # a sidecar of an auto-q irr basis once held the auto-scale constants too
    basis = _SAVED_BASES["irr_auto_q_exhausted"](np.random.default_rng(5))
    path = tmp_path / "basis.ssm1"
    matrixio.save_basis(path, basis)
    sidecar = path.with_name(path.name + ".json")
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "alpha": 3.5, "beta": 0.0}))
    back = matrixio.load_basis(path)
    assert np.array_equal(back.basis, basis.basis)
    assert dataclasses.astuple(back)[1:] == dataclasses.astuple(basis)[1:]


def test_sidecar_without_exhausted_reads_false(tmp_path):
    basis = _SAVED_BASES["lsi_exhausted"](np.random.default_rng(5))
    assert basis.exhausted
    path = tmp_path / "basis.ssm1"
    matrixio.save_basis(path, basis)
    sidecar = path.with_name(path.name + ".json")
    meta = json.loads(sidecar.read_text())
    assert meta.pop("exhausted") is True
    sidecar.write_text(json.dumps(meta))
    assert matrixio.load_basis(path).exhausted is False


def test_load_basis_rejects_tampered_sidecar(tmp_path):
    rng = np.random.default_rng(3)
    basis = subspace.lsi(rng.standard_normal((8, 5)), 2)
    path = tmp_path / "b.ssm1"
    matrixio.save_basis(path, basis)
    sidecar = path.with_name(path.name + ".json")

    meta = json.loads(sidecar.read_text())
    meta["method"] = "bogus"
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(DataError):
        matrixio.load_basis(path)

    meta["method"] = "lsi"
    meta["ell"] = 4  # does not match the stored matrix
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(DataError):
        matrixio.load_basis(path)

    sidecar.unlink()
    with pytest.raises(DataError):
        matrixio.load_basis(path)


_SIDECAR_FAULTS = {
    "array": lambda meta: [meta],
    "string": lambda meta: "lsi",
    "null": lambda meta: None,
    "method_vsm": lambda meta: {**meta, "method": "vsm"},  # vsm builds no basis
    "ratios_string": lambda meta: {**meta, "residual_ratios": "xy"},
    "ratios_of_strings": lambda meta: {**meta, "residual_ratios": ["1", "0.5", "0.1"]},
    "ratios_of_bools": lambda meta: {**meta, "residual_ratios": [True, False, False]},
    "ratios_object": lambda meta: {**meta, "residual_ratios": {"a": 1}},
    "ratios_null": lambda meta: {**meta, "residual_ratios": None},
    "q_list": lambda meta: {**meta, "q": [1]},
    "q_string": lambda meta: {**meta, "q": "0"},
    "q_bool": lambda meta: {**meta, "q": True},
    "q_object": lambda meta: {**meta, "q": {}},
    "ratios_nan": lambda meta: {**meta, "residual_ratios": [math.nan] * 3},
    "q_infinity": lambda meta: {**meta, "q": math.inf},
    "ell_true": lambda meta: {**meta, "ell": True},
    "q_negative": lambda meta: {**meta, "q": -1.0},
    "ratios_negative": lambda meta: {**meta, "residual_ratios": [1.0, 0.5, -0.1]},
    "ratios_too_few": lambda meta: {**meta, "residual_ratios": [1.0, 0.5]},
    "ratios_increasing": lambda meta: {**meta, "residual_ratios": [0.1, 0.5, 1.0]},
    "exhausted_number": lambda meta: {**meta, "exhausted": 1},  # reads as 1.0
    "exhausted_string": lambda meta: {**meta, "exhausted": "yes"},
    "exhausted_null": lambda meta: {**meta, "exhausted": None},
}


@pytest.mark.parametrize("fault", _SIDECAR_FAULTS.values(), ids=_SIDECAR_FAULTS.keys())
def test_load_basis_rejects_malformed_sidecar_values(tmp_path, fault):
    basis = subspace.lsi(np.random.default_rng(4).standard_normal((8, 5)), 2)
    path = tmp_path / "b.ssm1"
    matrixio.save_basis(path, basis)
    sidecar = path.with_name(path.name + ".json")
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(fault(meta)))
    with pytest.raises(DataError):
        matrixio.load_basis(path)


def test_load_basis_rejects_bool_ell_on_a_one_column_basis(tmp_path):
    # JSON true equals 1, so only a type check keeps it out for ell = 1
    basis = subspace.lsi(np.random.default_rng(4).standard_normal((8, 5)), 1)
    path = tmp_path / "b.ssm1"
    matrixio.save_basis(path, basis)
    sidecar = path.with_name(path.name + ".json")
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "ell": True}))
    with pytest.raises(DataError, match="ell"):
        matrixio.load_basis(path)
    sidecar.write_text(json.dumps(meta))
    assert matrixio.load_basis(path).ell == 1

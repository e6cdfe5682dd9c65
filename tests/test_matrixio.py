"""Binary/CSV matrix serialization and basis persistence."""

import json
import math

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


def test_binary_rejects_truncated_payload(tmp_path):
    z = np.ones((3, 3))
    path = tmp_path / "trunc.ssm1"
    matrixio.write_matrix_binary(path, z)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        matrixio.read_matrix_binary(path)


def test_binary_rejects_nonfinite_payload(tmp_path):
    import struct

    payload = np.array([[np.inf, 1.0], [0.0, 1.0]]).tobytes()
    path = tmp_path / "inf.ssm1"
    path.write_bytes(b"SSM1" + struct.pack("<QQ", 2, 2) + payload)
    with pytest.raises(Exception):
        matrixio.read_matrix_binary(path)


def test_csv_round_trip_with_and_without_header(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 3))
    bare = tmp_path / "bare.csv"
    matrixio.write_matrix_csv(bare, z)
    back, header = matrixio.read_matrix_csv(bare)
    assert header is None
    assert np.array_equal(back, z)  # repr round-trips doubles exactly

    with_h = tmp_path / "withh.csv"
    matrixio.write_matrix_csv(with_h, z, header=["a", "b", "c"])
    back2, header2 = matrixio.read_matrix_csv(with_h)
    assert header2 == ["a", "b", "c"]
    assert np.array_equal(back2, z)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    for text in ("1.0,2.0\n3.0\n", "a,b\n1,2\n3,4,5\n", "1\n2\n3,4\n"):
        path.write_text(text)
        with pytest.raises(DataError, match="rows have differing lengths"):
            matrixio.read_matrix_csv(path)


def test_basis_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    z = rng.standard_normal((10, 6))
    basis = subspace.irr(z, subspace.IrrConfig(ell=3))
    path = tmp_path / "basis.ssm1"
    matrixio.save_basis(path, basis)
    assert path.with_name(path.name + ".json").exists()
    back = matrixio.load_basis(path)
    assert np.array_equal(back.basis, basis.basis)
    assert back.method == "irr"
    assert back.q == basis.q
    assert back.residual_ratios == basis.residual_ratios
    assert back.alpha == basis.alpha and back.beta == basis.beta


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
    "ratios_string": lambda meta: {**meta, "residual_ratios": "xy"},
    "ratios_of_strings": lambda meta: {**meta, "residual_ratios": ["1", "0.5", "0.1"]},
    "ratios_of_bools": lambda meta: {**meta, "residual_ratios": [True, False, False]},
    "ratios_object": lambda meta: {**meta, "residual_ratios": {"a": 1}},
    "ratios_null": lambda meta: {**meta, "residual_ratios": None},
    "q_list": lambda meta: {**meta, "q": [1]},
    "q_string": lambda meta: {**meta, "q": "0"},
    "alpha_bool": lambda meta: {**meta, "alpha": True},
    "beta_object": lambda meta: {**meta, "beta": {}},
    "ratios_nan": lambda meta: {**meta, "residual_ratios": [math.nan] * 3},
    "q_infinity": lambda meta: {**meta, "q": math.inf},
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

"""File formats.  Every input text file is read by ``read_text`` (UTF-8, a
leading BOM dropped) and every CSV by ``read_csv`` (rows of one length); a file
they or ``read_matrix_binary`` cannot read is a DataError that names it, as is
a matrix file of no rows or columns or with an entry that is NaN or past the
float range.

Two matrix formats are read, and only the packed one is written:

* CSV, one row per line, with an optional header line of column labels.
* Packed binary: magic ``SSM1``, row and column counts as 64-bit
  little-endian unsigned integers, then float64 little-endian entries in
  row-major order.

A basis saved with save_basis is the binary matrix plus a ``<path>.json``
sidecar holding ``ell`` and every ``SubspaceBasis`` field but the matrix;
load_basis skips other keys, as the ``alpha`` and ``beta`` of older sidecars.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from pathlib import Path

import numpy as np

from . import linalg
from .errors import DataError, InvalidInputError, ParameterError
from .subspace import SubspaceBasis

MAGIC = b"SSM1"


def read_text(path) -> str:
    """The file at ``path`` decoded as UTF-8, without a leading BOM."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_csv(path) -> list[list[str]]:
    """The non-empty rows of the CSV file at ``path``, all of one length."""
    try:
        rows = [r for r in csv.reader(io.StringIO(read_text(path))) if r]
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len({len(r) for r in rows}) > 1:
        raise DataError(f"{path}: rows have differing lengths")
    return rows


def write_matrix_binary(path, z) -> None:
    a = linalg.as_matrix(z)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_matrix_binary(path) -> np.ndarray:
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc
    if blob[:4] != MAGIC:
        raise DataError(f"{p}: bad magic, not a packed matrix file")
    if len(blob) < 20:
        raise DataError(f"{p}: truncated header")
    rows, cols = struct.unpack("<QQ", blob[4:20])
    if rows == 0 or cols == 0:
        raise DataError(f"{p}: empty {rows}x{cols} matrix")
    want = 20 + rows * cols * 8
    if len(blob) != want:
        raise DataError(f"{p}: expected {want} bytes for {rows}x{cols}, got {len(blob)}")
    return _as_matrix(p, np.frombuffer(blob[20:], dtype="<f8").reshape(rows, cols))


def read_matrix_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Read a numeric CSV; a non-numeric first line is taken as the header."""
    rows = read_csv(path)
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    header: list[str] | None = None
    try:
        [float(x) for x in rows[0]]
    except ValueError:
        header, rows = rows[0], rows[1:]
    if not rows:
        raise DataError(f"{path}: header but no data rows")
    try:
        a = np.array([[float(x) for x in r] for r in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric entry: {exc}") from exc
    return _as_matrix(path, a), header


def _as_matrix(path, a) -> np.ndarray:
    """``linalg.as_matrix(a)``, whose error is a DataError naming ``path``."""
    try:
        return linalg.as_matrix(a)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _sidecar(path) -> Path:
    return Path(str(path) + ".json")


# ell and each SubspaceBasis field but the matrix, in the order they are written
_SIDECAR_KEYS = ("method", "q", "ell", "residual_ratios", "exhausted")


def save_basis(path, basis: SubspaceBasis) -> None:
    write_matrix_binary(path, basis.basis)
    meta = {key: getattr(basis, key) for key in _SIDECAR_KEYS}
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_basis(path) -> SubspaceBasis:
    mat = read_matrix_binary(path)
    side = _sidecar(path)
    try:
        # every JSON number as a float, so an int too large for one reads inf
        meta = json.loads(read_text(side), parse_int=float)
    except json.JSONDecodeError as exc:
        raise DataError(f"{side}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{side}: expected a JSON object")
    # type() keeps out JSON true, which equals 1
    if not (type(meta.get("ell")) is float and meta["ell"] == mat.shape[1]):
        raise DataError(f"{side}: ell does not match the stored basis")
    # a missing key takes the field's default: an older sidecar has no exhausted
    fields = {"method": None, **{k: meta[k] for k in _SIDECAR_KEYS if k in meta and k != "ell"}}
    try:
        return SubspaceBasis(basis=mat, **fields)
    except ParameterError as exc:
        raise DataError(f"{side}: {exc}") from exc

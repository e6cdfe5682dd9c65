"""Matrix and basis serialization.

Two matrix formats:

* CSV, one row per line, with an optional header line of column labels.
* Packed binary: magic ``SSM1``, row and column counts as 64-bit
  little-endian unsigned integers, then float64 little-endian entries in
  row-major order.

A basis saved with save_basis is the binary matrix plus a ``<path>.json``
sidecar holding method, q, ell, residual_ratios, alpha and beta.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import linalg
from .errors import DataError
from .subspace import METHODS, SubspaceBasis

MAGIC = b"SSM1"


def write_matrix_binary(path, z) -> None:
    a = linalg.as_matrix(z)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_matrix_binary(path) -> np.ndarray:
    p = Path(path)
    blob = p.read_bytes()
    if blob[:4] != MAGIC:
        raise DataError(f"{p}: bad magic, not a packed matrix file")
    if len(blob) < 20:
        raise DataError(f"{p}: truncated header")
    rows, cols = struct.unpack("<QQ", blob[4:20])
    want = 20 + rows * cols * 8
    if len(blob) != want:
        raise DataError(f"{p}: expected {want} bytes for {rows}x{cols}, got {len(blob)}")
    a = np.frombuffer(blob[20:], dtype="<f8").reshape(rows, cols)
    return linalg.as_matrix(a)


def write_matrix_csv(path, z, header: list[str] | None = None) -> None:
    a = linalg.as_matrix(z)
    if header is not None and len(header) != a.shape[1]:
        raise DataError(f"{len(header)} header labels for {a.shape[1]} columns")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in a:
            writer.writerow([repr(float(x)) for x in row])


def read_matrix_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Read a numeric CSV; a non-numeric first line is taken as the header."""
    p = Path(path)
    with open(p, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DataError(f"{p}: empty matrix file")
    header: list[str] | None = None
    try:
        [float(x) for x in rows[0]]
    except ValueError:
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise DataError(f"{p}: header but no data rows")
    if len({len(r) for r in rows}) > 1:
        raise DataError(f"{p}: rows have differing lengths")
    try:
        a = np.array([[float(x) for x in r] for r in rows])
    except ValueError as exc:
        raise DataError(f"{p}: non-numeric entry: {exc}") from exc
    if header is not None and len(header) != a.shape[1]:
        raise DataError(f"{p}: {len(header)} header labels for {a.shape[1]} columns")
    return linalg.as_matrix(a), header


def _sidecar(path) -> Path:
    return Path(str(path) + ".json")


def save_basis(path, basis: SubspaceBasis) -> None:
    write_matrix_binary(path, basis.basis)
    meta = {
        "method": basis.method,
        "q": basis.q,
        "ell": basis.ell,
        "residual_ratios": list(basis.residual_ratios),
        "alpha": basis.alpha,
        "beta": basis.beta,
    }
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _finite_number(x) -> bool:
    # json reads NaN, Infinity and 1e999 too; type() also keeps out bool
    return type(x) is float and math.isfinite(x)


def load_basis(path) -> SubspaceBasis:
    mat = read_matrix_binary(path)
    side = _sidecar(path)
    try:
        # every JSON number as a float, so an int too large for one reads inf
        meta = json.loads(side.read_text(encoding="utf-8"), parse_int=float)
    except OSError as exc:
        raise DataError(f"missing basis sidecar {side}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{side}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{side}: expected a JSON object")
    method = meta.get("method")
    if method not in METHODS:
        raise DataError(f"{side}: unknown method {method!r}")
    if meta.get("ell") != mat.shape[1]:
        raise DataError(f"{side}: ell does not match the stored basis")
    ratios = meta.get("residual_ratios", [])
    if not isinstance(ratios, list) or not all(map(_finite_number, ratios)):
        raise DataError(f"{side}: residual_ratios must be a list of finite numbers")
    for key in ("q", "alpha", "beta"):
        if meta.get(key) is not None and not _finite_number(meta[key]):
            raise DataError(f"{side}: {key} must be a finite number or null")
    return SubspaceBasis(
        basis=mat,
        method=method,
        q=meta.get("q"),
        residual_ratios=tuple(ratios),
        alpha=meta.get("alpha"),
        beta=meta.get("beta"),
    )

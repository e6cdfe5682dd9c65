"""Dense real matrix kernels: unit columns, SVD, projection, canonical angles.

All functions accept anything ``np.asarray`` can turn into a 2-D float64 array
and validate it first with ``as_matrix``, the package's one array rule, whose
C-ordered result keeps an input's memory layout from moving any result.  The
SVD sign rule: each left singular vector's largest-magnitude entry is positive.
``unit_columns`` is the package's one column normalization, read by
``build_matrix``, ``cosine_matrix`` and spherical k-means, so cosines and the
clusterings built on them are scale-invariant: a column scaled by any power
of two that keeps its nonzero entries normal numbers keeps them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidBasisError,
    InvalidInputError,
    ParameterError,
)

# The one rule for numerical zero: what is left of a matrix counts as zero
# once its Frobenius norm is at most ZERO_RTOL times the whole matrix's.
ZERO_RTOL = 1e-12
ZERO_MATRIX = "input matrix is zero; no directions to extract"

# Orthonormality is validated to this tolerance wherever a basis is consumed.
ORTHO_TOL = 1e-8


def frobenius_norm(a: np.ndarray) -> float:
    """||A||_F; a matrix whose squared norm overflows is refused, since a
    finite ||A||_F^2 keeps every Gram entry finite: |a_i . a_j| <= ||A||_F^2."""
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(a))
    if not math.isfinite(fro):
        raise ParameterError("input matrix is too large: its squared norm overflows")
    return fro


def as_matrix(z, name: str = "matrix") -> np.ndarray:
    """Return ``z`` as a nonempty C-ordered 2-D float64 array with finite entries."""
    try:
        if np.iscomplexobj(z):  # np.asarray would drop the imaginary part
            raise TypeError("complex entries")
        a = np.asarray(z, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{name} must hold real numbers: {exc}") from exc
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise InvalidInputError(f"{name} must have at least one row and column")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def as_similarity(s, a) -> tuple[np.ndarray, np.ndarray]:
    """(S, A) checked for the deviation S - A.T A, each by ``as_matrix`` and
    the too-large rule (``frobenius_norm``); once ||S||_F^2 and ||A||_F^2 are
    finite, no entry of S - A.T A overflows.  S must be n x n, n the columns
    of A, and symmetric by the zero rule: max|S - S.T| <= ZERO_RTOL * max|S|.
    A deviation norm is read off one triangle (eigvalsh), so a non-symmetric S
    would be misread; the tolerance admits a Gram formed by gemm, which can
    differ from its transpose in the last bits."""
    a = as_matrix(a)
    frobenius_norm(a)
    smat = as_matrix(s, "similarity matrix")
    n = a.shape[1]
    if smat.shape != (n, n):
        raise DimensionError(f"similarity matrix must be {n}x{n}, got {smat.shape}")
    frobenius_norm(smat)  # first, so that S - S.T cannot overflow
    skew = float(np.max(np.abs(smat - smat.T)))
    if skew > ZERO_RTOL * float(np.max(np.abs(smat))):
        raise ParameterError(f"similarity matrix is not symmetric: max|S - S.T| = {skew:.3e}")
    return smat, a


def unit_columns(z) -> np.ndarray:
    """Columns scaled to unit norm; zero columns stay zero.

    A column whose largest |entry| has a binary exponent beyond +-400 is first
    scaled by an exact power of two, so its squared norm neither underflows
    nor overflows and its unit column is that of any other scaling of it.
    """
    out = np.array(as_matrix(z))
    exp = np.frexp(np.max(np.abs(out), axis=0))[1]
    far = np.abs(exp) > 400
    if far.any():
        out[:, far] = np.ldexp(out[:, far], -exp[far])
    norms = np.linalg.norm(out, axis=0)
    np.divide(out, norms, out=out, where=norms > 0.0)
    return out


def require_orthonormal(b: np.ndarray, name: str = "basis") -> None:
    """Raise InvalidBasisError unless the columns of ``b`` are orthonormal to ORTHO_TOL."""
    gram = b.T @ b
    dev = float(np.max(np.abs(gram - np.eye(b.shape[1]))))
    if dev > ORTHO_TOL:
        raise InvalidBasisError(
            f"{name} columns are not orthonormal (max Gram deviation {dev:.3e})"
        )


@dataclass(frozen=True)
class SvdResult:
    """Economy decomposition Z = u @ diag(s) @ v.T.

    ``s`` is nonincreasing and zero-padded: all min(rows, cols) values are
    kept, so trailing entries of numerically rank-deficient inputs are ~0.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def tail_energy(self) -> np.ndarray:
        """Squared Frobenius norm left after the first i directions, for
        i = 0 .. len(s).  Summed from the smallest value up, so a tail far
        below sigma_1^2 keeps its digits instead of cancelling."""
        return np.append(np.cumsum(self.s[::-1] ** 2)[::-1], 0.0)

    @property
    def rank(self) -> int:
        """Directions taken before the rest has Frobenius norm
        <= ZERO_RTOL * ||Z||_F: irr's exhaustion test, read off s."""
        tails = self.tail_energy
        return int(np.count_nonzero(tails[:-1] > ZERO_RTOL**2 * tails[0]))


def column_signs(u: np.ndarray) -> np.ndarray:
    """The sign rule: +1 or -1 per column of ``u``, chosen so that the
    column's largest-magnitude entry becomes positive (a zero column gets +1)."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def svd(z) -> SvdResult:
    """Full economy SVD with deterministic signs."""
    a = as_matrix(z)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    signs = column_signs(u)
    return SvdResult(u=u * signs, s=s, v=vt.T * signs)


def project(basis, z) -> np.ndarray:
    """Orthogonal projection of the columns of ``z`` onto span(basis)."""
    b = as_matrix(basis, "basis")
    a = as_matrix(z)
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"basis has {b.shape[0]} rows but matrix has {a.shape[0]}"
        )
    require_orthonormal(b)
    return b @ (b.T @ a)


@dataclass(frozen=True)
class CanonicalAngles:
    """Principal angles between two subspaces, largest first, in [0, pi/2].

    ``tan_norm`` is tan of the largest angle; it is math.inf when that angle
    is pi/2, i.e. when some direction of one subspace is orthogonal to all of
    the other.
    """

    angles: np.ndarray
    tan_norm: float


def canonical_angles(b1, b2) -> CanonicalAngles:
    """Björck-Golub: with B2 the basis of fewer columns, the cosines are the
    singular values of B1^T B2 and the sines those of B2 - B1 (B1^T B2)."""
    m1 = as_matrix(b1, "first basis")
    m2 = as_matrix(b2, "second basis")
    if m1.shape[0] != m2.shape[0]:
        raise DimensionError(
            f"bases live in different spaces: {m1.shape[0]} vs {m2.shape[0]} rows"
        )
    require_orthonormal(m1, "first basis")
    require_orthonormal(m2, "second basis")
    if m1.shape[1] < m2.shape[1]:
        m1, m2 = m2, m1
    cross = m1.T @ m2
    # arccos of the cosines loses angles below ~1e-8, arcsin of the sines
    # loses them near pi/2: take each angle from the form accurate for it
    by_cos = np.arccos(np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0))[::-1]
    sines = np.linalg.svd(m2 - m1 @ cross, compute_uv=False)
    by_sin = np.arcsin(np.clip(sines, 0.0, 1.0))
    angles = np.where(by_sin < math.pi / 4.0, by_sin, by_cos)
    theta_max = float(angles[0])
    half_pi = math.pi / 2.0
    tan_norm = math.inf if theta_max >= half_pi else math.tan(theta_max)
    return CanonicalAngles(angles=angles, tan_norm=tan_norm)

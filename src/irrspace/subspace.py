"""Subspace construction: LSI truncation and iterative residual rescaling.

IRR builds an orthonormal basis one direction at a time.  Before each solve
the current residual columns r_i are rescaled to |r_i|^q r_i; the leading
left singular vector of the rescaled matrix becomes the next basis vector,
and its projection is subtracted from the *unrescaled* residuals.  Amplifying
long residuals (q > 0) pulls the basis toward minority topics that plain
truncated SVD (the q = 0 special case) sacrifices on skewed collections.

Every IRR direction lies in range(A), so for a tall m x n matrix A (m > n)
the loop runs on the n x n core T of A = Q T, the idea of T. F. Chan's R-SVD
("An improved algorithm for computing the singular value decomposition", ACM
TOMS, 1982).  The change of variables is orthogonal, so it is backward
stable and moves the basis only by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ParameterError, as_integer, as_python, as_real

METHODS = ("vsm", "lsi", "irr")
ALPHA, BETA = 3.5, 0.0  # auto_scale's default slope and intercept


def _stopping_rule(ell, theta) -> tuple:
    """``(ell, theta)`` with a numpy scalar as its Python value; exactly one
    must be set, ell an integer >= 1 or theta a finite number > 0."""
    ell, theta = as_python(ell), as_python(theta)
    if (ell is None) == (theta is None):
        raise ParameterError("set exactly one of ell and theta")
    if theta is None:
        as_integer("ell", ell, 1)
    else:
        as_real("theta", theta, 0, open_low=True)
    return ell, theta


@dataclass
class SubspaceBasis:
    """An orthonormal basis plus the bookkeeping of how it was built.

    ``residual_ratios`` holds ||R||_F^2 / n before each extraction and after
    the last one (length ell + 1, nonincreasing).  ``exhausted`` is set when
    the residuals vanished before the stopping rule was met, in which case
    the basis is simply shorter.
    """

    basis: np.ndarray
    method: str
    q: float | None = None
    residual_ratios: tuple[float, ...] = ()
    alpha: float | None = None
    beta: float | None = None
    exhausted: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("lsi", "irr"):
            raise ParameterError("method must be 'lsi' or 'irr'")
        self.basis = linalg.as_matrix(self.basis, "basis")
        linalg.require_orthonormal(self.basis)
        for name, low in (("q", 0), ("alpha", None), ("beta", None)):
            value = as_python(getattr(self, name))
            if value is not None:
                as_real(name, value, low)
            setattr(self, name, value)
        self.exhausted = as_python(self.exhausted)
        if not isinstance(self.exhausted, bool):
            raise ParameterError(f"exhausted must be a bool, got {self.exhausted!r}")
        ratios = self.residual_ratios
        if not isinstance(ratios, (list, tuple)):
            raise ParameterError(f"residual_ratios must be a list or tuple, got {ratios!r}")
        ratios = tuple(as_real("residual_ratios", r, 0) for r in ratios)
        if ratios:
            if len(ratios) != self.ell + 1:
                raise ParameterError("need ell + 1 residual ratios")
            wiggle = 1e-9 * max(1.0, ratios[0])
            if any(b > a + wiggle for a, b in zip(ratios, ratios[1:])):
                raise ParameterError("residual ratios must be nonincreasing")
        self.residual_ratios = ratios

    @property
    def ell(self) -> int:
        return self.basis.shape[1]


def auto_scale(z, alpha: float = ALPHA, beta: float = BETA) -> float:
    """Data-driven rescaling exponent max(0, alpha * f + beta).

    f = (||A^T A||_F / n)^2 estimates topic-dominance non-uniformity from the
    matrix alone; it is invariant under column permutation.  The norm is
    taken on the smaller Gram matrix, since ||A^T A||_F = ||A A^T||_F.  An
    input large enough for f or q to overflow is a ParameterError.
    """
    a = linalg.as_matrix(z)
    alpha, beta = as_real("alpha", alpha), as_real("beta", beta)
    m, n = a.shape
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the Gram
        gram = a @ a.T if m < n else a.T @ a
        f = (float(np.linalg.norm(gram)) / n) ** 2
    q = max(0.0, alpha * f + beta)
    if not (math.isfinite(f) and math.isfinite(q)):
        raise ParameterError("input matrix is too large: the auto_scale estimate overflows")
    return q


def rescale(z, q: float) -> np.ndarray:
    """Scale every column r to |r|^q r.  Zero columns stay zero (0^0 = 1)."""
    a = linalg.as_matrix(z)
    q = as_real("q", q, 0)
    norms = np.linalg.norm(a, axis=0)
    return a * np.power(norms, q)


def _leading_left_vector(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """First left singular vector of the m x n matrix r scaled column-wise by
    w, for m <= n (irr passes the n x n QR core of a tall input).

    Only the top eigenpair of the m x m Gram (r w)(r w)^T is solved, by MRRR
    (LAPACK ``evr``).  A dense symmetric eigen-solve is backward stable, but
    the direction it returns is accurate only to about machine precision
    times lambda_1 / (lambda_1 - lambda_2): when the top two eigenvalues
    nearly coincide, the direction is not determined.

    scipy is imported here, not at module level, so that only irr loads it.
    """
    import scipy.linalg

    m = r.shape[0]
    rw = r * w
    _, vec = scipy.linalg.eigh(rw @ rw.T, subset_by_index=[m - 1, m - 1], driver="evr")
    return vec[:, 0] * linalg.column_signs(vec)


def irr(z, ell: int | None = None, theta: float | None = None, q: float | None = None,
        alpha: float = ALPHA, beta: float = BETA) -> SubspaceBasis:
    """Iterative residual rescaling with exponent ``q``, to ``ell`` directions
    or to residual ratio ``theta`` (exactly one, as in lsi).

    ``q`` None takes it from auto_scale(z, alpha, beta), and the basis records
    alpha and beta.  Numpy scalars are read as their Python values.

    For m > n the loop runs on the QR core T of A = Q T.  Q has orthonormal
    columns, so a residual of T has the column norms and Frobenius norm of
    the matching residual of A, and the zero rule reads the same.  The basis
    is Q Y, with the sign rule (``linalg.column_signs``) applied to its
    columns.  That costs one m x n QR and one m x n x ell product; each step
    works on n x n matrices.  For m <= n the loop runs on A itself.
    """
    ell, theta = _stopping_rule(ell, theta)
    q, alpha, beta = as_python(q), as_python(alpha), as_python(beta)
    if q is not None:
        as_real("q", q, 0)
    as_real("alpha", alpha)
    as_real("beta", beta)
    a = linalg.as_matrix(z)
    m, n = a.shape
    with np.errstate(over="ignore"):
        initial_fro = float(np.linalg.norm(a))
    if not math.isfinite(initial_fro):
        # a finite ||A||_F^2 keeps every Gram entry finite: |r_i . r_j| <= ||A||_F^2
        raise ParameterError("input matrix is too large: its squared norm overflows")
    if q is None:
        q = auto_scale(a, alpha, beta)
    else:
        alpha = beta = None  # recorded only for an auto-scaled q

    # In theta mode a residual that meets the zero rule, ratio 0, ends the
    # loop by this bound at the latest.
    limit = ell if theta is None else min(m, n)

    frame, resid = np.linalg.qr(a) if m > n else (None, a.copy())
    vanish = linalg.ZERO_RTOL * initial_fro
    ratios = [initial_fro**2 / n]
    cols: list[np.ndarray] = []
    exhausted = False
    while len(cols) < limit:
        if ratios[-1] == 0.0:
            exhausted = True
            break
        # The solve only needs the direction, so weight by (|r_i| / top)^q / top:
        # the longest weighted column has norm 1, so no q under- or overflows.
        norms = np.linalg.norm(resid, axis=0)
        top = float(np.max(norms))
        b = _leading_left_vector(resid, np.power(norms / top, q) / top)
        if cols:
            # Deflation leaves roundoff along earlier directions, which
            # dominates b once the residual is tiny; project it out again.
            prev = np.column_stack(cols)
            b -= prev @ (prev.T @ b)
            b /= np.linalg.norm(b)
        resid -= np.outer(b, b @ resid)
        cols.append(b)
        # a residual that meets the zero rule is recorded as ratio 0
        fro = float(np.linalg.norm(resid))
        ratios.append(fro**2 / n if fro > vanish else 0.0)
        if theta is not None and ratios[-1] <= theta:
            break
    if not cols:
        raise ParameterError(linalg.ZERO_MATRIX)
    basis = np.column_stack(cols)
    if frame is not None:
        basis = frame @ basis
        basis *= linalg.column_signs(basis)
    return SubspaceBasis(
        basis=basis,
        method="irr",
        q=float(q),
        residual_ratios=tuple(ratios),
        alpha=alpha,
        beta=beta,
        exhausted=exhausted,
    )


def lsi(z, ell: int | None = None, theta: float | None = None) -> SubspaceBasis:
    """Rank-ell truncated SVD basis: IRR at q = 0, read off one SVD.

    Exactly one of ``ell`` and ``theta`` must be set, as in irr.  With
    ``theta`` the dimensionality is the smallest ell whose residual ratio is
    <= theta.  As in irr, the ratio past the rank (``linalg.ZERO_RTOL``) is 0,
    so theta mode stops at the rank at the latest; an ``ell`` above the rank
    returns the rank's directions with ``exhausted`` set.
    """
    ell, theta = _stopping_rule(ell, theta)
    a = linalg.as_matrix(z)
    res = linalg.svd(a)
    rank = res.rank
    if rank == 0:
        raise ParameterError(linalg.ZERO_MATRIX)
    ratios = res.tail_energy / a.shape[1]
    ratios[rank:] = 0.0
    if theta is not None:
        ell = int(np.argmax(ratios[1:] <= theta)) + 1
    exhausted = ell > rank
    ell = min(ell, rank)
    return SubspaceBasis(
        basis=res.u[:, :ell].copy(),
        method="lsi",
        q=0.0,
        residual_ratios=tuple(ratios[: ell + 1]),
        exhausted=exhausted,
    )


def dimensionality_by_residual_ratio(z, theta: float, q: float | None = None) -> int:
    """Smallest ell whose IRR residual ratio is <= theta.

    At least 1 and at most min(m, n); fewer when the residuals vanish first.
    """
    return irr(z, theta=theta, q=q).ell


def represent(basis: SubspaceBasis, z) -> np.ndarray:
    """Project the columns of ``z`` into the subspace."""
    return linalg.project(basis.basis, z)

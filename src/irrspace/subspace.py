"""Subspace construction: LSI truncation and iterative residual rescaling.

IRR builds an orthonormal basis one direction at a time.  Before each solve
the current residual columns r_i are rescaled to |r_i|^q r_i; the leading
left singular vector of the rescaled matrix becomes the next basis vector,
and its projection is subtracted from the *unrescaled* residuals.  Amplifying
long residuals (q > 0) pulls the basis toward minority topics that plain
truncated SVD (the q = 0 special case) sacrifices on skewed collections.
Without a given q, auto_scale sets it by a rule with no settings, q = ALPHA
* (||A^T A||_F / n)^2.  irr and auto_scale read their input in C order, so
its layout (Fortran order, strides) cannot move the last bits of a result.

Every IRR direction lies in range(A), so for a tall m x n matrix A (m > n)
the loop runs on the n x n factor R of A = Q R, the idea of T. F. Chan's R-SVD
("An improved algorithm for computing the singular value decomposition", ACM
TOMS, 1982).  Q stays in LAPACK's factored form (Householder reflectors) and
is applied once, to the finished basis.  The loop deflates by reflectors too:
after step k the residual's rows are coordinates in the complement of the k
directions so far, so its first k rows are zero and step k solves only on
the r - k live rows (r = min(m, n)).  Both changes of variables are
orthogonal, so they are backward stable and move the basis only by roundoff,
and the basis is orthonormal by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ParameterError, as_integer, as_python, as_real

METHODS = ("vsm", "lsi", "irr")
ALPHA = 3.5  # auto_scale's slope


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
    exhausted: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("lsi", "irr"):
            raise ParameterError("method must be 'lsi' or 'irr'")
        self.basis = linalg.as_matrix(self.basis, "basis")
        linalg.require_orthonormal(self.basis)
        self.q = as_python(self.q)
        if self.q is not None:
            as_real("q", self.q, 0)
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


def auto_scale(z) -> float:
    """Data-driven rescaling exponent q = ALPHA * f (f >= 0, so no clip at 0).

    f = (||A^T A||_F / n)^2 estimates topic-dominance non-uniformity from the
    matrix alone; it is invariant under column permutation.  The norm is
    taken on the smaller Gram matrix, since ||A^T A||_F = ||A A^T||_F.  An
    input large enough for f or q to overflow is a ParameterError.
    """
    a = np.ascontiguousarray(linalg.as_matrix(z))
    m, n = a.shape
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the Gram
        gram = a @ a.T if m < n else a.T @ a
        f = (float(np.linalg.norm(gram)) / n) ** 2
    q = ALPHA * f
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
    """First left singular vector, of either sign, of the k x n matrix r
    scaled column-wise by w; irr passes the k live rows of its residual.

    Only the top eigenpair of the k x k Gram (r w)(r w)^T is solved, by MRRR
    (LAPACK ``dsyevr``) after a (4/3) k^3 reduction to tridiagonal form;
    numpy forms the Gram as a symmetric rank-n update, k^2 n flops.  A dense
    symmetric eigen-solve is backward stable, but the direction it returns is
    accurate only to about machine precision times
    lambda_1 / (lambda_1 - lambda_2): when the top two eigenvalues nearly
    coincide, the direction is not determined.

    scipy is imported here, not at module level, so that only irr loads it.
    """
    from scipy.linalg import lapack

    k = r.shape[0]
    rw = r * w
    lwork, liwork, _ = lapack.dsyevr_lwork(k, lower=1)
    _, vec, _, _, info = lapack.dsyevr(rw @ rw.T, range="I", lower=1, il=k, iu=k,
                                       lwork=int(lwork), liwork=liwork, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return vec[:, 0]


def _apply_reflectors(h: np.ndarray, tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Q c for Q = H_1 H_2 ... H_k, the Householder reflectors H_j = I -
    tau_j v_j v_j^T held LAPACK-style below the diagonal of h (``ormqr``)."""
    from scipy.linalg import lapack

    _, work, _ = lapack.dormqr("L", "N", h, tau, c, -1)
    qc, _, info = lapack.dormqr("L", "N", h, tau, c, int(work[0]), overwrite_c=1)
    if info:
        raise np.linalg.LinAlgError(f"dormqr failed with info {info}")
    return qc


def irr(z, ell: int | None = None, theta: float | None = None,
        q: float | None = None) -> SubspaceBasis:
    """Iterative residual rescaling with exponent ``q``, to ``ell`` directions
    or to residual ratio ``theta`` (exactly one, as in lsi).

    ``q`` None takes it from auto_scale(z).  A numpy scalar reads as its value.

    The loop runs on an r x n residual, r = min(m, n): A itself for m <= n,
    the QR factor R of A = Q R for m > n.  Q has orthonormal columns, so a
    residual of R has the column norms and Frobenius norm of the matching
    residual of A, and the zero rule reads the same.  Step k solves on the
    r - k live rows only: the reflector that maps the new direction u to
    -+e_1 is applied to them, and the leading one, which then holds the
    coefficients along u, is dropped.  That costs (r - k)^2 n + (4/3)(r - k)^3
    flops for the solve and 4 (r - k) n for the deflation.  The basis is formed
    once, by applying the stored reflectors and then Q (kept factored, never
    formed) to I[:, :ell], with the sign rule (``linalg.column_signs``)
    applied to its columns.
    """
    ell, theta = _stopping_rule(ell, theta)
    q = as_python(q)
    if q is not None:
        as_real("q", q, 0)
    a = np.ascontiguousarray(linalg.as_matrix(z))
    m, n = a.shape
    with np.errstate(over="ignore"):
        initial_fro = float(np.linalg.norm(a))
    if not math.isfinite(initial_fro):
        # a finite ||A||_F^2 keeps every Gram entry finite: |r_i . r_j| <= ||A||_F^2
        raise ParameterError("input matrix is too large: its squared norm overflows")
    if q is None:
        q = auto_scale(a)

    import scipy.linalg

    r = min(m, n)
    # In theta mode a residual that meets the zero rule, ratio 0, ends the
    # loop by this bound at the latest.  After r steps no live row is left,
    # so the residual is 0 and k never exceeds r.
    limit = ell if theta is None else r
    if m > n:
        frame, resid = scipy.linalg.qr(a, mode="raw", check_finite=False)
    else:
        frame, resid = None, a.copy()
    vanish = linalg.ZERO_RTOL * initial_fro
    ratios = [initial_fro**2 / n]
    reflectors = np.zeros((r, min(limit, r)), order="F")
    taus = np.zeros(min(limit, r))
    k = 0
    exhausted = False
    while k < limit:
        if ratios[-1] == 0.0:
            exhausted = True
            break
        live = resid[k:]
        # The solve only needs the direction, so weight by (|r_i| / top)^q / top:
        # the longest weighted column has norm 1, so no q under- or overflows.
        norms = np.linalg.norm(live, axis=0)
        top = float(np.max(norms))
        u = _leading_left_vector(live, np.power(norms / top, q) / top)
        # The reflector H = I - tau v v^T (v[0] = 1) maps u to -+e_1.  The
        # first row of H live, the coefficients along u, is the part that
        # deflation drops, so only the rows below it are formed.
        v = u / (u[0] + math.copysign(1.0, u[0]))
        v[0] = 1.0
        taus[k] = 2.0 / (v @ v)
        reflectors[k + 1:, k] = v[1:]
        live[1:] -= np.outer(v[1:], taus[k] * (v @ live))
        k += 1
        # a residual that meets the zero rule is recorded as ratio 0
        fro = float(np.linalg.norm(resid[k:]))
        ratios.append(fro**2 / n if fro > vanish else 0.0)
        if theta is not None and ratios[-1] <= theta:
            break
    if k == 0:
        raise ParameterError(linalg.ZERO_MATRIX)
    basis = _apply_reflectors(reflectors[:, :k], taus[:k], np.eye(r, k, order="F"))
    if frame is not None:
        basis = _apply_reflectors(frame[0], frame[1], np.vstack([basis, np.zeros((m - n, k))]))
    basis *= linalg.column_signs(basis)
    return SubspaceBasis(
        basis=basis,
        method="irr",
        q=float(q),
        residual_ratios=tuple(ratios),
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

"""Subspace construction: LSI truncation and iterative residual rescaling.

IRR builds an orthonormal basis one direction at a time.  Before each solve
the current residual columns r_i are rescaled to |r_i|^q r_i; the leading
left singular vector of the rescaled matrix becomes the next basis vector,
and its projection is subtracted from the *unrescaled* residuals.  Amplifying
long residuals (q > 0) pulls the basis toward minority topics that plain
truncated SVD (the q = 0 special case) sacrifices on skewed collections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import ParameterError, as_integer

METHODS = ("vsm", "lsi", "irr")


def _check_stopping_rule(ell: int | None, theta: float | None) -> None:
    if (ell is None) == (theta is None):
        raise ParameterError("set exactly one of ell and theta")
    if ell is not None and as_integer("ell", ell) < 1:
        raise ParameterError(f"ell must be >= 1, got {ell}")
    if theta is not None and not theta > 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")


@dataclass(frozen=True)
class IrrConfig:
    """IRR run parameters.

    ``q`` is the rescaling exponent; None means choose it from the data via
    auto_scale.  Exactly one of ``ell`` (fixed dimensionality) and ``theta``
    (residual-ratio stopping threshold) must be set.
    """

    q: float | None = None
    ell: int | None = None
    theta: float | None = None
    alpha: float = 3.5
    beta: float = 0.0

    def __post_init__(self) -> None:
        _check_stopping_rule(self.ell, self.theta)
        if self.q is not None and not (math.isfinite(self.q) and self.q >= 0.0):
            raise ParameterError(f"q must be a finite value >= 0, got {self.q}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError("alpha and beta must be finite")


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
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}")
        self.basis = linalg.as_matrix(self.basis, "basis")
        linalg.require_orthonormal(self.basis)
        ratios = tuple(float(r) for r in self.residual_ratios)
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


def auto_scale(z, alpha: float = 3.5, beta: float = 0.0) -> float:
    """Data-driven rescaling exponent max(0, alpha * f + beta).

    f = (||A^T A||_F / n)^2 estimates topic-dominance non-uniformity from the
    matrix alone; it is invariant under column permutation.  The norm is
    taken on the smaller Gram matrix, since ||A^T A||_F = ||A A^T||_F.
    """
    a = linalg.as_matrix(z)
    m, n = a.shape
    gram = a @ a.T if m < n else a.T @ a
    f = (float(np.linalg.norm(gram)) / n) ** 2
    return max(0.0, alpha * f + beta)


def rescale(z, q: float) -> np.ndarray:
    """Scale every column r to |r|^q r.  Zero columns stay zero (0^0 = 1)."""
    a = linalg.as_matrix(z)
    if not (math.isfinite(q) and q >= 0.0):
        raise ParameterError(f"q must be a finite value >= 0, got {q}")
    norms = np.linalg.norm(a, axis=0)
    return a * np.power(norms, q)


def _leading_left_vector(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """First left singular vector of r scaled column-wise by w.

    Only the top eigenpair of the weighted Gram on the smaller side is
    solved, by MRRR (LAPACK ``evr``); for m > n that is the n x n
    diag(w) r^T r diag(w), so the scaled m x n matrix is never formed.  A
    dense symmetric eigen-solve is backward stable, but the direction it
    returns is accurate only to about machine precision times
    lambda_1 / (lambda_1 - lambda_2): when the top two eigenvalues nearly
    coincide, the direction is not determined.
    """
    m, n = r.shape
    if m <= n:
        rw = r * w
        _, vec = scipy.linalg.eigh(rw @ rw.T, subset_by_index=[m - 1, m - 1], driver="evr")
        b = vec[:, 0]
    else:
        g = r.T @ r
        g *= w[:, None]
        g *= w[None, :]
        _, vec = scipy.linalg.eigh(g, subset_by_index=[n - 1, n - 1], driver="evr")
        b = r @ (w * vec[:, 0])
        b /= np.linalg.norm(b)
    i = int(np.argmax(np.abs(b)))
    if b[i] < 0.0:
        b = -b
    return b


def irr(z, config: IrrConfig) -> SubspaceBasis:
    """Iterative residual rescaling under the given configuration."""
    a = linalg.as_matrix(z)
    n = a.shape[1]
    with np.errstate(over="ignore"):
        initial_fro = float(np.linalg.norm(a))
    if not math.isfinite(initial_fro):
        # a finite ||A||_F^2 keeps every Gram entry finite: |r_i . r_j| <= ||A||_F^2
        raise ParameterError("input matrix is too large: its squared norm overflows")
    q = config.q if config.q is not None else auto_scale(a, config.alpha, config.beta)

    # In theta mode a residual that meets the zero rule, ratio 0, ends the
    # loop by this bound at the latest.
    limit = config.ell if config.theta is None else min(a.shape)

    resid = a.copy()
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
        if config.theta is not None and ratios[-1] <= config.theta:
            break
    if not cols:
        raise ParameterError(linalg.ZERO_MATRIX)
    return SubspaceBasis(
        basis=np.column_stack(cols),
        method="irr",
        q=float(q),
        residual_ratios=tuple(ratios),
        alpha=config.alpha if config.q is None else None,
        beta=config.beta if config.q is None else None,
        exhausted=exhausted,
    )


def lsi(z, ell: int | None = None, theta: float | None = None) -> SubspaceBasis:
    """Rank-ell truncated SVD basis: IRR at q = 0, read off one SVD.

    Exactly one of ``ell`` and ``theta`` must be set, as in IrrConfig.  With
    ``theta`` the dimensionality is the smallest ell whose residual ratio is
    <= theta.  As in irr, the ratio past the rank (``linalg.ZERO_RTOL``) is 0,
    so theta mode stops at the rank at the latest; an ``ell`` above the rank
    returns the rank's directions with ``exhausted`` set.
    """
    _check_stopping_rule(ell, theta)
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
    return irr(z, IrrConfig(q=q, theta=theta)).ell


def represent(basis: SubspaceBasis, z) -> np.ndarray:
    """Project the columns of ``z`` into the subspace."""
    return linalg.project(basis.basis, z)

"""Dense linear algebra primitives, checked against a hand-written
cyclic Jacobi eigensolver so the production SVD has an independent oracle."""

import math

import numpy as np
import pytest

from irrspace import linalg, subspace
from irrspace.errors import DimensionError, InvalidBasisError, InvalidInputError


def jacobi_eigh(a, sweeps=60, tol=1e-14):
    """Cyclic Jacobi rotations on a symmetric matrix; independent oracle.

    Returns eigenvalues ascending.  O(n^3) per sweep and written from the
    rotation formulas directly, no library eigensolver involved.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= tol * max(1.0, abs(a).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def oracle_singular_values(z):
    """Singular values via Jacobi on the Gram matrix of the smaller side."""
    z = np.asarray(z, dtype=float)
    gram = z @ z.T if z.shape[0] <= z.shape[1] else z.T @ z
    eigs = np.clip(jacobi_eigh(gram), 0.0, None)
    return np.sqrt(eigs)[::-1]


def test_jacobi_oracle_self_check():
    # the oracle itself must nail a known spectrum before it judges anything
    d = np.diag([5.0, 2.0, -1.0])
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    got = jacobi_eigh(q @ d @ q.T)
    assert np.allclose(got, [-1.0, 2.0, 5.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5), (12, 3)])
def test_svd_singular_values_match_jacobi_oracle(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    z = rng.standard_normal(shape)
    res = linalg.svd(z)
    expected = oracle_singular_values(z)[: len(res.s)]
    assert np.max(np.abs(res.s - expected)) < 1e-10


def test_svd_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((8, 5))
    res = linalg.svd(z)
    assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, z, atol=1e-12)
    assert np.allclose(res.u.T @ res.u, np.eye(5), atol=1e-12)
    assert np.allclose(res.v.T @ res.v, np.eye(5), atol=1e-12)


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((7, 4))
    res1 = linalg.svd(z)
    res2 = linalg.svd(z.copy())
    assert np.array_equal(res1.u, res2.u) and np.array_equal(res1.v, res2.v)
    for j in range(res1.u.shape[1]):
        col = res1.u[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_svd_rank_counts_nonnegligible_values():
    z = np.zeros((4, 3))
    z[0, 0] = 2.0
    z[1, 1] = 1e-16
    assert linalg.svd(z).rank == 1


def test_svd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        linalg.svd(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        linalg.svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        linalg.svd(np.empty((0, 3)))


def test_truncation_beats_every_subset_of_singular_vectors():
    # oracle: enumerate all subsets of singular directions; the leading-ell
    # prefix must give the smallest residual among them
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 5))
    res = linalg.svd(z)
    from itertools import combinations

    for ell in range(1, 5):
        lead = subspace.lsi(z, ell=ell).basis
        best = min(
            np.linalg.norm(z - res.u[:, list(c)] @ (res.u[:, list(c)].T @ z))
            for c in combinations(range(5), ell)
        )
        got = np.linalg.norm(z - lead @ (lead.T @ z))
        assert got <= best + 1e-12
        # residual energy equals the tail of the squared spectrum
        assert got**2 == pytest.approx(float((res.s[ell:] ** 2).sum()), abs=1e-10)


def test_project_is_idempotent_and_leaves_orthogonal_residual():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
    z = rng.standard_normal((9, 6))
    x = linalg.project(q, z)
    assert np.allclose(linalg.project(q, x), x, atol=1e-12)
    assert np.max(np.abs(q.T @ (z - x))) < 1e-12


def test_project_rejects_bad_basis():
    z = np.eye(4)
    with pytest.raises(InvalidBasisError):
        linalg.project(np.ones((4, 2)), z)
    with pytest.raises(DimensionError):
        linalg.project(np.eye(3)[:, :2], z)


def test_canonical_angles_of_constructed_rotation():
    # plane 2 of b2 is plane 2 of b1 rotated by a known angle
    t = 0.3
    b1 = np.eye(5)[:, :2]
    b2 = np.zeros((5, 2))
    b2[0, 0] = 1.0
    b2[1, 1] = math.cos(t)
    b2[2, 1] = math.sin(t)
    got = linalg.canonical_angles(b1, b2)
    assert got.angles[0] == pytest.approx(t, abs=1e-12)
    assert got.angles[1] == pytest.approx(0.0, abs=1e-7)
    assert got.tan_norm == pytest.approx(math.tan(t), abs=1e-12)


def test_canonical_angles_extremes():
    same = linalg.canonical_angles(np.eye(4)[:, :2], np.eye(4)[:, :2])
    assert same.tan_norm == pytest.approx(0.0, abs=1e-7)
    disjoint = linalg.canonical_angles(np.eye(4)[:, :2], np.eye(4)[:, 2:])
    assert math.isinf(disjoint.tan_norm)


def test_canonical_angles_resolve_bases_of_one_span():
    # arccos of cosines within roundoff of 1 cannot see below ~1e-8
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        b1, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        b2, _ = np.linalg.qr(b1 @ rng.standard_normal((5, 5)))
        worst = max(worst, float(linalg.canonical_angles(b1, b2).angles[0]))
    assert worst <= 1e-12


@pytest.mark.parametrize("t", [1e-11, 1e-6, 0.7, 1.2])
def test_canonical_angles_small_and_large_with_unequal_column_counts(t):
    # a 2-D plane against a 3-D space holding its first axis and, at angle t,
    # its second; either argument order gives the two angles of the plane
    plane = np.eye(6)[:, :2]
    space = np.zeros((6, 3))
    space[0, 0] = 1.0
    space[1, 1] = math.cos(t)
    space[2, 1] = math.sin(t)
    space[3, 2] = 1.0
    for got in (linalg.canonical_angles(plane, space), linalg.canonical_angles(space, plane)):
        assert got.angles.shape == (2,)
        assert got.angles[0] == pytest.approx(t, rel=1e-12)
        assert got.angles[1] <= 1e-15
        assert got.tan_norm == pytest.approx(math.tan(t), rel=1e-12)


def test_singular_value_shift_bounded_by_perturbation_norm():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((6, 4))
    e = rng.standard_normal((6, 4)) * 0.1
    s1 = linalg.svd(z).s
    s2 = linalg.svd(z + e).s
    assert np.max(np.abs(s1 - s2)) <= np.linalg.norm(e, 2) + 1e-10
    assert np.linalg.norm(e, 2) <= np.linalg.norm(e) + 1e-10

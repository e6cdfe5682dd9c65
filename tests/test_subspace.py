"""Basis extraction: truncation, rescaled iteration, and scale selection."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irrspace import evalmetrics, linalg, subspace, theory
from irrspace.corpus import TopicModel
from irrspace.errors import InvalidBasisError, IrrspaceError, ParameterError


_STOPPING_RULE_FAULTS = {
    "none": ({}, "set exactly one of ell and theta"),
    "both": ({"ell": 2, "theta": 0.1}, "set exactly one of ell and theta"),
    "ell_zero": ({"ell": 0}, "ell must be an integer >= 1, got 0"),
    "ell_fractional": ({"ell": 2.5}, "ell must be an integer >= 1, got 2.5"),
    "ell_bool": ({"ell": True}, "ell must be an integer >= 1, got True"),
    "theta_zero": ({"theta": 0}, "theta must be a finite number > 0, got 0"),
    "theta_negative": ({"theta": -0.5}, "theta must be a finite number > 0, got -0.5"),
    "theta_inf": ({"theta": math.inf}, "theta must be a finite number > 0, got inf"),
    "theta_nan": ({"theta": math.nan}, "theta must be a finite number > 0, got nan"),
}


@pytest.mark.parametrize("method", [subspace.lsi, subspace.irr], ids=["lsi", "irr"])
@pytest.mark.parametrize(("stop", "message"), _STOPPING_RULE_FAULTS.values(),
                         ids=_STOPPING_RULE_FAULTS.keys())
def test_lsi_and_irr_share_the_stopping_rule(method, stop, message):
    with pytest.raises(ParameterError) as info:
        method(np.eye(3), **stop)
    assert str(info.value) == message


@pytest.mark.parametrize("method", [subspace.lsi, subspace.irr], ids=["lsi", "irr"])
def test_stopping_rule_takes_numpy_scalars(method):
    z = np.random.default_rng(0).standard_normal((8, 6))
    assert method(z, ell=np.int64(2)).ell == method(z, ell=2).ell == 2
    assert method(z, theta=np.float32(0.5)).ell == method(z, theta=float(np.float32(0.5))).ell


def test_auto_scale_hand_computed():
    # two orthonormal docs: ||A^T A||_F = sqrt(2), n = 2, f = 1/2, q = 1.75
    assert subspace.auto_scale(np.eye(2)) == pytest.approx(1.75, abs=1e-15)


def test_auto_scale_grows_with_skew():
    def single_topic(counts):
        cols = []
        for t, c in enumerate(counts):
            e = np.zeros(len(counts))
            e[t] = 1.0
            cols += [e] * c
        return np.array(cols).T

    balanced = subspace.auto_scale(single_topic((25, 25)))
    skewed = subspace.auto_scale(single_topic((46, 4)))
    assert skewed > balanced


def test_auto_scale_invariant_under_column_permutation():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((12, 9))
    perm = rng.permutation(9)
    assert subspace.auto_scale(z) == pytest.approx(
        subspace.auto_scale(z[:, perm]), abs=1e-12
    )


def test_auto_scale_wide_matrix_matches_doc_gram_formula():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((7, 40))
    n = z.shape[1]
    expected = 3.5 * (np.linalg.norm(z.T @ z) / n) ** 2
    assert subspace.auto_scale(z) == pytest.approx(expected, rel=1e-12)


def test_rescale_power_weighting():
    z = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 0.0]])
    out = subspace.rescale(z, 1.0)
    assert np.allclose(out[:, 0], [15.0, 20.0])  # norm 5, scaled by 5^1
    assert np.allclose(out[:, 1], 0.0)
    assert np.allclose(out[:, 2], [1.0, 0.0])
    assert np.array_equal(subspace.rescale(z, 0.0), z)


def test_irr_q0_matches_truncation_projection():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((20, 12))
    for ell in (1, 3, 7):
        b_irr = subspace.irr(z, q=0.0, ell=ell)
        b_lsi = subspace.lsi(z, ell)
        x1 = subspace.represent(b_irr, z)
        x2 = subspace.represent(b_lsi, z)
        assert np.linalg.norm(x1 - x2) < 1e-9


def test_first_vector_maximizes_rescaled_energy():
    # no random unit vector captures more of the rescaled matrix than b_1
    rng = np.random.default_rng(21)
    z = rng.standard_normal((15, 10))
    q = 2.0
    basis = subspace.irr(z, q=q, ell=1).basis
    scaled = z * np.linalg.norm(z, axis=0) ** q
    captured = np.linalg.norm(basis[:, 0] @ scaled)
    for _ in range(1000):
        v = rng.standard_normal(15)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(v @ scaled) <= captured + 1e-10


@pytest.mark.parametrize("shape", [(40, 12), (9, 30), (15, 15)], ids=["tall", "wide", "square"])
def test_leading_left_vector_matches_full_eigh_of_weighted_gram(shape):
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 5:
        r = rng.standard_normal(shape)
        w = rng.uniform(0.0, 2.0, shape[1])
        rw = r * w
        lam, vecs = np.linalg.eigh(rw @ rw.T)
        if (lam[-1] - lam[-2]) / lam[-1] < 1e-2:
            continue
        want = vecs[:, -1]
        got = subspace._leading_left_vector(r, w)
        # the sign is irr's to choose, once, on the finished basis
        assert np.max(np.abs(got * np.sign(got @ want) - want)) <= 1e-12
        checked += 1


def test_extracted_basis_is_orthonormal_and_residuals_shrink():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((18, 9))
    basis = subspace.irr(z, q=1.5, ell=6)
    b = basis.basis
    assert np.max(np.abs(b.T @ b - np.eye(6))) < 1e-10
    ratios = basis.residual_ratios
    assert len(ratios) == 7
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(np.linalg.norm(z) ** 2 / 9, abs=1e-12)


def test_full_rank_extraction_leaves_no_residual():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((6, 4))
    basis = subspace.irr(z, q=3.0, ell=4)
    assert basis.residual_ratios[-1] == pytest.approx(0.0, abs=1e-18)


def test_irr_stops_when_rank_is_exhausted():
    z = np.outer(np.ones(5) / math.sqrt(5), [1.0, 1.0, 1.0])
    basis = subspace.irr(z, q=1.0, ell=3)
    assert basis.exhausted
    assert basis.ell == 1


@pytest.mark.parametrize("tail", [1e-9, 1e-11])
@pytest.mark.parametrize("stop", [{"ell": 3}, {"theta": 1e-40}])
def test_irr_keeps_orthonormal_basis_on_tiny_trailing_direction(tail, stop):
    # the third direction is extracted from a residual about `tail` in size,
    # where deflation roundoff along the first two directions is relatively large
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((40, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    z = u @ np.diag([1.0, 0.5, tail]) @ v.T
    for q in (0.0, 2.0):
        b = subspace.irr(z, q=q, **stop).basis
        assert b.shape[1] == 3
        assert np.max(np.abs(b.T @ b - np.eye(3))) < 1e-10


def test_theta_mode_selects_topic_count_on_exact_instance():
    rho = np.zeros((2, 8))
    rho[0, :5] = 1.0
    rho[1, 5:] = 1.0
    tm = TopicModel(relevance=rho, topic_ids=("t0", "t1"))
    inst = theory.construct_ideal_instance(tm, m=30, noise=0.0, seed=0)
    got = subspace.dimensionality_by_residual_ratio(inst.matrix, theta=0.01, q=0.0)
    assert got == 2


def test_theta_one_still_extracts_one_dimension():
    # unit columns make the initial ratio exactly 1; minimum is one dim
    z = np.eye(3)
    basis = subspace.irr(z, q=0.0, theta=1.0)
    assert basis.ell == 1


def test_irr_auto_records_computed_q():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((10, 6))
    z /= np.linalg.norm(z, axis=0)
    basis = subspace.irr(z, ell=2)
    assert basis.q == pytest.approx(subspace.auto_scale(z), abs=1e-15)


def test_lsi_ratios_match_irr_q0_ratios():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((9, 7))
    b1 = subspace.lsi(z, 4)
    b2 = subspace.irr(z, q=0.0, ell=4)
    assert np.allclose(b1.residual_ratios, b2.residual_ratios, atol=1e-9)
    assert b1.method == "lsi" and b2.method == "irr"
    # theta mode: the ratios read off the singular values pick the same ell
    for theta in (3.0, 1.5, 0.8, 0.3, 0.05, 1e-3):
        b1 = subspace.lsi(z, theta=theta)
        b2 = subspace.irr(z, q=0.0, theta=theta)
        assert b1.ell == b2.ell
        assert b1.residual_ratios[-1] <= theta
        assert np.allclose(b1.residual_ratios, b2.residual_ratios, atol=1e-9)


def test_theta_at_or_above_initial_ratio_gives_one_dimension():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((8, 6))
    initial = np.linalg.norm(z) ** 2 / 6
    for theta in (initial, 2.0 * initial):
        assert subspace.lsi(z, theta=theta).ell == 1
        assert subspace.irr(z, q=0.0, theta=theta).ell == 1


def test_theta_below_reach_stops_at_rank_one():
    z = np.outer(np.arange(1.0, 6.0), [1.0, -2.0, 0.5, 3.0])
    assert subspace.lsi(z, theta=1e-30).ell == 1
    assert subspace.irr(z, q=0.0, theta=1e-30).ell == 1


def test_lsi_zero_matrix_rejected_in_theta_mode():
    with pytest.raises(ParameterError):
        subspace.lsi(np.zeros((3, 3)), theta=0.5)


@pytest.mark.parametrize("q", [1000.0, 2000.0])
def test_irr_large_q_does_not_underflow(q):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((30, 20))
    z /= np.linalg.norm(z, axis=0)
    b = subspace.irr(z, q=q, ell=15).basis
    assert b.shape == (30, 15)
    assert np.isfinite(b).all()
    assert np.max(np.abs(b.T @ b - np.eye(15))) < 1e-10


_RANK_ONE = np.outer(np.ones(4), np.ones(3))


@pytest.mark.parametrize(
    "z, ell, rank",
    [(np.eye(3), 4, 3), (_RANK_ONE, 2, 1), (_RANK_ONE, 9, 1)],
    ids=["full_rank", "rank_one", "rank_one_far"],
)
def test_lsi_beyond_rank_returns_the_rank_exhausted_as_irr_does(z, ell, rank):
    got = subspace.lsi(z, ell)
    ref = subspace.irr(z, q=0.0, ell=ell)
    assert (got.ell, got.exhausted) == (ref.ell, ref.exhausted) == (rank, True)
    assert len(got.residual_ratios) == rank + 1
    assert _sin_largest_angle(got.basis, ref.basis) <= 1e-12


def test_represent_projects_into_span():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((10, 5))
    basis = subspace.lsi(z, 2)
    x = subspace.represent(basis, z)
    assert np.allclose(basis.basis @ (basis.basis.T @ x), x, atol=1e-12)


def test_subspace_basis_validates_orthonormality():
    with pytest.raises(InvalidBasisError):
        subspace.SubspaceBasis(
            basis=np.ones((4, 2)),
            method="lsi",
            q=0.0,
            residual_ratios=(1.0, 0.5, 0.2),
        )


@pytest.mark.parametrize("method", ["vsm", "bogus", None])
def test_subspace_basis_is_built_by_lsi_or_irr_only(method):
    with pytest.raises(ParameterError, match="method must be 'lsi' or 'irr'"):
        subspace.SubspaceBasis(basis=np.eye(3)[:, :2], method=method)


def test_zero_matrix_rejected_in_theta_mode():
    with pytest.raises(ParameterError):
        subspace.irr(np.zeros((3, 3)), q=0.0, theta=0.5)


def _sin_largest_angle(b1, b2):
    """Sine of the largest canonical angle between two spans of equal
    dimension; unlike the arccos of the cosines it is accurate near zero."""
    return float(np.linalg.norm(b2 - b1 @ (b1.T @ b2), 2))


def _least_rescaled_gap(z, basis, q):
    """Least relative gap between the top two eigenvalues of the rescaled
    residual Gram over IRR's steps.  Without a gap a step's direction is not
    determined, so roundoff alone may turn it."""
    gaps = []
    for i in range(basis.shape[1]):
        prev = basis[:, :i]
        resid = z - prev @ (prev.T @ z)
        top = np.max(np.linalg.norm(resid, axis=0))
        scaled = resid / top
        s = np.linalg.svd(scaled * np.linalg.norm(scaled, axis=0) ** q, compute_uv=False)
        lam = np.append(s**2, 0.0)
        gaps.append((lam[0] - lam[1]) / lam[0])
    return min(gaps)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 7),
    n=st.integers(2, 7),
    q=st.one_of(st.just(0.0), st.floats(0.0, 1e4), st.floats(1000.0, 1e4)),
    data=st.data(),
)
def test_irr_properties_over_q(seed, m, n, q, data):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, n)) * rng.uniform(0.1, 2.0, n)
    ell = data.draw(st.integers(1, min(m, n)), label="ell")
    got = subspace.irr(z, q=q, ell=ell)
    b = got.basis
    assert got.ell == ell
    assert np.all(np.isfinite(b))
    assert np.max(np.abs(b.T @ b - np.eye(ell))) <= 1e-10
    ratios = got.residual_ratios
    assert all(y <= x for x, y in zip(ratios, ratios[1:]))

    perm = data.draw(st.permutations(range(n)), label="perm")
    assert subspace.auto_scale(z[:, perm]) == pytest.approx(subspace.auto_scale(z), rel=1e-12)
    assume(_least_rescaled_gap(z, b, q) >= 1e-2)
    permuted = subspace.irr(z[:, perm], q=q, ell=ell)
    assert _sin_largest_angle(b, permuted.basis) <= 1e-8
    if q == 0.0:
        assert _sin_largest_angle(b, subspace.lsi(z, ell=ell).basis) <= 1e-8
    for c in (1e-20, 1e-6, 1e6):
        scaled = subspace.irr(c * z, q=q, ell=ell)
        assert scaled.ell == ell
        assert _sin_largest_angle(b, scaled.basis) <= 1e-8


@pytest.mark.parametrize("q", [1e18, 1e300])
def test_irr_huge_q_takes_the_longest_column_first(q):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((30, 20))
    b = subspace.irr(z, q=q, ell=3).basis
    assert np.max(np.abs(b.T @ b - np.eye(3))) < 1e-12
    longest = z[:, np.argmax(np.linalg.norm(z, axis=0))]
    assert abs(b[:, 0] @ longest) == pytest.approx(np.linalg.norm(longest), rel=1e-12)


def test_irr_tiny_input_is_not_zero():
    z = np.random.default_rng(0).standard_normal((30, 20)) * 1e-20
    assert subspace.irr(z, q=1.0, ell=3).ell == 3
    with pytest.raises(ParameterError, match="zero"):
        subspace.irr(np.zeros((30, 20)), q=1.0, ell=3)


@pytest.mark.parametrize("m", [30, 8])
@pytest.mark.parametrize("q", [0.0, 2.0, None])
def test_irr_input_whose_squared_norm_overflows_is_a_parameter_error(m, q):
    # lsi keeps irr's rule; it has no q
    z = np.random.default_rng(0).standard_normal((m, 20)) * 1e154
    for build in (lambda: subspace.irr(z, q=q, ell=3), lambda: subspace.lsi(z, ell=3),
                  lambda: subspace.lsi(z, theta=0.5)):
        with warnings.catch_warnings(), pytest.raises(ParameterError, match="too large"):
            warnings.simplefilter("error")
            build()


def _planted(m, n, s, seed):
    """An m x n matrix with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    return (u * s) @ v.T


def _lsi_and_irr_at_q0(z, stop):
    got = subspace.lsi(z, **stop)
    ref = subspace.irr(z, q=0.0, **stop)
    assert (got.ell, got.exhausted) == (ref.ell, ref.exhausted)
    r0 = got.residual_ratios[0]
    np.testing.assert_allclose(got.residual_ratios, ref.residual_ratios, rtol=0, atol=1e-9 * r0)
    return got, ref


@pytest.mark.parametrize(
    "stop, want",
    [
        ({"ell": 2}, (2, False)),
        ({"ell": 3}, (3, False)),
        ({"ell": 5}, (3, True)),
        ({"theta": 1e-3}, (2, False)),
        ({"theta": 1e-40}, (3, False)),
    ],
)
def test_lsi_and_irr_keep_a_direction_just_above_the_zero_rule(stop, want):
    # sigma_3 = 1e-11 sigma_1 leaves a tail of ~9e-12 ||Z||_F, above
    # ZERO_RTOL, so both take it; its ratio 3.3e-24 is read without
    # cancelling.  What is left after it meets the zero rule, so both read
    # its ratio as 0 <= theta = 1e-40 and stop there, not exhausted.
    z = _planted(40, 30, np.array([1.0, 0.5, 1e-11]), seed=0)
    got, _ = _lsi_and_irr_at_q0(z, stop)
    assert (got.ell, got.exhausted) == want


@pytest.mark.parametrize("seed", [1, 7])
def test_theta_below_the_roundoff_past_the_rank_is_not_exhaustion(seed):
    # past the rank of a 2 x 6 rank-one matrix, lsi's sigma_2 and irr's
    # residual are roundoff of ~1e-33 relative; read as that, a theta of
    # 1e-34 of the first ratio was met by one and not the other (seed 1: lsi
    # exhausted, irr not; seed 7 the reverse).  Both read it as 0.
    z = _planted(2, 6, np.array([1.0]), seed=seed)
    got, ref = _lsi_and_irr_at_q0(z, {"theta": 1e-34 * np.sum(z**2) / 6})
    assert (got.ell, got.exhausted) == (1, False)
    assert got.residual_ratios[1] == ref.residual_ratios[1] == 0.0


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    n=st.integers(2, 8),
    data=st.data(),
)
def test_lsi_is_irr_at_q0_on_planted_spectra(seed, m, n, data):
    p = min(m, n)
    k = data.draw(st.integers(1, p), label="planted rank")
    exps = data.draw(st.lists(st.floats(0.0, 14.0), min_size=k - 1, max_size=k - 1), label="exps")
    s = np.sort(np.append(1.0, 10.0 ** -np.array(exps)))[::-1]
    z = _planted(m, n, s, seed)
    # what is left after i planted directions, relative to ||Z||_F
    tails = np.sqrt(np.cumsum(s[::-1] ** 2)[::-1] / np.sum(s**2))
    zero = linalg.ZERO_RTOL
    assume(not np.any((tails > zero / 10) & (tails < zero * 10)))
    rank = int(np.count_nonzero(tails > zero))
    if data.draw(st.booleans(), label="theta mode"):
        t = data.draw(st.floats(0.0, 44.0), label="-log10(theta / first ratio)")
        r0 = np.sum(s**2) / n
        theta = r0 * 10.0**-t
        planted = tails[1:] ** 2 * r0
        assume(not np.any((planted > theta / 10) & (planted < theta * 10)))
        stop = {"theta": theta}
    else:
        ell = data.draw(st.integers(1, p + 1), label="ell")
        stop = {"ell": ell}
    got, ref = _lsi_and_irr_at_q0(z, stop)
    if "ell" in stop:
        assert (got.ell, got.exhausted) == (min(ell, rank), ell > rank)
    assume(_least_rescaled_gap(z, ref.basis, 0.0) >= 1e-2)
    # roundoff of ~1e-16 ||Z|| turns a span by ~1e-16 / gap, so a span that
    # ends on a direction far below sigma_1 is fixed by no solver to 1e-8
    gap = s[got.ell - 1] - (s[got.ell] if got.ell < k else 0.0)
    if gap >= 1e-6:
        assert _sin_largest_angle(got.basis, ref.basis) <= 1e-8


@pytest.mark.parametrize(
    "build",
    [
        lambda z: subspace.lsi(z, ell=2),
        lambda z: subspace.lsi(z, theta=0.5),
        lambda z: subspace.irr(z, q=0.0, ell=2),
        lambda z: subspace.irr(z, q=1.0, theta=0.5),
        lambda z: theory.optimum_subspace(np.eye(4), z, 2),
    ],
)
def test_zero_matrix_has_one_message(build):
    with pytest.raises(ParameterError, match="^input matrix is zero; no directions to extract$"):
        build(np.zeros((5, 4)))


def _textbook_irr(z, q, ell=None, theta=None):
    """IRR as the paper states it, in term space: the top left singular
    vector of the whole m x n residual scaled by norms**q, deflated on the
    unrescaled residual, under irr's stopping and zero rules."""
    n = z.shape[1]
    fro0 = np.linalg.norm(z)
    resid = z.copy()
    ratios = [fro0**2 / n]
    cols = []
    exhausted = False
    while len(cols) < (ell if theta is None else min(z.shape)):
        if ratios[-1] == 0.0:
            exhausted = True
            break
        u = np.linalg.svd(resid * np.linalg.norm(resid, axis=0) ** q, full_matrices=False)[0]
        resid = resid - np.outer(u[:, 0], u[:, 0] @ resid)
        cols.append(u[:, 0])
        fro = np.linalg.norm(resid)
        ratios.append(fro**2 / n if fro > linalg.ZERO_RTOL * fro0 else 0.0)
        if theta is not None and ratios[-1] <= theta:
            break
    return np.column_stack(cols), ratios, exhausted


@pytest.mark.parametrize("shape", [(9, 8), (24, 8), (40, 12)], ids=["n+1", "3n", "40x12"])
@pytest.mark.parametrize("q", [0.0, 1.5, None], ids=["q0", "q1.5", "auto"])
@pytest.mark.parametrize("mode", ["ell", "theta"])
def test_irr_on_tall_input_matches_the_term_space_loop(shape, q, mode):
    m, n = shape
    rng = np.random.default_rng(m * n)
    z = rng.standard_normal(shape) * rng.uniform(0.2, 1.0, n) / math.sqrt(m)
    q_used = subspace.auto_scale(z) if q is None else q
    if mode == "ell":
        stops = [{"ell": ell} for ell in (1, n // 2, n, n + 1)]
    else:
        # a theta between two of the loop's ratios, far from both
        _, full, _ = _textbook_irr(z, q_used, ell=n)
        stops = [{"theta": math.sqrt(full[k] * full[k + 1])} for k in (0, n // 2, n - 2)]
    for stop in stops:
        want, want_ratios, want_exhausted = _textbook_irr(z, q_used, **stop)
        got = subspace.irr(z, q=q, **stop)
        assert got.q == q_used
        assert (got.ell, got.exhausted) == (want.shape[1], want_exhausted)
        np.testing.assert_allclose(got.residual_ratios, want_ratios, rtol=1e-12, atol=0.0)
        b = got.basis
        assert np.all(b[np.argmax(np.abs(b), axis=0), np.arange(got.ell)] > 0.0)
        if _least_rescaled_gap(z, want, q_used) >= 1e-2:
            assert _sin_largest_angle(want, b) <= 1e-10


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    extra=st.integers(1, 10),
    q=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    data=st.data(),
)
def test_irr_on_tall_input_rotates_with_the_term_space(seed, n, extra, q, data):
    m = n + extra
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, n)) * rng.uniform(0.1, 2.0, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    ell = data.draw(st.integers(1, n), label="ell")
    b = subspace.irr(z, q=q, ell=ell).basis
    assume(_least_rescaled_gap(z, b, q) >= 1e-2)
    rotated = subspace.irr(u @ z, q=q, ell=ell)
    assert rotated.ell == ell
    assert _sin_largest_angle(u @ b, rotated.basis) <= 1e-8


def _solve_shapes(monkeypatch, z, stop):
    """irr's result on z and the shape of every matrix it solved on."""
    seen = []
    solve = subspace._leading_left_vector

    def spy(r, w):
        seen.append(r.shape)
        return solve(r, w)

    monkeypatch.setattr(subspace, "_leading_left_vector", spy)
    return subspace.irr(z, q=1.0, **stop), seen


@pytest.mark.parametrize("stop", [{"ell": 6}, {"theta": 0.5}])
def test_irr_on_tall_input_solves_only_on_the_qr_core(monkeypatch, stop):
    # step k solves on the n - k live rows of the n x n core
    m, n = 600, 40
    got, seen = _solve_shapes(monkeypatch, np.random.default_rng(5).standard_normal((m, n)), stop)
    assert got.basis.shape == (m, got.ell)
    assert seen == [(n - k, n) for k in range(got.ell)]


@pytest.mark.parametrize("stop", [{"ell": 6}, {"theta": 0.5}])
def test_irr_on_wide_input_solves_only_on_the_live_rows(monkeypatch, stop):
    m, n = 40, 600
    got, seen = _solve_shapes(monkeypatch, np.random.default_rng(5).standard_normal((m, n)), stop)
    assert got.basis.shape == (m, got.ell)
    assert seen == [(m - k, n) for k in range(got.ell)]


def _reference_irr(z, q, ell=None, theta=None):
    """irr's loop before deflation by reflectors: each step solves the full
    r x r weighted Gram of the residual (r = min(m, n), on the QR core for a
    tall input), subtracts the projection on the new direction from the whole
    residual, and projects the direction off the earlier ones again."""
    import scipy.linalg

    m, n = z.shape
    fro0 = np.linalg.norm(z)
    frame, resid = np.linalg.qr(z) if m > n else (None, z.copy())
    ratios = [fro0**2 / n]
    cols = []
    exhausted = False
    while len(cols) < (ell if theta is None else min(m, n)):
        if ratios[-1] == 0.0:
            exhausted = True
            break
        norms = np.linalg.norm(resid, axis=0)
        top = np.max(norms)
        rw = resid * (np.power(norms / top, q) / top)
        k = rw.shape[0]
        b = scipy.linalg.eigh(rw @ rw.T, subset_by_index=[k - 1, k - 1], driver="evr")[1][:, 0]
        if cols:
            prev = np.column_stack(cols)
            b -= prev @ (prev.T @ b)
            b /= np.linalg.norm(b)
        resid -= np.outer(b, b @ resid)
        cols.append(b)
        fro = np.linalg.norm(resid)
        ratios.append(fro**2 / n if fro > linalg.ZERO_RTOL * fro0 else 0.0)
        if theta is not None and ratios[-1] <= theta:
            break
    basis = np.column_stack(cols)
    if frame is not None:
        basis = frame @ basis
    return basis * linalg.column_signs(basis), ratios, exhausted


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["tall", "wide", "square"]),
    small=st.integers(1, 7),
    extra=st.integers(1, 8),
    q=st.one_of(st.just(0.0), st.none(), st.floats(0.0, 1e4)),
    data=st.data(),
)
def test_irr_matches_the_undeflated_reference_loop(seed, shape, small, extra, q, data):
    m, n = {"tall": (small + extra, small), "wide": (small, small + extra),
            "square": (small, small)}[shape]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, n)) * rng.uniform(0.1, 2.0, n)
    if data.draw(st.booleans(), label="theta mode"):
        stop = {"theta": data.draw(st.floats(1e-6, 1.0), label="theta") * np.sum(z**2) / n}
    else:
        stop = {"ell": data.draw(st.integers(1, min(m, n) + 1), label="ell")}
    got = subspace.irr(z, q=q, **stop)
    want, ratios, exhausted = _reference_irr(z, got.q, **stop)
    assert (got.ell, got.exhausted) == (want.shape[1], exhausted)
    assert np.max(np.abs(np.subtract(got.residual_ratios, ratios))) <= 1e-12 * ratios[0]
    b = got.basis
    assert np.all(b[np.argmax(np.abs(b), axis=0), np.arange(got.ell)] > 0.0)
    if _least_rescaled_gap(z, want, got.q) >= 1e-2:
        sines = np.linalg.norm(b - want * np.sum(want * b, axis=0), axis=0)
        assert np.max(sines) <= 1e-12


@pytest.mark.parametrize("shape", [(30, 80), (80, 30)], ids=["wide", "tall"])
def test_irr_basis_stays_orthonormal_to_the_last_direction(shape):
    # the last directions come from residuals near roundoff, where the
    # undeflated loop had to project each one off the earlier ones again
    rng = np.random.default_rng(3)
    full = rng.standard_normal(shape)
    rank3 = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
    for q in (0.0, 1.0, None):
        for z, ell, rank in ((full, min(shape), min(shape)), (rank3, 10, 3)):
            got = subspace.irr(z, q=q, ell=ell)
            assert (got.ell, got.exhausted) == (rank, ell > rank)
            assert np.max(np.abs(got.basis.T @ got.basis - np.eye(rank))) <= 1e-13


@pytest.mark.parametrize("c", [1e76, 1e77, 1e154, 1e300])
def test_auto_scale_that_overflows_is_a_parameter_error(c):
    # ||A^T A||_F^2 of a 30 x 20 Gaussian x 1e76 overflows; q used to be inf.
    # From 1e154 on the Gram itself holds inf - inf, which warned before the
    # check could raise; irr refuses such input before it estimates q
    z = np.random.default_rng(0).standard_normal((30, 20)) * c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="too large"):
            subspace.auto_scale(z)
        with pytest.raises(ParameterError, match="too large"):
            subspace.irr(z, ell=3)
    assert math.isfinite(subspace.auto_scale(z / c * 1e75))


def _read_only(z):
    out = z.copy()
    out.flags.writeable = False
    return out


def _strided(z):
    padded = np.zeros((2 * z.shape[0], 3 * z.shape[1]))
    padded[::2, ::3] = z
    return padded[::2, ::3]


# the values of a matrix in C order, Fortran order, read-only, strided into a
# larger buffer, and with negative strides
_layouts = {"c": np.ascontiguousarray, "fortran": np.asfortranarray, "read_only": _read_only,
            "strided": _strided, "reversed": lambda z: z[::-1, ::-1].copy()[::-1, ::-1]}


def _bits(result):
    """Every bit of a result: arrays by shape and bytes, floats by hex, and
    dataclasses, dicts and tuples item by item."""
    if isinstance(result, np.ndarray):
        return result.shape, result.dtype.str, result.tobytes()
    if isinstance(result, float):
        return result.hex()
    if dataclasses.is_dataclass(result):
        return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, dict):
        return tuple((key, _bits(value)) for key, value in result.items())
    if isinstance(result, tuple):
        return tuple(_bits(value) for value in result)
    return result


def _outcome(call, args):
    """The bits of call(*args), or the type and message of its refusal (one
    document is too few to rank or cluster)."""
    try:
        return _bits(call(*args))
    except IrrspaceError as exc:
        return type(exc), str(exc)


def _instance(rho):
    inst = theory.construct_ideal_instance(TopicModel(rho, ("a", "b")), m=12, noise=0.1, seed=0)
    return inst, inst.svd


# every public function that takes a matrix, as a call on (z, b1, b2, s, rho):
# z is m x n, b1 and b2 are orthonormal with m rows, s is an n x n similarity
# and rho a single-topic relevance (2 x n)
_MATRIX_CALLS = {
    "cosine_matrix": lambda z, b1, b2, s, rho: evalmetrics.cosine_matrix(z),
    "rank_pairs": lambda z, b1, b2, s, rho: evalmetrics.rank_pairs(z),
    **{f"cluster_{name}": lambda z, b1, b2, s, rho, name=name: evalmetrics.cluster(z, 2, name)
       for name in evalmetrics.ALGORITHMS},
    "floor_ceiling": lambda z, b1, b2, s, rho: evalmetrics.floor_ceiling(
        z, TopicModel(rho, ("a", "b"))),
    "svd": lambda z, b1, b2, s, rho: linalg.svd(z),
    "project": lambda z, b1, b2, s, rho: linalg.project(b1, z),
    "canonical_angles": lambda z, b1, b2, s, rho: linalg.canonical_angles(b1, b2),
    "lsi": lambda z, b1, b2, s, rho: subspace.lsi(z, ell=b1.shape[1]),
    "irr_q0": lambda z, b1, b2, s, rho: subspace.irr(z, ell=b1.shape[1], q=0.0),
    "irr_auto": lambda z, b1, b2, s, rho: subspace.irr(z, ell=b1.shape[1]),
    "auto_scale": lambda z, b1, b2, s, rho: subspace.auto_scale(z),
    "deviation_error": lambda z, b1, b2, s, rho: theory.deviation_error(s, z, b1),
    "optimum_subspace": lambda z, b1, b2, s, rho: theory.optimum_subspace(s, z, 2),
    "topic_stats": lambda z, b1, b2, s, rho: theory.topic_stats(TopicModel(rho, ("a", "b"))),
    "construct_ideal_instance": lambda z, b1, b2, s, rho: _instance(rho),
}


@pytest.mark.parametrize("call", _MATRIX_CALLS.values(), ids=_MATRIX_CALLS.keys())
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), small=st.integers(1, 12), extra=st.integers(1, 20),
       data=st.data())
def test_array_layout_cannot_move_a_basis(call, seed, small, extra, data):
    # every matrix argument of a call takes each layout in turn
    rng = np.random.default_rng(seed)
    tall = rng.standard_normal((small + extra, small))
    ell = data.draw(st.integers(1, small), label="ell")
    for z in (tall, tall.T):
        m, n = z.shape
        b1 = np.linalg.qr(rng.standard_normal((m, ell)))[0]
        b2 = np.linalg.qr(rng.standard_normal((m, min(m, ell + 1))))[0]
        rho = np.eye(2)[:, np.arange(n) % 2]
        mixed = rng.random((2, n)) + 0.05
        mixed /= np.linalg.norm(mixed, axis=0)
        args = (z, b1, b2, mixed.T @ mixed, rho)
        results = {name: _outcome(call, map(lay, args)) for name, lay in _layouts.items()}
        assert [name for name, got in results.items() if got != results["c"]] == []

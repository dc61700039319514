import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specprox as sp
from oracles import jacobi_eigenvalues, random_orthogonal


# ---------------------------------------------------------------------------
# ParamVec arithmetic
# ---------------------------------------------------------------------------


def test_axpy_example():
    x = sp.ParamVec([np.array([1.0, 0.0])])
    y = sp.ParamVec([np.array([0.0, 1.0])])
    out = sp.axpy(2.0, x, y)
    np.testing.assert_allclose(out[0], [2.0, 1.0])


def test_dot_norm_identity(rng):
    x = sp.ParamVec([rng.standard_normal(5), rng.standard_normal((3, 2))])
    assert sp.dot(x, x) == pytest.approx(sp.norm2(x) ** 2, rel=1e-14)


def test_norm_of_zero():
    assert sp.norm2(sp.zeros([(4,), (2, 3)])) == 0.0


def test_blockwise_frobenius(rng):
    b1 = rng.standard_normal(6)
    b2 = rng.standard_normal((4, 2))
    x = sp.ParamVec([b1, b2])
    norms = sp.blockwise_frobenius(x)
    assert norms[0] == pytest.approx(np.linalg.norm(b1))
    assert norms[1] == pytest.approx(np.linalg.norm(b2))


def test_conformability_error():
    x = sp.ParamVec([np.zeros(3)])
    y = sp.ParamVec([np.zeros(4)])
    with pytest.raises(sp.ConformabilityError):
        sp.dot(x, y)
    with pytest.raises(sp.ConformabilityError):
        _ = x + y


def test_nonfinite_rejected():
    with pytest.raises(sp.InvalidInputError):
        sp.ParamVec([np.array([1.0, np.nan])])
    with pytest.raises(sp.InvalidInputError):
        sp.ParamVec([np.array([np.inf])])


def test_bad_block_shape_rejected():
    with pytest.raises(sp.InvalidInputError):
        sp.ParamVec([np.zeros((2, 2, 2))])
    with pytest.raises(sp.InvalidInputError):
        sp.ParamVec([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_axpy_matches_numpy(vals, a):
    x = sp.ParamVec([np.array(vals)])
    y = sp.ParamVec([np.arange(len(vals), dtype=float)])
    out = sp.axpy(a, x, y)
    np.testing.assert_allclose(out[0], a * np.array(vals) + np.arange(len(vals)), rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# SVD: examples
# ---------------------------------------------------------------------------


def test_svd_diagonal_sorted():
    res = sp.full_svd(np.diag([2.0, 0.5]))
    np.testing.assert_allclose(res.U, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(res.sigma, [2.0, 0.5])
    np.testing.assert_allclose(res.V, np.eye(2), atol=1e-12)


def test_svd_diagonal_permuted():
    res = sp.full_svd(np.diag([0.5, 2.0]))
    np.testing.assert_allclose(res.sigma, [2.0, 0.5])
    # permutation of the identity columns
    np.testing.assert_allclose(np.abs(res.U), [[0, 1], [1, 0]], atol=1e-12)
    np.testing.assert_allclose(res.reconstruct(), np.diag([0.5, 2.0]), atol=1e-12)


def test_svd_reconstruction_4x3(rng):
    M = rng.standard_normal((4, 3))
    res = sp.full_svd(M)
    err = np.linalg.norm(res.reconstruct() - M) / np.linalg.norm(M)
    assert err <= 1e-9


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (6, 6), (2, 7), (17, 11)])
def test_svd_factor_invariants(shape, rng):
    M = rng.standard_normal(shape)
    res = sp.full_svd(M)
    m, n = shape
    assert res.U.shape == (m, m)
    assert res.V.shape == (n, n)
    assert res.sigma.shape == (min(m, n),)
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(m), atol=1e-10)
    np.testing.assert_allclose(res.V.T @ res.V, np.eye(n), atol=1e-10)
    assert np.all(np.diff(res.sigma) <= 1e-15)
    assert np.all(res.sigma >= 0.0)
    err = np.linalg.norm(res.reconstruct() - M) / max(np.linalg.norm(M), 1e-300)
    assert err <= 1e-9


def test_svd_rank_deficient():
    M = np.zeros((4, 3))
    M[0, 0] = 3.0
    res = sp.full_svd(M)
    np.testing.assert_allclose(res.sigma, [3.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(res.reconstruct(), M, atol=1e-12)
    U_r, s_r, V_r = res.reduced()
    assert s_r.shape == (1,)
    np.testing.assert_allclose((U_r * s_r) @ V_r.T, M, atol=1e-12)


def test_svd_zero_matrix():
    res = sp.full_svd(np.zeros((3, 2)))
    np.testing.assert_allclose(res.sigma, 0.0)
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(3), atol=1e-14)


def test_svd_deterministic(rng):
    M = rng.standard_normal((6, 4))
    r1 = sp.full_svd(M)
    r2 = sp.full_svd(M.copy())
    assert np.array_equal(r1.U, r2.U)
    assert np.array_equal(r1.sigma, r2.sigma)
    assert np.array_equal(r1.V, r2.V)


def test_svd_sign_convention(rng):
    M = rng.standard_normal((5, 4))
    res = sp.full_svd(M)
    for j in range(5):
        col = res.U[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_svd_invalid_inputs():
    with pytest.raises(sp.InvalidInputError):
        sp.full_svd(np.array([1.0, 2.0]))
    with pytest.raises(sp.InvalidInputError):
        sp.full_svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# SVD: independent oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(8, 8), (12, 7), (7, 12), (64, 64), (40, 64)])
def test_singular_values_match_gram_eigenvalues(shape, rng):
    M = rng.standard_normal(shape)
    sigma = sp.full_svd(M).sigma
    gram = M.T @ M if shape[0] >= shape[1] else M @ M.T
    eig = jacobi_eigenvalues(gram)
    np.testing.assert_allclose(sigma, np.sqrt(np.clip(eig, 0.0, None)), atol=1e-8)


def test_sigma_orthogonal_invariance(rng):
    M = rng.standard_normal((6, 5))
    q1 = random_orthogonal(6, rng)
    q2 = random_orthogonal(5, rng)
    s1 = sp.full_svd(M).sigma
    s2 = sp.full_svd(q1 @ M @ q2).sigma
    np.testing.assert_allclose(s1, s2, atol=1e-8)


def test_singular_values_batch_matches_single(rng):
    # sigma of a matrix must not depend on the stack it is in: bit for bit,
    # even when the other matrices of the stack live at other scales.
    for shape in ((6, 4), (3, 11), (9, 1)):
        stack = rng.standard_normal((20,) + shape) * np.logspace(-300, 300, 20)[:, None, None]
        batch = sp.singular_values_batch(stack)
        for i in range(20):
            assert np.array_equal(batch[i], sp.full_svd(stack[i]).sigma)


# ---------------------------------------------------------------------------
# SVD: extreme scales and degenerate spectra against LAPACK
# ---------------------------------------------------------------------------

EXTREME_SCALES = [1e-300, 1e-200, 1e-160, 1e150, 1e160, 1e300]


def _unit_scale_inputs():
    rng = np.random.default_rng(2024)
    dup = rng.standard_normal((5, 4))
    dup[:, 3] = dup[:, 0]
    return {
        "random": rng.standard_normal((5, 4)),
        "rank-deficient": dup,
        # Q1 I_3 Q2: sigma = (1, 1, 1, 0), and the columns are not orthogonal.
        "repeated-sigma": random_orthogonal(5, rng)[:, :3] @ random_orthogonal(4, rng)[:3],
    }


def _assert_matches_lapack(A, tol=1e-13):
    """sigma, reconstruction and orthogonality of full_svd(A), relative to ||A||_2."""
    ref = np.linalg.svd(A, compute_uv=False)
    smax = ref[0]
    res = sp.full_svd(A)
    np.testing.assert_allclose(res.sigma / smax, ref / smax, rtol=0.0, atol=tol)
    q = ref.size
    rec = (res.U[:, :q] * (res.sigma / smax)) @ res.V[:, :q].T
    np.testing.assert_allclose(rec, A / smax, rtol=0.0, atol=tol)
    # Columns count as orthogonal at a relative Gram entry of 1e-12, so that
    # is the order the factors are orthogonal to.
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(A.shape[0]), rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(res.V.T @ res.V, np.eye(A.shape[1]), rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("scale", EXTREME_SCALES)
@pytest.mark.parametrize("kind", ["random", "rank-deficient", "repeated-sigma"])
def test_full_svd_matches_lapack_at_extreme_scales(kind, scale):
    _assert_matches_lapack(_unit_scale_inputs()[kind] * scale)


def test_full_svd_matches_lapack_near_overflow():
    A = _unit_scale_inputs()["random"]
    A = A / np.abs(A).max() * 4e307
    assert np.abs(A).max() >= 1e307
    _assert_matches_lapack(A)
    _assert_matches_lapack(A.T)


def test_singular_values_batch_mixed_scales_match_lapack():
    inputs = _unit_scale_inputs()
    stack = np.stack([A * scale for A in inputs.values() for scale in EXTREME_SCALES + [1.0]])
    big = inputs["random"] / np.abs(inputs["random"]).max() * 4e307
    stack = np.concatenate([stack, big[None]])
    batch = sp.singular_values_batch(stack)
    for A, sigma in zip(stack, batch):
        ref = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(sigma / ref[0], ref / ref[0], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_rounds_are_disjoint_and_cover_every_pair(n):
    from specprox.tensor import _round_robin

    seen = []
    for rows, k in _round_robin(n):
        p, q = rows[:k], rows[k: 2 * k]
        assert k == n // 2 and np.all(p < q)
        assert len(set(p) | set(q)) == 2 * k
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


# ---------------------------------------------------------------------------
# Majorization property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(3, 3), (8, 8), (8, 5), (5, 8)])
def test_majorization_squared_norm(shape, rng):
    for _ in range(25):
        X = rng.standard_normal(shape)
        Y = rng.standard_normal(shape)
        sx = sp.full_svd(X).sigma
        sy = sp.full_svd(Y).sigma
        sd = sp.full_svd(X - Y).sigma
        assert np.sum((sx - sy) ** 2) <= np.sum(sd ** 2) + 1e-10

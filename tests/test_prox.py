import numpy as np
import pytest

import specprox as sp
from specprox import oracle
from specprox.prox import backward_step

ANISO = sp.BlockRef(sp.Structure.ANISO, sp.Barrier(1.0))
ISO = sp.BlockRef(sp.Structure.ISO, sp.Barrier(1.0))
S_ANISO = sp.BlockRef(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
S_ISO = sp.BlockRef(sp.Structure.SPECTRAL_ISO, sp.Barrier(1.0))


def reachable_vector_instance(rng, d, tag, gamma):
    """y drawn as feasible point + gamma * interior step, so the prox is well posed."""
    if isinstance(tag, sp.SignSet):
        base = tag.radius * np.where(rng.standard_normal(d) >= 0, 1.0, -1.0)
    elif isinstance(tag, (sp.L2Ball,)):
        v = rng.standard_normal(d)
        base = (tag.radius * rng.uniform(0.0, 1.0) / np.linalg.norm(v)) * v
    elif isinstance(tag, sp.LinfBall):
        base = rng.uniform(-tag.radius, tag.radius, d)
    elif isinstance(tag, sp.LinfSphere):
        base = rng.uniform(-tag.radius, tag.radius, d)
        j = rng.integers(d)
        base[j] = tag.radius * (1.0 if rng.uniform() < 0.5 else -1.0)
    elif isinstance(tag, sp.HardThreshold):
        base = np.zeros(d)
        keep = rng.choice(d, size=tag.sparsity, replace=False)
        base[keep] = rng.standard_normal(tag.sparsity)
    else:
        base = np.zeros(d)
    return base + gamma * rng.uniform(-0.95, 0.95, d)


# ---------------------------------------------------------------------------
# Contract examples
# ---------------------------------------------------------------------------


def test_sign_set_example():
    out = sp.prox_vector(sp.SignSet(1.0), ANISO, np.array([0.5, -2.0]), 2.5)
    np.testing.assert_allclose(out, [1.0, -1.0])


def test_sign_zero_convention():
    out = sp.prox_vector(sp.SignSet(1.0), ANISO, np.array([0.0, -0.0]), 1.0)
    np.testing.assert_allclose(out, [1.0, 1.0])


def test_linf_ball_clipping():
    out = sp.prox_vector(sp.LinfBall(1.0), ANISO, np.array([2.0, -0.5]), 1.0)
    np.testing.assert_allclose(out, [1.0, -0.5])


def test_linf_sphere_lift_and_clip():
    out = sp.prox_vector(sp.LinfSphere(1.0), ANISO, np.array([0.5, 0.2]), 1.0)
    np.testing.assert_allclose(out, [1.0, 0.2])
    out = sp.prox_vector(sp.LinfSphere(1.0), ANISO, np.array([2.0, -3.0]), 1.0)
    np.testing.assert_allclose(out, [1.0, -1.0])


def test_linf_sphere_tie_lowest_index():
    out = sp.prox_vector(sp.LinfSphere(1.0), ANISO, np.array([0.4, -0.4]), 1.0)
    np.testing.assert_allclose(out, [1.0, -0.4])


def test_hard_threshold_example():
    out = sp.prox_vector(sp.HardThreshold(1), ANISO, np.array([3.0, -1.0]), 1.0)
    np.testing.assert_allclose(out, [3.0, 0.0])


def test_hard_threshold_tie_lowest_index():
    out = sp.prox_vector(sp.HardThreshold(1), ANISO, np.array([2.0, -2.0]), 1.0)
    np.testing.assert_allclose(out, [2.0, 0.0])


def test_l2_ball_lands_on_sphere_and_beats_grid(rng):
    tag = sp.L2Ball(1.0)
    gamma = 0.8
    y = np.array([1.2, 0.9])
    x = sp.prox_vector(tag, ANISO, y, gamma)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
    ours = oracle.prox_objective(tag, ANISO, y, gamma, x)
    best = oracle.l2_sphere_grid_min(ANISO, y, gamma, tag.radius, x)
    assert ours == pytest.approx(best, abs=1e-6)


def test_l2_ball_interior_passthrough():
    y = np.array([0.3, -0.4])
    out = sp.prox_vector(sp.L2Ball(1.0), ANISO, y, 0.5)
    np.testing.assert_allclose(out, y)


def test_l2_ball_unreachable_raises():
    with pytest.raises(sp.NumericalError):
        sp.prox_vector(sp.L2Ball(1.0), ANISO, np.array([3.0, 4.0]), 0.1)


def test_l2_ball_generic_scalar_matches_barrier(rng):
    # kappa=1 power family equals the barrier; exercise the generic inner solve
    hk = sp.BlockRef(sp.Structure.ANISO, sp.HyperKappa(1.0, 1.0))
    y = np.array([1.1, 0.8, -0.3])
    a = sp.prox_vector(sp.L2Ball(1.0), ANISO, y, 0.9)
    b = sp.prox_vector(sp.L2Ball(1.0), hk, y, 0.9)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_l2_ball_hyper4_beats_grid(rng):
    hk = sp.BlockRef(sp.Structure.ANISO, sp.HyperKappa(0.5, 4.0))
    tag = sp.L2Ball(1.0)
    y = np.array([1.15, 0.7])
    gamma = 0.9
    x = sp.prox_vector(tag, hk, y, gamma)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
    ours = oracle.prox_objective(tag, hk, y, gamma, x)
    best = oracle.l2_sphere_grid_min(hk, y, gamma, tag.radius, x)
    assert ours <= best + 1e-8


def test_zero_spec_identity(rng):
    y = rng.standard_normal(5)
    np.testing.assert_allclose(sp.prox_vector(sp.Zero(), ANISO, y, 1.0), y)


# ---------------------------------------------------------------------------
# Matrix backward steps
# ---------------------------------------------------------------------------


def test_stiefel_example():
    out = sp.prox_matrix(sp.Stiefel(1.0), S_ANISO, np.diag([2.0, 0.5]), 1.0)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-12)


def test_spectral_ball_example():
    out = sp.prox_matrix(sp.SpectralBall(1.0), S_ANISO, np.diag([3.0, 0.5]), 1.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-12)


def test_rank_limit_example():
    out = sp.prox_matrix(sp.RankLimit(1), S_ANISO, np.diag([3.0, 0.5]), 1.0)
    np.testing.assert_allclose(out, np.diag([3.0, 0.0]), atol=1e-12)


def test_spectral_sphere_example_beats_candidates(rng):
    Y = np.diag([0.5, 0.2])
    out = sp.prox_matrix(sp.SpectralSphere(1.0), S_ANISO, Y, 1.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.2]), atol=1e-12)
    ours = oracle.matrix_transport_cost(S_ANISO, Y, 1.0, out)
    cands = oracle.random_feasible_matrices(sp.SpectralSphere(1.0), (2, 2), 10_000, rng)
    vals = oracle.matrix_transport_cost_batch(S_ANISO, Y, 1.0, cands)
    assert ours <= vals.min() + 1e-9


def test_matrix_reduction_matches_vector_objective(rng):
    gamma = 0.7
    for tag, sigma_tag in [
        (sp.Stiefel(0.8), sp.SignSet(0.8)),
        (sp.SpectralBall(0.8), sp.LinfBall(0.8)),
        (sp.SpectralSphere(0.8), sp.LinfSphere(0.8)),
        (sp.FrobeniusBall(0.8), sp.L2Ball(0.8)),
        (sp.RankLimit(2), sp.HardThreshold(2)),
    ]:
        base = oracle.random_feasible_matrices(tag, (4, 3), 1, rng)[0]
        Y = base + gamma * 0.6 * rng.standard_normal((4, 3))
        X = sp.prox_matrix(tag, S_ANISO, Y, gamma)
        sig_y = sp.full_svd(Y).sigma
        x_vec = sp.prox_vector(sigma_tag, ANISO, sig_y, gamma)
        mat_obj = oracle.matrix_transport_cost(S_ANISO, Y, gamma, X)
        vec_obj = oracle.transport_cost(ANISO, sig_y, gamma, x_vec)
        assert mat_obj == pytest.approx(vec_obj, abs=1e-9)


def test_matrix_shape_validation():
    with pytest.raises(sp.InvalidSpecError):
        sp.prox_matrix(sp.Stiefel(1.0), S_ANISO, np.zeros((2, 3)), 1.0)   # n > m
    with pytest.raises(sp.InvalidSpecError):
        sp.prox_matrix(sp.RankLimit(5), S_ANISO, np.zeros((3, 3)), 1.0)
    with pytest.raises(sp.InvalidSpecError):
        sp.prox_vector(sp.SpectralBall(1.0), ANISO, np.zeros(3), 1.0)
    with pytest.raises(sp.InvalidSpecError):
        sp.prox_vector(sp.HardThreshold(7), ANISO, np.zeros(3), 1.0)


def test_blockwise_prox_dispatch(rng):
    spec = sp.ConstraintSpec([sp.LinfBall(1.0), sp.SpectralBall(1.0)])
    ref = sp.ReferenceFn([
        (sp.Structure.ANISO, sp.Barrier(1.0)),
        (sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0)),
    ])
    y = sp.ParamVec([np.array([2.0, -0.5]), np.diag([3.0, 0.5])])
    out = sp.prox(spec, ref, y, 1.0)
    np.testing.assert_allclose(out[0], [1.0, -0.5])
    np.testing.assert_allclose(out[1], np.diag([1.0, 0.5]), atol=1e-12)


# ---------------------------------------------------------------------------
# Isotropic reduction to Euclidean projection
# ---------------------------------------------------------------------------


def test_iso_reduction_euclidean_projections(rng):
    gamma = 0.5
    for _ in range(20):
        d = int(rng.integers(2, 6))
        y = 2.0 * rng.standard_normal(d)
        r = 1.0
        # l2 ball: radial projection
        out = sp.prox_vector(sp.L2Ball(r), ISO, y, gamma)
        ny = np.linalg.norm(y)
        expected = y if ny <= r else y * (r / ny)
        np.testing.assert_allclose(out, expected, atol=1e-10)
        # linf ball: clip
        out = sp.prox_vector(sp.LinfBall(r), ISO, y, gamma)
        np.testing.assert_allclose(out, np.clip(y, -r, r), atol=1e-10)
        # sign set
        out = sp.prox_vector(sp.SignSet(r), ISO, y, gamma)
        np.testing.assert_allclose(out, np.where(y >= 0, r, -r), atol=1e-10)


def test_spectral_iso_reduction(rng):
    gamma = 0.5
    Y = rng.standard_normal((4, 3)) * 1.5
    out = sp.prox_matrix(sp.FrobeniusBall(1.0), S_ISO, Y, gamma)
    nf = np.linalg.norm(Y)
    expected = Y if nf <= 1.0 else Y / nf
    np.testing.assert_allclose(out, expected, atol=1e-10)
    out = sp.prox_matrix(sp.SpectralBall(1.0), S_ISO, Y, gamma)
    u, s, vt = np.linalg.svd(Y)
    expected = (u[:, :3] * np.minimum(s, 1.0)) @ vt
    np.testing.assert_allclose(out, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Bisection internals
# ---------------------------------------------------------------------------


def test_l2_residual_monotone_in_lambda(rng):
    from specprox.prox import _l2_root_barrier

    y_abs = np.abs(rng.standard_normal(5)) + 0.2
    gamma = 0.4
    lams = np.linspace(1e-6, 50.0, 200)
    norms = [float(np.sum(_l2_root_barrier(y_abs, lam, gamma, 1.0) ** 2)) for lam in lams]
    assert all(b <= a + 1e-12 for a, b in zip(norms[:-1], norms[1:]))


def test_l2_root_solves_inner_equation(rng):
    from specprox.prox import _l2_root_barrier, _l2_root_generic

    y_abs = np.abs(rng.standard_normal(6)) + 0.1
    gamma, lam, eps = 0.7, 3.2, 1.0
    x = _l2_root_barrier(y_abs, lam, gamma, eps)
    b = sp.Barrier(eps)
    np.testing.assert_allclose(x + gamma * b.h_star_prime(2 * lam * x), y_abs, atol=1e-12)
    hk = sp.HyperKappa(0.5, 4.0)
    xg = _l2_root_generic(y_abs, lam, gamma, hk)
    np.testing.assert_allclose(xg + gamma * hk.h_star_prime(2 * lam * xg), y_abs, atol=1e-10)


# ---------------------------------------------------------------------------
# Oracle equivalence (sampled; the acceptance suite scales these up)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", [
    sp.SignSet(1.0), sp.LinfBall(1.0), sp.LinfSphere(1.0),
    sp.HardThreshold(2), sp.L2Ball(1.0),
], ids=lambda t: type(t).__name__)
def test_vector_prox_beats_oracle(tag, rng):
    for _ in range(25):
        d = int(rng.integers(max(2, getattr(tag, "sparsity", 1)), 7))
        gamma = float(rng.uniform(0.3, 1.5))
        y = reachable_vector_instance(rng, d, tag, gamma)
        x = sp.prox_vector(tag, ANISO, y, gamma)
        assert sp.feasibility_error(sp.ConstraintSpec(tag), sp.ParamVec([x])) <= 1e-9
        ours = oracle.prox_objective(tag, ANISO, y, gamma, x)
        best = oracle.best_candidate_objective(tag, ANISO, y, gamma, x)
        assert ours <= best + 1e-9
        if not isinstance(tag, sp.L2Ball):
            assert ours >= best - 1e-9  # enumerations are exact


# ---------------------------------------------------------------------------
# Subgradient recovery
# ---------------------------------------------------------------------------


def test_recover_zero_spec_is_zero(rng):
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    y = sp.ParamVec([rng.standard_normal(4)])
    x_next = sp.prox(sp.ConstraintSpec.unconstrained(), ref, y, 0.7)
    sub = sp.recover_subgradient(x_next, y, 0.7, ref)
    assert sp.norm2(sub) == 0.0


def test_recover_linf_ball_normal_cone(rng):
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    for _ in range(25):
        y = sp.ParamVec([1.5 * rng.standard_normal(4)])
        x = sp.prox(spec, ref, y, 0.9)
        sub = sp.recover_subgradient(x, y, 0.9, ref)
        for xi, gi in zip(x[0], sub[0]):
            if abs(abs(xi) - 1.0) > 1e-9:
                assert abs(gi) <= 1e-9          # inactive: zero component
            else:
                assert gi * np.sign(xi) >= -1e-12  # active: outward normal


def test_recover_sign_set_alignment(rng):
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    spec = sp.ConstraintSpec(sp.SignSet(1.0))
    b = sp.Barrier(1.0)
    for _ in range(25):
        gamma = 0.8
        y = sp.ParamVec([reachable_vector_instance(rng, 4, sp.SignSet(1.0), gamma)])
        x = sp.prox(spec, ref, y, gamma)
        sub = sp.recover_subgradient(x, y, gamma, ref)
        expected = -b.h_prime(np.clip((x[0] - y[0]) / gamma, -1 + 1e-12, 1 - 1e-12))
        np.testing.assert_allclose(sub[0], expected, atol=1e-12)
        # movement toward the set and the recovered gradient oppose each other
        assert np.all(sub[0] * (x[0] - y[0]) <= 1e-12)


def test_recover_matches_step_decomposition(rng):
    # x_next - x = -gamma*(precondition(d) + precondition(subgrad))
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    x = sp.ParamVec([rng.uniform(-1, 1, 5)])
    d = sp.ParamVec([rng.standard_normal(5)])
    gamma = 0.6
    x_next, y, sub = sp.step(x, d, gamma, ref, spec)
    recomposed = -gamma * (sp.precondition(ref, d) + sp.precondition(ref, sub))
    np.testing.assert_allclose((x_next - x)[0], recomposed[0], atol=1e-9)


def test_feasible_start_values():
    spec = sp.ConstraintSpec([sp.SignSet(2.0), sp.Stiefel(1.5)])
    x0 = sp.feasible_start(spec, [(3,), (4, 2)])
    assert sp.feasibility_error(spec, x0) <= 1e-12
    np.testing.assert_allclose(x0[0], [2.0, 2.0, 2.0])


@pytest.mark.parametrize("shape", [(4, 3), (3, 5)], ids=["4x3", "3x5"])
@pytest.mark.parametrize("tag", [
    sp.Zero(), sp.Stiefel(1.5), sp.FrobeniusBall(0.5), sp.SpectralBall(0.5),
    sp.SpectralSphere(1.5), sp.RankLimit(1),
], ids=lambda tag: type(tag).__name__)
def test_matrix_feasible_start_is_feasible(tag, shape):
    spec = sp.ConstraintSpec(tag)
    if isinstance(tag, sp.Stiefel) and shape[1] > shape[0]:
        with pytest.raises(sp.InvalidSpecError):
            spec.validate_for([shape])
        return
    spec.validate_for([shape])
    x0 = sp.feasible_start(spec, [shape])
    assert x0[0].shape == shape
    assert sp.feasibility_error(spec, x0) <= 1e-12


def test_unsupported_tag_raises_spec_error():
    for tag, shape in ((sp.L2Ball(1.0), (3, 2)), (sp.Stiefel(1.0), (3,))):
        spec = sp.ConstraintSpec(tag)
        with pytest.raises(sp.InvalidSpecError):
            sp.feasible_start(spec, [shape])
        with pytest.raises(sp.InvalidSpecError):
            sp.feasibility_error(spec, sp.ParamVec([np.ones(shape)]))


def _minus_h_prime_clamped(scalar, structure, z):
    """-grad h at z with its lifted argument clamped to 1 - 1e-12, via numpy.linalg.svd."""
    limit = 1.0 - 1e-12
    if structure is sp.Structure.SPECTRAL_ANISO:
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        return (u * -scalar.h_prime(np.minimum(s, limit))) @ vt
    nz = np.linalg.norm(z)  # radial form: the Euclidean or Frobenius norm
    return (-scalar.h_prime(min(nz, limit)) / nz) * z


@pytest.mark.parametrize("scalar", [sp.Barrier(1.0), sp.HyperKappa(0.5, 3.0)],
                         ids=["barrier", "hyper3"])
@pytest.mark.parametrize("structure, shape", [
    (sp.Structure.ISO, (5,)),
    (sp.Structure.SPECTRAL_ISO, (4, 3)),
    (sp.Structure.SPECTRAL_ISO, (3, 5)),
    (sp.Structure.SPECTRAL_ANISO, (4, 3)),
    (sp.Structure.SPECTRAL_ANISO, (3, 5)),
], ids=["iso-5", "spectral-iso-4x3", "spectral-iso-3x5", "spectral-aniso-4x3",
        "spectral-aniso-3x5"])
def test_recover_subgradient_clamps_lifted_argument(structure, shape, scalar, rng):
    # |z| (or sigma_max(z)) from 0.3 to 3: inside the domain, on its boundary
    # and past it, where the clamp acts.
    ref = sp.ReferenceFn.uniform(structure, scalar)
    gamma = 0.7
    for size in np.linspace(0.3, 3.0, 28):
        z = rng.standard_normal(shape)
        top = np.linalg.norm(z, 2) if structure is sp.Structure.SPECTRAL_ANISO else np.linalg.norm(z)
        y = sp.ParamVec([rng.standard_normal(shape)])
        x_next = y + sp.ParamVec([(gamma * size / top) * z])
        sub = sp.recover_subgradient(x_next, y, gamma, ref)[0]
        want = _minus_h_prime_clamped(scalar, structure, (x_next[0] - y[0]) * (1.0 / gamma))
        assert np.linalg.norm(sub - want) <= 1e-10 * np.linalg.norm(want)


MATRIX_STEP_CASES = [(tag, shape) for tag in (
    sp.Zero(), sp.Stiefel(1.5), sp.FrobeniusBall(0.5), sp.SpectralBall(0.5),
    sp.SpectralSphere(1.5), sp.RankLimit(1),
) for shape in ((4, 3), (3, 5)) if not (isinstance(tag, sp.Stiefel) and shape == (3, 5))]


@pytest.mark.parametrize("scalar", [sp.Barrier(1.0), sp.HyperKappa(0.5, 3.0)],
                         ids=["barrier", "hyper3"])
@pytest.mark.parametrize("tag, shape", MATRIX_STEP_CASES,
                         ids=[f"{type(t).__name__}-{m}x{n}" for t, (m, n) in MATRIX_STEP_CASES])
def test_factored_step_matches_dense_route(tag, shape, scalar, rng):
    # The step lifts its subgradient from z in y's basis; the dense route
    # factors z = (x_next - y)/gamma afresh.  Both give the same subgradient
    # and the same gap.  Where y lies inside the set the factored z is exactly
    # 0 and the dense one is rounding, so the subgradient is compared relative
    # to at least eps, the scale of h'(t) = eps*t + O(t^2).
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, scalar)
    spec = sp.ConstraintSpec(tag)
    x = sp.feasible_start(spec, [shape])
    for _ in range(10):
        d = sp.ParamVec([rng.standard_normal(shape)])
        x_next, y, sub = sp.step(x, d, 0.4, ref, spec)
        assert isinstance(sub[0], sp.SvdResult)
        want = sp.recover_subgradient(x_next, y, 0.4, ref)
        scale = max(np.linalg.norm(want[0]), scalar.epsilon)
        assert np.linalg.norm(sub[0].reconstruct() - want[0]) <= 1e-10 * scale
        g = sp.ParamVec([rng.standard_normal(shape)])
        assert sp.gap_bregman(ref, g, sub) == pytest.approx(sp.gap_bregman(ref, g, want), rel=1e-12)
        x = x_next


def test_gamma_validation():
    with pytest.raises(sp.InvalidInputError):
        sp.prox_vector(sp.LinfBall(1.0), ANISO, np.zeros(2), 0.0)
    with pytest.raises(sp.InvalidInputError):
        sp.prox_vector(sp.LinfBall(1.0), ANISO, np.array([np.inf, 0.0]), 1.0)


STACK_CASES = [(tag, structure, shape)
               for tag in (sp.Zero(), sp.SignSet(0.7), sp.L2Ball(0.8), sp.LinfBall(0.6),
                           sp.LinfSphere(0.9), sp.HardThreshold(2))
               for structure in (sp.Structure.ANISO, sp.Structure.ISO) for shape in [(5,)]] + [
               (tag, structure, shape)
               for tag in (sp.Zero(), sp.Stiefel(0.7), sp.FrobeniusBall(0.8), sp.SpectralBall(0.6),
                           sp.SpectralSphere(0.9), sp.RankLimit(2))
               for structure in (sp.Structure.SPECTRAL_ANISO, sp.Structure.SPECTRAL_ISO)
               for shape in [(4, 3)]]


@pytest.mark.parametrize("tag, structure, shape", STACK_CASES,
                         ids=[f"{type(t).__name__}-{s.value}" for t, s, _ in STACK_CASES])
def test_stacked_step_rows_match_single_steps(tag, structure, shape, rng):
    # A batch of 6 points, some inside the set and some outside: every row of
    # the stacked step, move and violation has the bits of its own call.
    spec = sp.ConstraintSpec(tag)
    ref = sp.ReferenceFn.uniform(structure, sp.HyperKappa(0.3, 2.5))
    Y = rng.standard_normal((6,) + shape) * np.array([0.05, 0.1, 0.2, 0.3, 0.45, 0.6])[
        (slice(None),) + (None,) * len(shape)]
    x_next, z = backward_step(spec, ref, sp.ParamVec([Y], lead=1), 2.0)
    err = sp.feasibility_error(spec, x_next)
    for i in range(6):
        x1, z1 = backward_step(spec, ref, sp.ParamVec([Y[i]]), 2.0)
        assert np.array_equal(x_next[0][i], x1[0])
        if isinstance(z1[0], sp.SvdResult):
            assert np.array_equal(z[0].reconstruct()[i], z1[0].reconstruct())
        else:
            assert np.array_equal(z[0][i], z1[0])
        assert (err[i] if np.ndim(err) else err) == sp.feasibility_error(spec, x1)

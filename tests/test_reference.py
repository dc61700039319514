import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specprox as sp
from oracles import legendre_h, quad_h_star, random_orthogonal, second_difference_min

ANISO_BARRIER = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
ISO_BARRIER = sp.ReferenceFn.uniform(sp.Structure.ISO, sp.Barrier(1.0))


def scalar_cases():
    return [
        sp.Barrier(1.0),
        sp.Barrier(0.25),
        sp.HyperKappa(1.0, 4.0),
        sp.HyperKappa(3e-4, 4.0),
        sp.HyperKappa(0.5, 2.0),
        sp.HyperKappa(0.7, 1.0),
    ]


# ---------------------------------------------------------------------------
# Scalar reference functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sc", scalar_cases(), ids=repr)
def test_scalar_shape_properties(sc, rng):
    t = rng.uniform(-0.999, 0.999, 64)
    h = np.asarray(sc.h(t))
    assert sc.h(0.0) == 0.0
    assert np.all(h >= 0.0)
    np.testing.assert_allclose(h, sc.h(-t), atol=0.0)  # even
    s = rng.standard_normal(64) * 10.0
    hs = np.asarray(sc.h_star(s))
    assert sc.h_star(0.0) == 0.0
    assert np.all(hs >= -1e-15)
    np.testing.assert_allclose(hs, sc.h_star(-s), atol=0.0)


@pytest.mark.parametrize("sc", scalar_cases(), ids=repr)
def test_scalar_strong_convexity_modulus(sc):
    # curvature of h at sampled interior points stays above epsilon
    grid = np.linspace(-0.9, 0.9, 37)
    assert second_difference_min(sc.h, grid) >= sc.epsilon - 1e-6


@pytest.mark.parametrize("sc", scalar_cases(), ids=repr)
def test_scalar_conjugate_prime_bounded_odd_increasing(sc, rng):
    # huge arguments: bounded and odd, float saturation capped inside (-1, 1)
    s_big = np.sort(rng.standard_normal(100) * 10.0 ** rng.uniform(-2, 11, 100))
    v_big = np.asarray(sc.h_star_prime(s_big))
    assert np.all(np.abs(v_big) < 1.0)
    np.testing.assert_allclose(np.asarray(sc.h_star_prime(-s_big)), -v_big, atol=0.0)
    # strict increase is meaningful on the function's responsive scale
    mag = sc.epsilon * 10.0 ** rng.uniform(-2, 2, 50)
    s = np.sort(np.concatenate([mag, -mag]))
    v = np.asarray(sc.h_star_prime(s))
    assert np.all(np.diff(v) > 0.0)


@pytest.mark.parametrize("sc", scalar_cases(), ids=repr)
def test_fenchel_young_equality(sc, rng):
    s = rng.standard_normal(200) * 10.0 ** rng.uniform(-3, 2, 200)
    t = np.asarray(sc.h_star_prime(s))
    gap = np.abs(np.asarray(sc.h(t)) + np.asarray(sc.h_star(s)) - s * t)
    assert gap.max() <= 1e-8


def test_barrier_closed_forms():
    b = sp.Barrier(1.0)
    assert b.h(0.5) == pytest.approx(-(math.log(0.5) + 0.5), abs=1e-15)
    assert b.h_star(1.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-15)
    assert b.h_prime(0.5) == pytest.approx(1.0, abs=1e-15)
    assert b.h_star_prime(1.0) == pytest.approx(0.5, abs=1e-15)
    assert b.h(1.0) == math.inf
    assert b.h(1.5) == math.inf


@pytest.mark.parametrize("sc", [sp.HyperKappa(3e-4, 4.0), sp.HyperKappa(0.5, 3.0),
                                sp.HyperKappa(1.0, 4.0), sp.HyperKappa(1e-3, 1.05),
                                sp.HyperKappa(0.1, 2.5), sp.HyperKappa(1.0, 8.0)], ids=repr)
def test_hyper_h_star_against_direct_quadrature(sc, rng):
    for s in np.concatenate([10.0 ** rng.uniform(-5, 2, 20), [0.0, 1e-12, 50.0]]):
        assert sc.h_star(s) == pytest.approx(quad_h_star(sc, s), abs=5e-10)


@pytest.mark.parametrize("sc", [sp.HyperKappa(3e-4, 4.0), sp.HyperKappa(0.5, 2.0),
                                sp.HyperKappa(1.0, 4.0)], ids=repr)
def test_hyper_h_against_numeric_legendre(sc, rng):
    for t in np.concatenate([rng.uniform(0.0, 0.98, 15), [0.999]]):
        assert sc.h(t) == pytest.approx(legendre_h(sc, t), abs=1e-9, rel=1e-9)


def test_hyper_boundary_value_closed_form():
    assert sp.HyperKappa(0.5, 2.0).h(1.0) == 0.5
    # -Gamma(3/2)*Gamma(-1/4) / (2*Gamma(1/4)), evaluated with 50-digit mpmath
    assert sp.HyperKappa(1.0, 4.0).h(1.0) == pytest.approx(0.5990701173677961, abs=1e-13)


@pytest.mark.parametrize("kappa", [1.05, 1.5, 2.5, 3.0, 8.0])
def test_hyper_h_increases_to_boundary_value(kappa):
    hk = sp.HyperKappa(1e-3, kappa)
    h1 = hk.h(1.0)
    h_near = hk.h(1.0 - 10.0 ** -np.arange(1.0, 13.0))
    assert np.all(np.diff(h_near) > 0.0)
    assert np.all(h_near <= h1)
    if kappa >= 1.5:
        # the residual tail at delta = 1e-12 is far below h(1) itself
        assert h1 - h_near[-1] < 1e-3 * h1


@pytest.mark.parametrize("kappa", [1.01, 1.05, 4.0])
def test_hyper_h_star_large_arguments(kappa):
    hk = sp.HyperKappa(1.0, kappa)
    s = np.array([1e10, 1e100, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hs = hk.h_star(s)
        h1 = hk.h(1.0)
    assert np.all(np.isfinite(hs))
    # h*(s) = |s| - integral_0^|s| (1 - h*'(u)) du, and that integral is in [0, h(1)]
    assert np.all(s - hs >= 0.0)
    assert np.all(s - hs <= h1)


def test_hyper_h_star_cold_start():
    hk = sp.HyperKappa(1e-3, 1.05)
    s = np.geomspace(1e-6, 1e3, 400)
    start = time.perf_counter()
    hk.h_star(s)
    assert time.perf_counter() - start < 0.5


def test_hyper_kappa_one_matches_barrier(rng):
    hk = sp.HyperKappa(0.7, 1.0)
    b = sp.Barrier(0.7)
    s = rng.standard_normal(50) * 3.0
    np.testing.assert_allclose(hk.h_star(s), b.h_star(s), atol=1e-14)
    np.testing.assert_allclose(hk.h_star_prime(s), b.h_star_prime(s), atol=1e-16)
    t = rng.uniform(-0.99, 0.99, 50)
    np.testing.assert_allclose(hk.h(t), b.h(t), atol=1e-12)


def test_hyper_example_near_saturation():
    # kappa = 4, eps = 3e-4: at 0.5 the preconditioner is 1 to ~1e-12 relative
    hk = sp.HyperKappa(3e-4, 4.0)
    expected = 0.5 / ((3e-4) ** 4 + 0.5 ** 4) ** 0.25
    assert hk.h_star_prime(0.5) == pytest.approx(expected, rel=1e-15)
    assert abs(expected - 1.0) < 2e-12


def test_invalid_scalar_configs():
    with pytest.raises(sp.InvalidConfigError):
        sp.Barrier(0.0)
    with pytest.raises(sp.InvalidConfigError):
        sp.Barrier(-1.0)
    with pytest.raises(sp.InvalidConfigError):
        sp.HyperKappa(1.0, 0.5)


# ---------------------------------------------------------------------------
# precondition
# ---------------------------------------------------------------------------


def test_precondition_examples():
    d = sp.ParamVec([np.array([1.0, -3.0])])
    out = sp.precondition(ANISO_BARRIER, d)
    np.testing.assert_allclose(out[0], [0.5, -0.75], atol=1e-15)

    d = sp.ParamVec([np.array([3.0, 4.0])])
    out = sp.precondition(ISO_BARRIER, d)
    np.testing.assert_allclose(out[0], [0.5, 2.0 / 3.0], atol=1e-15)

    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    out = sp.precondition(ref, sp.ParamVec([np.diag([3.0, 1.0])]))
    np.testing.assert_allclose(out[0], np.diag([0.75, 0.5]), atol=1e-14)


def test_precondition_zero_direction():
    for ref in (ISO_BARRIER, sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ISO, sp.Barrier(1.0))):
        shapes = [(3,)] if ref is ISO_BARRIER else [(2, 3)]
        out = sp.precondition(ref, sp.zeros(shapes))
        assert sp.norm2(out) == 0.0


@pytest.mark.parametrize("structure,shape", [
    (sp.Structure.ANISO, (6,)),
    (sp.Structure.ISO, (6,)),
    (sp.Structure.SPECTRAL_ANISO, (4, 3)),
    (sp.Structure.SPECTRAL_ISO, (4, 3)),
])
def test_precondition_odd_and_bounded(structure, shape, rng):
    ref = sp.ReferenceFn.uniform(structure, sp.Barrier(0.5))
    radius = ref.block_domain_radii([shape])[0]
    for scale in (1e-3, 1.0, 1e6, 1e12):
        d = sp.ParamVec([scale * rng.standard_normal(shape)])
        w = sp.precondition(ref, d)
        w_neg = sp.precondition(ref, -d)
        assert sp.norm2(w + w_neg) == 0.0
        assert np.linalg.norm(w[0]) <= radius * (1.0 - 1e-15)


def test_precondition_lipschitz_and_monotone(rng):
    # conjugate gradient is (1/eps)-Lipschitz and strictly monotone
    for ref, shape in [(ANISO_BARRIER, (5,)), (ISO_BARRIER, (5,)),
                       (sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0)), (3, 4))]:
        for _ in range(50):
            a = sp.ParamVec([rng.standard_normal(shape) * 3.0])
            b = sp.ParamVec([rng.standard_normal(shape) * 3.0])
            wa, wb = sp.precondition(ref, a), sp.precondition(ref, b)
            assert sp.norm2(wa - wb) <= (1.0 / 1.0) * sp.norm2(a - b) * (1.0 + 1e-12)
            assert sp.dot(wa - wb, a - b) > 0.0


def test_spectral_consistency_with_vector_case(rng):
    # diagonal matrices with sorted nonnegative diagonal reduce to the vector map
    ref_mat = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    ref_vec = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    diag = np.sort(np.abs(rng.standard_normal(4)))[::-1]
    out_m = sp.precondition(ref_mat, sp.ParamVec([np.diag(diag)]))
    out_v = sp.precondition(ref_vec, sp.ParamVec([diag]))
    np.testing.assert_allclose(out_m[0], np.diag(out_v[0]), atol=1e-12)


def test_precondition_nonfinite_rejected():
    d = sp.ParamVec([np.ones(3)], validate=False)
    d.blocks[0][0] = np.nan
    with pytest.raises(sp.InvalidInputError):
        sp.precondition(ANISO_BARRIER, d)


# ---------------------------------------------------------------------------
# phi / phi_star / grad_phi
# ---------------------------------------------------------------------------


def test_phi_examples():
    assert sp.phi(ANISO_BARRIER, sp.zeros([(2,)])) == 0.0
    assert sp.phi(ANISO_BARRIER, sp.ParamVec([np.array([1.5, 0.0])])) == math.inf
    val = sp.phi(ANISO_BARRIER, sp.ParamVec([np.array([0.5, 0.0])]))
    assert val == pytest.approx(-(math.log(0.5) + 0.5), abs=1e-14)


def test_phi_star_examples(rng):
    assert sp.phi_star(ANISO_BARRIER, sp.zeros([(3,)])) == 0.0
    val = sp.phi_star(ANISO_BARRIER, sp.ParamVec([np.array([1.0])]))
    assert val == pytest.approx(1.0 - math.log(2.0), abs=1e-14)
    y = sp.ParamVec([rng.standard_normal(4)])
    assert sp.phi_star(ANISO_BARRIER, y) >= 0.0
    assert sp.phi_star(ANISO_BARRIER, -y) == pytest.approx(sp.phi_star(ANISO_BARRIER, y))


def test_phi_spectral_evaluates_on_singular_values(rng):
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    M = 0.2 * rng.standard_normal((3, 3))
    sigma = sp.full_svd(M).sigma
    expected = float(np.sum(sp.Barrier(1.0).h(sigma)))
    assert sp.phi(ref, sp.ParamVec([M])) == pytest.approx(expected, rel=1e-12)


def test_grad_phi_examples():
    assert sp.norm2(sp.grad_phi(ANISO_BARRIER, sp.zeros([(2,)]))) == 0.0
    out = sp.grad_phi(ANISO_BARRIER, sp.ParamVec([np.array([0.5])]))
    np.testing.assert_allclose(out[0], [1.0], atol=1e-15)


def test_grad_phi_round_trip(rng):
    for ref, shape in [(ANISO_BARRIER, (5,)), (ISO_BARRIER, (5,)),
                       (sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0)), (4, 3)),
                       (sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ISO, sp.Barrier(1.0)), (4, 3))]:
        for _ in range(25):
            from specprox.stationarity import sample_interior_point

            x = sample_interior_point(ref, [shape], rng, margin=1e-3)
            back = sp.precondition(ref, sp.grad_phi(ref, x))
            assert sp.norm2(back - x) <= 1e-8


def test_grad_phi_boundary_error():
    with pytest.raises(sp.BoundaryError):
        sp.grad_phi(ANISO_BARRIER, sp.ParamVec([np.array([1.0 - 1e-13])]))
    with pytest.raises(sp.BoundaryError):
        sp.grad_phi(ISO_BARRIER, sp.ParamVec([np.array([0.8, 0.7])]))


# ---------------------------------------------------------------------------
# bregman_dual
# ---------------------------------------------------------------------------


def test_bregman_dual_zero_at_equal(rng):
    a = sp.ParamVec([rng.standard_normal(4)])
    assert sp.bregman_dual(ANISO_BARRIER, a, a) == pytest.approx(0.0, abs=1e-14)


def test_bregman_dual_positive(rng):
    for _ in range(50):
        a = sp.ParamVec([rng.standard_normal(4)])
        b = sp.ParamVec([rng.standard_normal(4)])
        if sp.norm2(a - b) > 1e-9:
            assert sp.bregman_dual(ANISO_BARRIER, a, b) > 0.0


def test_bregman_dual_against_direct_formula(rng):
    for _ in range(50):
        a = sp.ParamVec([rng.standard_normal(3)])
        b = sp.ParamVec([rng.standard_normal(3)])
        direct = (sp.phi_star(ANISO_BARRIER, a) - sp.phi_star(ANISO_BARRIER, b)
                  - sp.dot(sp.precondition(ANISO_BARRIER, b), a - b))
        assert sp.bregman_dual(ANISO_BARRIER, a, b) == pytest.approx(direct, abs=1e-10)
        assert sp.bregman_dual(ANISO_BARRIER, a, b) != pytest.approx(
            sp.bregman_dual(ANISO_BARRIER, b, a), abs=1e-15) or sp.norm2(a - b) < 1e-12


# ---------------------------------------------------------------------------
# domain radii, structure plumbing
# ---------------------------------------------------------------------------


def test_domain_radii():
    assert ANISO_BARRIER.domain_radius([(9,)]) == pytest.approx(3.0)
    assert ISO_BARRIER.domain_radius([(9,)]) == pytest.approx(1.0)
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    assert ref.domain_radius([(7, 4)]) == pytest.approx(2.0)
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ISO, sp.Barrier(1.0))
    assert ref.domain_radius([(7, 4)]) == pytest.approx(1.0)
    mixed = sp.ReferenceFn([
        (sp.Structure.ANISO, sp.Barrier(1.0)),
        (sp.Structure.SPECTRAL_ISO, sp.Barrier(1.0)),
    ])
    assert mixed.domain_radius([(4,), (3, 3)]) == pytest.approx(math.sqrt(5.0))


def test_structure_shape_mismatch():
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    with pytest.raises(sp.InvalidConfigError):
        ref.domain_radius([(3, 3)])


def test_blockwise_entries_dispatch(rng):
    mixed = sp.ReferenceFn([
        (sp.Structure.ANISO, sp.Barrier(1.0)),
        (sp.Structure.SPECTRAL_ANISO, sp.Barrier(0.5)),
    ])
    x = sp.ParamVec([rng.standard_normal(3), rng.standard_normal((3, 2))])
    w = sp.precondition(mixed, x)
    np.testing.assert_allclose(w[0], sp.Barrier(1.0).h_star_prime(x[0]), atol=1e-15)
    with pytest.raises(sp.InvalidConfigError):
        sp.precondition(mixed, sp.ParamVec([rng.standard_normal(3)]))


@given(st.floats(-50.0, 50.0))
@settings(max_examples=80, deadline=None)
def test_hypothesis_fenchel_young_barrier(s):
    b = sp.Barrier(1.0)
    t = b.h_star_prime(s)
    assert abs(b.h(t) + b.h_star(s) - s * t) <= 1e-10


def test_precondition_orthogonal_equivariance(rng):
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    M = rng.standard_normal((4, 4))
    q1, q2 = random_orthogonal(4, rng), random_orthogonal(4, rng)
    lhs = sp.precondition(ref, sp.ParamVec([q1 @ M @ q2]))[0]
    rhs = q1 @ sp.precondition(ref, sp.ParamVec([M]))[0] @ q2
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)

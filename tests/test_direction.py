import numpy as np
import pytest

import specprox as sp


def pv(*vals):
    return sp.ParamVec([np.array(vals, dtype=float)])


def test_polyak_alpha_one_is_plain():
    d = sp.polyak_update(pv(5.0, -1.0), pv(2.0, 2.0), alpha=1.0)
    np.testing.assert_allclose(d[0], [2.0, 2.0])


def test_polyak_half_mix():
    d = sp.polyak_update(pv(0.0, 0.0), pv(2.0, 2.0), alpha=0.5)
    np.testing.assert_allclose(d[0], [1.0, 1.0])


def test_polyak_unrolls_to_geometric_sum(rng):
    alpha = 0.3
    g = [sp.ParamVec([rng.standard_normal(4)]) for _ in range(4)]
    d = g[0]
    for gk in g[1:]:
        d = sp.polyak_update(d, gk, alpha)
    # closed form: (1-a)^3 g0 + a[(1-a)^2 g1 + (1-a) g2 + g3]
    expected = (1 - alpha) ** 3 * g[0][0] + alpha * (
        (1 - alpha) ** 2 * g[1][0] + (1 - alpha) * g[2][0] + g[3][0])
    np.testing.assert_allclose(d[0], expected, atol=1e-12)


def test_polyak_zero_noise_contraction(rng):
    g_star = sp.ParamVec([rng.standard_normal(3)])
    d = sp.ParamVec([rng.standard_normal(3)])
    alpha = 0.25
    err0 = sp.norm2(d - g_star)
    for k in range(1, 6):
        d = sp.polyak_update(d, g_star, alpha)
        assert sp.norm2(d - g_star) == pytest.approx((1 - alpha) ** k * err0, rel=1e-12)


def test_storm_alpha_one_collapses():
    d = sp.storm_update(pv(9.0), pv(3.0), pv(7.0), alpha=1.0)
    np.testing.assert_allclose(d[0], [3.0])


def test_storm_deterministic_same_point_keeps_direction():
    # alpha near 0, gradients equal at both points -> d unchanged
    d = pv(2.0)
    d2 = sp.storm_update(d, pv(2.0), pv(2.0), alpha=1e-12)
    np.testing.assert_allclose(d2[0], d[0], atol=1e-11)


def test_storm_formula_matches_independent_transcription(rng):
    # separately coded expression evaluator
    for _ in range(20):
        d_old = rng.standard_normal(5)
        gx = rng.standard_normal(5)
        gp = rng.standard_normal(5)
        a = float(rng.uniform(0.05, 1.0))
        d = sp.storm_update(sp.ParamVec([d_old]), sp.ParamVec([gx]), sp.ParamVec([gp]), a)
        expected = (1.0 - a) * d_old + a * gx + (1.0 - a) * (gx - gp)
        np.testing.assert_allclose(d[0], expected, atol=1e-14)


def test_storm_telescoping_with_exact_oracle(rng):
    # deterministic oracle + exact init -> the estimator tracks the gradient exactly
    A = rng.standard_normal((4, 4))
    prob = sp.QuadraticProblem(A=A, b=rng.standard_normal(4), L=None, F_star_hint=0.0)
    x = sp.ParamVec([rng.standard_normal(4)])
    d = prob.grad_f(x)
    for k in range(5):
        x_new = sp.ParamVec([x[0] - 0.1 * rng.standard_normal(4)])
        d = sp.storm_update(d, prob.grad_f(x_new), prob.grad_f(x),
                            alpha=(k + 2.0) ** (-2.0 / 3.0))
        x = x_new
        assert sp.norm2(d - prob.grad_f(x)) <= 1e-12


def test_update_returns_new_value_and_keeps_input():
    d = pv(1.0, 2.0)
    sp.polyak_update(d, pv(5.0, 5.0), alpha=0.5)
    sp.storm_update(d, pv(5.0, 5.0), pv(0.0, 0.0), alpha=0.5)
    np.testing.assert_array_equal(d[0], [1.0, 2.0])


def test_schedule_examples():
    assert sp.polyak43(15, 1.0) == (0.25, pytest.approx(0.125))
    a, g = sp.storm45(7)
    assert a == pytest.approx(0.25)
    assert g == pytest.approx(0.25)
    assert sp.polyak43(0, 2.5) == (1.0, 2.5)


def test_schedule_validation():
    with pytest.raises(sp.InvalidConfigError):
        sp.polyak43(-1)
    with pytest.raises(sp.InvalidConfigError):
        sp.storm45(-1)
    with pytest.raises(sp.InvalidConfigError):
        sp.storm45(3, gamma_bar=0.0)
    with pytest.raises(sp.InvalidConfigError):
        sp.polyak43(3, gamma_bar=-1.0)


def test_alpha_range_validation():
    with pytest.raises(sp.InvalidConfigError):
        sp.polyak_update(pv(1.0), pv(1.0), alpha=0.0)
    with pytest.raises(sp.InvalidConfigError):
        sp.polyak_update(pv(1.0), pv(1.0), alpha=1.5)
    with pytest.raises(sp.InvalidConfigError):
        sp.storm_update(pv(1.0), pv(1.0), pv(1.0), alpha=-0.1)

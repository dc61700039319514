import numpy as np
import pytest

import specprox as sp


def pv(*vals):
    return sp.ParamVec([np.array(vals, dtype=float)])


def test_polyak_alpha_one_is_plain():
    st = sp.initial_state("polyak", pv(5.0, -1.0))
    st = sp.polyak_update(st, pv(2.0, 2.0), alpha=1.0)
    np.testing.assert_allclose(st.d[0], [2.0, 2.0])
    assert st.k == 1


def test_polyak_half_mix():
    st = sp.initial_state("polyak", pv(0.0, 0.0))
    st = sp.polyak_update(st, pv(2.0, 2.0), alpha=0.5)
    np.testing.assert_allclose(st.d[0], [1.0, 1.0])


def test_polyak_unrolls_to_geometric_sum(rng):
    alpha = 0.3
    g = [sp.ParamVec([rng.standard_normal(4)]) for _ in range(4)]
    st = sp.initial_state("polyak", g[0])
    for gk in g[1:]:
        st = sp.polyak_update(st, gk, alpha)
    # closed form: (1-a)^3 g0 + a[(1-a)^2 g1 + (1-a) g2 + g3]
    expected = (1 - alpha) ** 3 * g[0][0] + alpha * (
        (1 - alpha) ** 2 * g[1][0] + (1 - alpha) * g[2][0] + g[3][0])
    np.testing.assert_allclose(st.d[0], expected, atol=1e-12)


def test_polyak_zero_noise_contraction(rng):
    g_star = sp.ParamVec([rng.standard_normal(3)])
    d0 = sp.ParamVec([rng.standard_normal(3)])
    alpha = 0.25
    st = sp.initial_state("polyak", d0)
    err0 = sp.norm2(st.d - g_star)
    for k in range(1, 6):
        st = sp.polyak_update(st, g_star, alpha)
        assert sp.norm2(st.d - g_star) == pytest.approx((1 - alpha) ** k * err0, rel=1e-12)


def test_storm_alpha_one_collapses():
    st = sp.initial_state("storm", pv(9.0))
    st = sp.storm_update(st, pv(3.0), pv(7.0), alpha_k=1.0)
    np.testing.assert_allclose(st.d[0], [3.0])


def test_storm_deterministic_same_point_keeps_direction():
    # alpha near 0, gradients equal at both points -> d unchanged
    st = sp.initial_state("storm", pv(2.0))
    st2 = sp.storm_update(st, pv(2.0), pv(2.0), alpha_k=1e-12)
    np.testing.assert_allclose(st2.d[0], st.d[0], atol=1e-11)


def test_storm_formula_matches_independent_transcription(rng):
    # separately coded expression evaluator
    for _ in range(20):
        d_old = rng.standard_normal(5)
        gx = rng.standard_normal(5)
        gp = rng.standard_normal(5)
        a = float(rng.uniform(0.05, 1.0))
        st = sp.initial_state("storm", sp.ParamVec([d_old]))
        st = sp.storm_update(st, sp.ParamVec([gx]), sp.ParamVec([gp]), a)
        expected = (1.0 - a) * d_old + a * gx + (1.0 - a) * (gx - gp)
        np.testing.assert_allclose(st.d[0], expected, atol=1e-14)


def test_storm_telescoping_with_exact_oracle(rng):
    # deterministic oracle + exact init -> the estimator tracks the gradient exactly
    A = rng.standard_normal((4, 4))
    prob = sp.QuadraticProblem(A=A, b=rng.standard_normal(4), L=None, F_star_hint=0.0)
    x = sp.ParamVec([rng.standard_normal(4)])
    st = sp.initial_state("storm", prob.grad_f(x))
    for k in range(5):
        x_new = sp.ParamVec([x[0] - 0.1 * rng.standard_normal(4)])
        st = sp.storm_update(st, prob.grad_f(x_new), prob.grad_f(x),
                             alpha_k=(k + 2.0) ** (-2.0 / 3.0))
        x = x_new
        assert sp.norm2(st.d - prob.grad_f(x)) <= 1e-12


def test_schedule_examples():
    assert sp.schedule("polyak43", 15, 1.0) == (0.25, pytest.approx(0.125))
    a, g = sp.schedule("storm45", 7)
    assert a == pytest.approx(0.25)
    assert g == pytest.approx(0.25)
    assert sp.schedule("polyak43", 0, 2.5) == (1.0, 2.5)


def test_schedule_validation():
    with pytest.raises(sp.InvalidConfigError):
        sp.schedule("polyak43", -1)
    with pytest.raises(sp.InvalidConfigError):
        sp.schedule("nope", 3)
    with pytest.raises(sp.InvalidConfigError):
        sp.schedule("storm45", 3, gamma_bar=0.0)


def test_alpha_range_validation():
    st = sp.initial_state("polyak", pv(1.0))
    with pytest.raises(sp.InvalidConfigError):
        sp.polyak_update(st, pv(1.0), alpha=0.0)
    with pytest.raises(sp.InvalidConfigError):
        sp.polyak_update(st, pv(1.0), alpha=1.5)
    st2 = sp.initial_state("storm", pv(1.0))
    with pytest.raises(sp.InvalidConfigError):
        sp.storm_update(st2, pv(1.0), pv(1.0), alpha_k=-0.1)


def test_initial_state_kinds():
    assert sp.initial_state("plain", pv(1.0)).kind == "plain"
    with pytest.raises(sp.InvalidConfigError):
        sp.initial_state("adam", pv(1.0))

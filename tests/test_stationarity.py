import math

import numpy as np
import pytest

import specprox as sp
from specprox.stationarity import sample_interior_point
from oracles import grid_min_1d

ANISO = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
ISO = sp.ReferenceFn.uniform(sp.Structure.ISO, sp.Barrier(1.0))
UNCONSTRAINED = sp.ConstraintSpec.unconstrained()


def pv(*vals):
    return sp.ParamVec([np.array(vals, dtype=float)])


# ---------------------------------------------------------------------------
# Dual Bregman gap
# ---------------------------------------------------------------------------


def test_gap_zero_at_stationarity(rng):
    g = sp.ParamVec([rng.standard_normal(4)])
    assert sp.gap_bregman(ANISO, g, -g) == pytest.approx(0.0, abs=1e-14)


def test_gap_reduces_to_phi_star_when_unconstrained(rng):
    g = sp.ParamVec([rng.standard_normal(4)])
    zero = 0.0 * g
    assert sp.gap_bregman(ANISO, g, zero) == pytest.approx(
        sp.phi_star(ANISO, g), rel=1e-13)


def test_gap_equals_bregman_dual(rng):
    a = sp.ParamVec([rng.standard_normal(4)])
    b = sp.ParamVec([rng.standard_normal(4)])
    assert sp.gap_bregman(ANISO, a, b) == pytest.approx(
        sp.bregman_dual(ANISO, a, -b), abs=1e-14)


def test_gap_zero_implies_alignment(rng):
    # contrapositive sampling: tiny gap forces the vectors to align
    for _ in range(50):
        g = sp.ParamVec([rng.standard_normal(4)])
        v = -g
        assert sp.gap_bregman(ANISO, g, v) <= 1e-14
        assert sp.norm2(g + v) <= 1e-6


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


def test_envelope_zero_spec_is_zero(rng):
    y = sp.ParamVec([rng.standard_normal(5)])
    assert sp.aniso_moreau_env(UNCONSTRAINED, ANISO, 0.7, y) == 0.0


def test_envelope_feasible_point_is_zero():
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    y = pv(0.5, -0.3)
    assert sp.aniso_moreau_env(spec, ANISO, 0.5, y) == 0.0


def test_envelope_matches_1d_grid():
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    gamma = 0.5
    y = pv(1.2)
    val = sp.aniso_moreau_env(spec, ANISO, gamma, y)
    b = sp.Barrier(1.0)
    direct = grid_min_1d(lambda t: gamma * b.h((t - 1.2) / gamma), -1.0, 1.0)
    assert val == pytest.approx(direct, abs=1e-8)


def test_envelope_domain_boundary_1d():
    # dom env = [-1, 1] + gamma*(-1, 1): finite strictly inside, +inf outside
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    gamma = 0.5
    assert math.isfinite(sp.aniso_moreau_env(spec, ANISO, gamma, pv(1.49)))
    assert sp.aniso_moreau_env(spec, ANISO, gamma, pv(1.51)) == math.inf


# ---------------------------------------------------------------------------
# Regularized gap
# ---------------------------------------------------------------------------


def test_reg_gap_zero_at_unconstrained_stationary():
    x = pv(0.0, 0.0)
    g = pv(0.0, 0.0)
    assert sp.regularized_gap(UNCONSTRAINED, ANISO, 0.5, x, g) == pytest.approx(0.0, abs=1e-14)


def test_reg_gap_unconstrained_fenchel_young_reduction(rng):
    # g == 0: the envelope term vanishes and the gap collapses to
    # phi(w) = <grad, w> - phi*(grad) with w the preconditioned gradient
    for _ in range(20):
        x = sp.ParamVec([rng.standard_normal(3)])
        g = sp.ParamVec([rng.standard_normal(3)])
        val = sp.regularized_gap(UNCONSTRAINED, ANISO, 0.7, x, g)
        w = sp.precondition(ANISO, g)
        direct = sp.dot(g, w) - sp.phi_star(ANISO, g)
        assert val == pytest.approx(direct, abs=1e-10)
        assert val == pytest.approx(sp.phi(ANISO, w), abs=1e-10)


def test_reg_gap_nonnegative_on_feasible_points(rng):
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    for _ in range(50):
        x = sp.ParamVec([rng.uniform(-1, 1, 4)])
        g = sp.ParamVec([rng.standard_normal(4)])
        assert sp.regularized_gap(spec, ANISO, 0.5, x, g) >= -1e-10


def test_reg_gap_infeasible_point_rejected():
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    with pytest.raises(sp.InvalidInputError):
        sp.regularized_gap(spec, ANISO, 0.5, pv(2.0), pv(0.1))


def test_gap_measures_at_a_feasible_point():
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    x = pv(0.5, -0.5)
    g = pv(1.0, 2.0)
    assert sp.gap_bregman(ANISO, g, pv(0.0, 0.0)) >= 0.0
    assert sp.regularized_gap(spec, ANISO, 0.5, x, g) >= -1e-12
    w = sp.precondition(ANISO, g)
    assert math.isfinite(sp.aniso_moreau_env(spec, ANISO, 0.5, x - 0.5 * w))


# ---------------------------------------------------------------------------
# Relative-smoothness checker
# ---------------------------------------------------------------------------


class AffineProblem:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.L = 1.0
        self.F_star_hint = None

    @property
    def shapes(self):
        return ((self.c.size,),)

    def f(self, x):
        return float(self.c @ x[0])

    def grad_f(self, x):
        return sp.ParamVec([self.c.copy()])


def test_checker_affine_always_passes(rng):
    prob = AffineProblem(rng.standard_normal(3))
    for L in (0.05, 1.0, 20.0):
        rep = sp.check_aniso_descent(prob, ANISO, L, 100, np.random.default_rng(0))
        assert rep.violations == 0
        assert rep.passed


def test_checker_equality_at_anchor(rng):
    # x == x_bar makes both sides equal by construction
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    ref = ANISO
    x_bar = sp.ParamVec([rng.standard_normal(3)])
    w = sp.precondition(ref, prob.grad_f(x_bar))
    L = 4.0
    y_bar = x_bar - (1.0 / L) * w
    lhs = prob.f(x_bar)
    rhs = prob.f(x_bar) + (1 / L) * sp.phi(ref, w) - (1 / L) * sp.phi(ref, w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_checker_1d_quadratic_threshold():
    # f = t^2/2 with a radial barrier: tiny L violates, large L passes
    prob = sp.QuadraticProblem(A=np.eye(1), b=np.zeros(1), L=1.0, F_star_hint=0.0)
    ref = ISO
    bad = sp.check_aniso_descent(prob, ref, 0.01, 400, np.random.default_rng(7))
    good = sp.check_aniso_descent(prob, ref, 64.0, 400, np.random.default_rng(7))
    assert bad.violations > 0
    assert bad.max_violation > 0.0
    assert good.violations == 0


def test_checker_1d_dense_scan_oracle():
    # dense deterministic scan locates the empirical threshold; the sampled
    # checker must agree on both sides of it
    b = sp.Barrier(1.0)
    prob = sp.QuadraticProblem(A=np.eye(1), b=np.zeros(1), L=1.0, F_star_hint=0.0)

    def violated(L):
        for xbar in np.linspace(-2.0, 2.0, 41):
            w = b.h_star_prime(xbar)  # iso in 1d == aniso in 1d
            ybar = xbar - w / L
            for z in np.linspace(-0.999, 0.999, 81):
                x = ybar + z / L
                rhs = 0.5 * xbar * xbar + (b.h(z) - b.h(w)) / L
                if 0.5 * x * x > rhs + 1e-9:
                    return True
        return False

    assert violated(0.01)
    assert not violated(64.0)


def test_certify_constant_downstream(rng):
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    L = sp.certify_aniso_constant(prob, ANISO, np.random.default_rng(3), n_samples=120)
    assert L >= prob.L
    rep = sp.check_aniso_descent(prob, ANISO, L, 200, np.random.default_rng(4))
    assert rep.passed


def test_sample_interior_point_in_domain(rng):
    for ref, shape in [(ANISO, (6,)), (ISO, (6,)),
                       (sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0)), (3, 4))]:
        for _ in range(20):
            z = sample_interior_point(ref, [shape], rng)
            assert math.isfinite(sp.phi(ref, z))

import math

import numpy as np
import pytest

import specprox as sp
from specprox import harness
from specprox.harness import ExperimentConfig
from oracles import finite_diff_gradient


def test_quadratic_1d_example():
    prob = sp.QuadraticProblem(A=np.eye(1), b=np.zeros(1), L=1.0, F_star_hint=0.0)
    x = sp.ParamVec([np.array([2.0])])
    assert prob.f(x) == pytest.approx(2.0)
    np.testing.assert_allclose(prob.grad_f(x)[0], [2.0])


def test_make_quadratic_conditioning(rng):
    prob = sp.make_quadratic(6, cond=10.0, rng=rng)
    s = np.linalg.svd(prob.A, compute_uv=False)
    assert s[0] == pytest.approx(1.0, rel=1e-12)
    assert s[0] / s[-1] == pytest.approx(10.0, rel=1e-10)
    assert prob.L == 1.0
    assert prob.F_star_hint == 0.0


def test_quadratic_gradient_vs_finite_differences(rng):
    prob = sp.make_quadratic(5, cond=3.0, rng=rng)
    for _ in range(5):
        x = [rng.standard_normal(5)]
        g = prob.grad_f(sp.ParamVec(x))
        fd = finite_diff_gradient(lambda blocks: prob.f(sp.ParamVec(blocks)), x)
        np.testing.assert_allclose(g[0], fd[0], rtol=1e-6, atol=1e-8)


def test_logistic_gradient_vs_finite_differences(rng):
    prob = sp.make_logistic(12, 4, rng=rng)
    for _ in range(20):
        x = [rng.standard_normal(4)]
        g = prob.grad_f(sp.ParamVec(x))
        fd = finite_diff_gradient(lambda blocks: prob.f(sp.ParamVec(blocks)), x)
        err = np.abs(g[0] - fd[0]).max() / max(1.0, np.abs(fd[0]).max())
        assert err <= 1e-6


def test_matrix_quadratic_gradient_vs_finite_differences(rng):
    prob = sp.make_matrix_quadratic(3, 4, rng=rng)
    x = [rng.standard_normal((3, 4))]
    g = prob.grad_f(sp.ParamVec(x))
    fd = finite_diff_gradient(lambda blocks: prob.f(sp.ParamVec(blocks)), x)
    np.testing.assert_allclose(g[0], fd[0], rtol=1e-6, atol=1e-7)
    # analytic form
    expected = prob.A.T @ (prob.A @ x[0] @ prob.B - prob.C) @ prob.B.T
    np.testing.assert_allclose(g[0], expected, atol=1e-12)


@pytest.mark.parametrize("maker,args", [
    (sp.make_quadratic, (6, 4.0)),
    (sp.make_logistic, (10, 5)),
    (sp.make_matrix_quadratic, (3, 4)),
])
def test_lipschitz_certificate(maker, args, rng):
    prob = maker(*args, rng=rng)
    shapes = prob.shapes
    for _ in range(40):
        x = sp.ParamVec([rng.standard_normal(s) for s in shapes])
        z = sp.ParamVec([rng.standard_normal(s) for s in shapes])
        dg = sp.norm2(prob.grad_f(x) - prob.grad_f(z))
        dx = sp.norm2(x - z)
        assert dg <= prob.L * dx * (1.0 + 1e-9)


def test_noise_none_exact(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    x = sp.ParamVec([rng.standard_normal(4)])
    g = sp.GradientOracle(prob, sp.NoiseModel.none(), 0).sample(x, 3)
    assert sp.norm2(g - prob.grad_f(x)) == 0.0


def test_same_token_same_noise_structure(rng):
    # one token = one perturbation: the drawn realization is bit-identical and
    # sample differences therefore match gradient differences to rounding
    noise = sp.NoiseModel.gaussian(1.0)
    n1 = noise.draw(np.random.Generator(np.random.Philox(key=5)), [(4,)], tokens=8)
    n2 = noise.draw(np.random.Generator(np.random.Philox(key=5)), [(4,)], tokens=8)
    assert np.array_equal(n1[0][7], n2[0][7])

    prob = sp.make_quadratic(4, 2.0, rng=rng)
    x1 = sp.ParamVec([rng.standard_normal(4)])
    x2 = sp.ParamVec([rng.standard_normal(4)])
    oracle = sp.GradientOracle(prob, noise, 5)
    g1 = oracle.sample(x1, 7)
    g2 = oracle.sample(x2, 7)
    lhs = g1 - g2
    rhs = prob.grad_f(x1) - prob.grad_f(x2)
    assert sp.norm2(lhs - rhs) <= 1e-14


def test_noise_table_is_prefix_stable_and_chunkable():
    # Token k's noise is row k of the seed's Philox table, whatever the table's
    # length, and a table drawn in two chunks equals one drawn at once.
    for noise in (sp.NoiseModel.gaussian(1.0), sp.NoiseModel.student_t(1.8, 1.0)):
        def table(*chunks):
            rng = np.random.Generator(np.random.Philox(key=9))
            return np.concatenate([noise.draw(rng, [(3,), (2, 2)], tokens=t)[1] for t in chunks])
        long = table(4097)
        assert np.array_equal(table(100), long[:100])
        assert np.array_equal(table(37, 63), long[:100])
        scale = noise.scale_for(7)
        want = scale * (np.random.Generator(np.random.Philox(key=9)).standard_normal((5, 7))
                        if noise.kind == "gaussian" else
                        np.random.Generator(np.random.Philox(key=9)).standard_t(1.8, (5, 7)))
        assert np.array_equal(table(5).reshape(5, 4), want[:, 3:])


def test_batch_oracle_rows_match_single_seed_oracles(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    noise = sp.NoiseModel.student_t(1.8, 1.0)
    x = sp.ParamVec([rng.standard_normal((3, 4))], lead=1)
    batch = sp.GradientOracle(prob, noise, (11, 12, 13), tokens=5)
    for token in (0, 4, 9, 2):  # 9 draws the next chunk, 2 the first one again
        g = batch.sample(x, token)
        for i in range(3):
            single = sp.GradientOracle(prob, noise, 11 + i).sample(x.row(i), token)
            assert np.array_equal(g[0][i], single[0])


def test_token_999_is_not_the_problem_stream():
    # The problem instance of seed s is drawn from SeedSequence(s, spawn_key=(999,));
    # token 999's noise of seed s must be independent of it.  With sigma = sqrt(n)
    # the noise scale is exactly 1, so the noise is the raw normal draw.
    n, s = 8, 5
    cfg = ExperimentConfig(problem="quadratic", n=n, noise="gaussian", sigma=math.sqrt(n), seed=s)
    problem = harness.build_problem(cfg)
    oracle = sp.GradientOracle(problem, harness.build_noise(cfg), s)
    noise_999 = oracle.perturb(sp.zeros(problem.shapes), 999)[0]
    stream = np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(999,)))
    first_row = stream.standard_normal((n, n))[0]
    assert not np.array_equal(noise_999, first_row)


def test_different_tokens_different_noise(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    noise = sp.NoiseModel.gaussian(1.0)
    x = sp.ParamVec([rng.standard_normal(4)])
    oracle = sp.GradientOracle(prob, noise, 5)
    g1 = oracle.sample(x, 1)
    g2 = oracle.sample(x, 2)
    assert sp.norm2(g1 - g2) > 0.0


def test_gaussian_second_moment_budget(rng):
    noise = sp.NoiseModel.gaussian(0.5)
    draws = [noise.draw(np.random.default_rng(i), [(8,)]) for i in range(4000)]
    sq = np.mean([sp.norm2(d) ** 2 for d in draws])
    assert sq == pytest.approx(0.25, rel=0.1)


def test_gaussian_unbiased_mean(rng):
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    noise = sp.NoiseModel.gaussian(0.5)
    x = sp.ParamVec([rng.standard_normal(3)])
    n = 100_000
    oracle = sp.GradientOracle(prob, noise, 9)
    acc = np.zeros(3)
    for tok in range(n):
        acc += oracle.sample(x, tok)[0]
    emp = acc / n
    se = 0.5 / math.sqrt(3) / math.sqrt(n)
    np.testing.assert_array_less(np.abs(emp - prob.grad_f(x)[0]), 4 * se + 1e-12)


def test_student_t_moment_budget():
    noise = sp.NoiseModel.student_t(1.8, sigma=1.0, p_moment=1.5)
    rng = np.random.default_rng(0)
    n = 200_000
    draws = noise.draw(rng, [(6 * n,)])[0].reshape(n, 6)
    norms = np.sqrt((draws ** 2).sum(axis=1))
    p_mom = np.mean(norms ** 1.5)
    assert p_mom <= 1.1  # certified E||noise||^1.5 <= sigma^1.5 = 1
    assert math.isfinite(p_mom)


def test_student_t_variance_diverges():
    # genuinely heavy-tailed regime (infinite variance for df < 2): the typical
    # empirical second moment grows with the sample count, and a single draw
    # carries a non-vanishing share of the total energy
    rng = np.random.default_rng(1)
    med_small = np.median([np.mean(rng.standard_t(1.8, 2000) ** 2) for _ in range(30)])
    med_big = np.median([np.mean(rng.standard_t(1.8, 200_000) ** 2) for _ in range(30)])
    assert med_big > 1.2 * med_small
    x = rng.standard_t(1.8, 1_000_000) ** 2
    assert x.max() / x.sum() > 0.005  # Gaussian reference is ~2e-5 here


def test_noise_model_validation():
    with pytest.raises(sp.InvalidConfigError):
        sp.NoiseModel.gaussian(0.0)
    with pytest.raises(sp.InvalidConfigError):
        sp.NoiseModel.student_t(1.4, sigma=1.0, p_moment=1.5)  # df <= p
    with pytest.raises(sp.InvalidConfigError):
        sp.NoiseModel.student_t(3.0, sigma=1.0, p_moment=2.5)


def test_oracle_counts_calls(rng):
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    orc = sp.GradientOracle(prob, sp.NoiseModel.gaussian(1.0), seed=3)
    x = sp.ParamVec([np.zeros(3)])
    orc.sample(x, 0)
    orc.sample(x, 1)
    assert orc.calls == 2


def test_problem_construction_validation(rng):
    with pytest.raises(sp.InvalidConfigError):
        sp.make_quadratic(0, 2.0, rng)
    with pytest.raises(sp.InvalidConfigError):
        sp.make_quadratic(3, 0.5, rng)

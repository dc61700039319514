import math

import numpy as np
import pytest

import specprox as sp

ANISO = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
UNCONSTRAINED = sp.ConstraintSpec.unconstrained()


def pv(*vals):
    return sp.ParamVec([np.array(vals, dtype=float)])


def quad_1d():
    return sp.QuadraticProblem(A=np.eye(1), b=np.zeros(1), L=1.0, F_star_hint=0.0)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_zero_spec_closed_form(rng):
    x = sp.ParamVec([rng.standard_normal(4)])
    d = sp.ParamVec([rng.standard_normal(4)])
    gamma = 0.4
    x_next, y, sub = sp.step(x, d, gamma, ANISO, UNCONSTRAINED)
    expected = x - gamma * sp.precondition(ANISO, d)
    assert sp.norm2(x_next - expected) <= 1e-15
    assert sp.norm2(x_next - y) <= 1e-15
    assert sp.norm2(sub) == 0.0


def test_step_zero_direction_fixed_point():
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    x = pv(0.3, -0.9)
    x_next, _, _ = sp.step(x, pv(0.0, 0.0), 0.5, ANISO, spec)
    assert sp.norm2(x_next - x) == 0.0


def test_step_worked_example():
    x_next, _, _ = sp.step(pv(0.0, 0.0), pv(1.0, -3.0), 1.0, ANISO, UNCONSTRAINED)
    np.testing.assert_allclose(x_next[0], [-0.5, 0.75], atol=1e-15)


def test_step_bound_and_feasibility(rng):
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    D = ANISO.domain_radius([(5,)])
    for _ in range(30):
        x = sp.ParamVec([rng.uniform(-1, 1, 5)])
        d = sp.ParamVec([10.0 * rng.standard_normal(5)])
        gamma = float(rng.uniform(0.05, 1.0))
        x_next, _, _ = sp.step(x, d, gamma, ANISO, spec)
        assert sp.norm2(x_next - x) <= 2 * gamma * D + 1e-12
        assert sp.feasibility_error(spec, x_next) <= 1e-9


def test_step_gamma_validation():
    with pytest.raises(sp.InvalidConfigError):
        sp.step(pv(0.0), pv(1.0), 0.0, ANISO, UNCONSTRAINED)


# ---------------------------------------------------------------------------
# polar express step
# ---------------------------------------------------------------------------


def test_polar_step_zero_direction():
    x = pv(1.0, 2.0)
    out = sp.polar_express_step(x, pv(0.0, 0.0), 0.5, ANISO, eps_hat=0.3)
    assert sp.norm2(out - x) == 0.0


def test_polar_step_scalar_example():
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.HyperKappa(3e-4, 4.0))
    out = sp.polar_express_step(pv(0.0), pv(1.0), 1.0, ref, eps_hat=1.0)
    expected = -0.5 / ((3e-4) ** 4 + 0.5 ** 4) ** 0.25
    assert out[0][0] == pytest.approx(expected, rel=1e-13)
    assert abs(out[0][0] + 1.0) < 2e-13


def test_polar_step_scaling_invariance(rng):
    # for |d| >> eps_hat the update approaches the pure normalized step
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.HyperKappa(3e-4, 4.0))
    x = sp.ParamVec([rng.standard_normal(4)])
    d = sp.ParamVec([rng.standard_normal(4)])
    eps_hat = 0.01
    limit = x - 0.5 * sp.precondition(ref, d * (1.0 / sp.norm2(d)))
    prev_gap = math.inf
    for c in (10.0, 1e3, 1e6):
        out = sp.polar_express_step(x, c * d, 0.5, ref, eps_hat)
        gap = sp.norm2(out - limit)
        assert gap <= prev_gap + 1e-15
        prev_gap = gap
    assert prev_gap <= 1e-6


def test_polar_step_poly_surrogate_runs(rng):
    sched = sp.load_schedule("newton-schulz")
    x = sp.ParamVec([rng.standard_normal((3, 3))])
    d = sp.ParamVec([rng.standard_normal((3, 3))])
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.HyperKappa(3e-4, 4.0))
    out = sp.polar_express_step(x, d, 0.1, ref, eps_hat=0.1, poly_schedule=sched)
    assert sp.norm2(out - x) > 0.0


# ---------------------------------------------------------------------------
# run: deterministic mode
# ---------------------------------------------------------------------------


def test_run_horizon_zero():
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED,
                       mode=sp.Deterministic(gamma=0.1, K=0), seed=0, x0=pv(1.0))
    tr = sp.run(cfg, quad_1d())
    assert len(tr) == 1
    assert tr.final_x[0][0] == pytest.approx(0.95)
    assert tr.records[0].F == pytest.approx(0.5)


def test_run_deterministic_monotone_descent():
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED,
                       mode=sp.Deterministic(gamma=0.1, K=19), seed=0, x0=pv(1.0))
    tr = sp.run(cfg, quad_1d())
    F = tr.column("F")
    assert all(b < a for a, b in zip(F[:-1], F[1:]))
    assert len(tr) == 20
    assert all(math.isfinite(r.gap_bregman) for r in tr.records)


def test_run_infeasible_start_rejected():
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    cfg = sp.RunConfig(ref=ANISO, spec=spec,
                       mode=sp.Deterministic(gamma=0.1, K=3), seed=0, x0=pv(2.0))
    with pytest.raises(sp.InvalidConfigError):
        sp.run(cfg, quad_1d())


def test_run_fixed_point_has_small_gap(rng):
    # drive to numerical convergence, then tiny steps imply tiny bregman gap
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.Barrier(1.0))
    cfg = sp.RunConfig(ref=ref, spec=UNCONSTRAINED,
                       mode=sp.Deterministic(gamma=0.9, K=2500), seed=0,
                       x0=sp.ParamVec([np.zeros(3)]))
    tr = sp.run(cfg, prob)
    last = tr.records[-1]
    assert last.step_norm <= 1e-12
    assert last.gap_bregman <= 1e-8


def test_run_records_reg_gap_and_iterates(rng):
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED,
                       mode=sp.Deterministic(gamma=0.5, K=10), seed=0,
                       x0=sp.ParamVec([np.zeros(3)]))
    tr = sp.run(cfg, prob, record_reg_gap=True, record_iterates=True)
    assert all(r.reg_gap is not None and r.reg_gap >= -1e-10 for r in tr.records)
    assert len(tr.iterates) == len(tr) + 1
    assert sp.norm2(tr.iterates[-1] - tr.final_x) == 0.0


# ---------------------------------------------------------------------------
# run: stochastic modes
# ---------------------------------------------------------------------------


def test_polyak_run_replay_and_tokens(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    cfg = sp.RunConfig(ref=ANISO, spec=spec, mode=sp.StochasticPolyak(K=30), seed=42,
                       x0=sp.feasible_start(spec, prob.shapes))
    noise = sp.NoiseModel.gaussian(0.7)
    t1 = sp.run(cfg, prob, noise=noise)
    t2 = sp.run(cfg, prob, noise=noise)
    assert t1.column("gap_bregman") == t2.column("gap_bregman")
    assert t1.column("sample_token") == list(range(31))
    alpha, gamma = sp.polyak43(30)
    assert all(r.alpha == alpha and r.gamma == gamma for r in t1.records)
    assert t1.oracle_calls == 31


def test_storm_run_two_calls_per_sample(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED, mode=sp.StochasticStorm(K=20),
                       seed=7, x0=sp.ParamVec([np.zeros(4)]))
    tr = sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(0.5))
    # one call for d0 plus two (new and old point) per remaining iteration
    assert tr.oracle_calls == 1 + 2 * 20
    gammas = tr.column("gamma")
    assert gammas[0] == pytest.approx(1.0)
    assert gammas[7] == pytest.approx(8.0 ** (-2.0 / 3.0))


def test_storm_draws_each_token_once(rng, monkeypatch):
    # One noise table per run, one row per token 0..K; the old-iterate sample of
    # token k+1 reuses the row drawn for the new one.
    draws = []
    draw = sp.NoiseModel.draw

    def counted(self, table_rng, shapes, tokens=None):
        draws.append(tokens)
        return draw(self, table_rng, shapes, tokens)

    monkeypatch.setattr(sp.NoiseModel, "draw", counted)
    prob = sp.make_quadratic(5, 2.0, rng=rng)
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED, mode=sp.StochasticStorm(K=100),
                       seed=7, x0=sp.ParamVec([np.zeros(5)]))
    tr = sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(0.5))
    assert draws == [101]
    assert tr.oracle_calls == 1 + 2 * 100


def test_storm_noiseless_tracks_gradient(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED, mode=sp.StochasticStorm(K=15),
                       seed=7, x0=sp.ParamVec([np.zeros(4)]))
    tr = sp.run(cfg, prob, noise=sp.NoiseModel.none())
    assert max(tr.column("dir_error")) <= 1e-12


def test_polyak_feasibility_all_iterates(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    spec = sp.ConstraintSpec(sp.LinfSphere(0.8))
    cfg = sp.RunConfig(ref=ANISO, spec=spec, mode=sp.StochasticPolyak(K=40), seed=3,
                       x0=sp.feasible_start(spec, prob.shapes))
    tr = sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(1.0), record_iterates=True)
    for x in tr.iterates[1:]:
        assert sp.feasibility_error(spec, x) <= 1e-9


def test_polar_mode_requires_unconstrained(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    spec = sp.ConstraintSpec(sp.LinfBall(1.0))
    cfg = sp.RunConfig(ref=ANISO, spec=spec, mode=sp.PolarExpressMode(K=5), seed=0,
                       x0=sp.feasible_start(spec, prob.shapes))
    with pytest.raises(sp.InvalidConfigError):
        sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(1.0))


def test_polar_mode_default_eps_hat(rng):
    prob = sp.make_quadratic(4, 2.0, rng=rng)
    ref = sp.ReferenceFn.uniform(sp.Structure.ANISO, sp.HyperKappa(3e-4, 4.0))
    cfg = sp.RunConfig(ref=ref, spec=UNCONSTRAINED, mode=sp.PolarExpressMode(K=15),
                       seed=0, x0=sp.ParamVec([np.zeros(4)]))
    tr = sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(1.0))
    assert len(tr) == 16
    assert all(math.isfinite(r.gap_bregman) for r in tr.records)
    assert all(math.isfinite(r.F) for r in tr.records)


def test_step_bound_invariant_across_modes(rng):
    prob = sp.make_quadratic(5, 3.0, rng=rng)
    D = ANISO.domain_radius(prob.shapes)
    for mode in (sp.StochasticPolyak(K=25), sp.StochasticStorm(K=25)):
        cfg = sp.RunConfig(ref=ANISO, spec=sp.ConstraintSpec(sp.L2Ball(2.0)),
                           mode=mode, seed=11,
                           x0=sp.ParamVec([np.zeros(5)]))
        tr = sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(1.0))
        for r in tr.records:
            assert r.step_norm <= 2 * r.gamma * D + 1e-12


def test_spectral_run_on_matrix_problem(rng):
    prob = sp.make_matrix_quadratic(3, 2, rng=rng)
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    spec = sp.ConstraintSpec(sp.SpectralBall(1.0))
    cfg = sp.RunConfig(ref=ref, spec=spec, mode=sp.StochasticPolyak(K=15), seed=2,
                       x0=sp.feasible_start(spec, prob.shapes))
    tr = sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(0.5), record_iterates=True)
    for x in tr.iterates[1:]:
        assert sp.feasibility_error(spec, x) <= 1e-9
    assert all(math.isfinite(r.gap_bregman) for r in tr.records)


def test_spectral_iteration_factors_two_full_and_two_sigma_only(rng, monkeypatch):
    # Per iteration: full SVDs of d (forward step) and y (backward step), and
    # sigma-only factorizations of g_next (phi_star in the gap) and x_next
    # (feasibility).  z, the subgradient and the rest of the gap reuse y's basis.
    from specprox import tensor

    counts = {"full": 0, "sigma": 0}
    jacobi = tensor._jacobi

    def counted(B, V=None):
        counts["sigma" if V is None else "full"] += 1
        return jacobi(B, V)

    monkeypatch.setattr(tensor, "_jacobi", counted)
    prob = sp.make_matrix_quadratic(4, 3, rng=rng)
    ref = sp.ReferenceFn.uniform(sp.Structure.SPECTRAL_ANISO, sp.Barrier(1.0))
    spec = sp.ConstraintSpec(sp.SpectralBall(1.0))

    def factorizations(K):
        counts.update(full=0, sigma=0)
        cfg = sp.RunConfig(ref=ref, spec=spec, mode=sp.StochasticPolyak(K=K), seed=2,
                           x0=sp.feasible_start(spec, prob.shapes))
        sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(0.5))
        return dict(counts)

    short, long = factorizations(3), factorizations(11)
    assert long["full"] - short["full"] <= 2 * 8
    assert long["sigma"] - short["sigma"] <= 2 * 8
    assert long["full"] <= 2 * 12 and long["sigma"] <= 2 * 12 + 1  # + the check of x0


def test_row_failure_names_iteration_seed_mode_and_block(monkeypatch):
    # Row 1 of a 3-seed run leaves the constraint set at the first step; the
    # error says which run failed, where, and in which block.
    from specprox import harness, optimizer

    backward_step = optimizer.backward_step

    def push_row_1_out(spec, ref, y, gamma):
        x_next, z = backward_step(spec, ref, y, gamma)
        x_next[0][1] += 10.0
        return x_next, z

    monkeypatch.setattr(optimizer, "backward_step", push_row_1_out)
    cfg = harness.ExperimentConfig(problem="quadratic", n=5, noise="gaussian", mode="polyak", K=4,
                                   constraint="linf-ball", radius=1.0, seed=3, repetitions=3)
    with pytest.raises(sp.NumericalError, match="constraint set") as exc:
        harness.execute(cfg)
    assert (exc.value.k, exc.value.seed, exc.value.block) == (0, 4, 0)
    assert exc.value.mode == harness.build_mode(cfg)
    assert "seed 4" in str(exc.value)


def test_step_bound_failure_names_its_run(monkeypatch):
    from specprox import optimizer

    precondition = optimizer.precondition
    monkeypatch.setattr(optimizer, "precondition", lambda ref, d: 100.0 * precondition(ref, d))
    prob = sp.make_quadratic(4, 2.0, rng=np.random.default_rng(0))
    mode = sp.StochasticPolyak(K=3)
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED, mode=mode, seed=20,
                       x0=sp.ParamVec([np.zeros(4)]))
    with pytest.raises(sp.NumericalError, match="step bound") as exc:
        sp.run(cfg, prob, noise=sp.NoiseModel.gaussian(1.0))
    assert (exc.value.k, exc.value.seed, exc.value.mode, exc.value.block) == (0, 20, mode, 0)


def test_run_batch_rows_record_like_single_runs(rng):
    # Regularized gaps and iterates come per row, as the single run records them.
    prob = sp.make_quadratic(3, 2.0, rng=rng)
    spec = sp.ConstraintSpec(sp.LinfBall(0.5))
    cfg = sp.RunConfig(ref=ANISO, spec=spec, mode=sp.Deterministic(gamma=0.5, K=6), seed=4,
                       x0=sp.ParamVec([np.zeros(3)]))
    batch = sp.run_batch(cfg, prob, repetitions=3, record_reg_gap=True, record_iterates=True)
    assert [t.seed for t in batch] == [4, 5, 6]
    single = sp.run(cfg, prob, record_reg_gap=True, record_iterates=True)
    for trace in batch:
        assert trace.column("reg_gap") == single.column("reg_gap")
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(trace.iterates, single.iterates))


def test_chunked_noise_table_gives_the_same_run(rng, monkeypatch):
    # A table too large to hold at once is drawn chunk by chunk, with the same bytes.
    from specprox import problems
    from specprox.harness import traces_to_csv

    prob = sp.make_quadratic(4, 2.0, rng=rng)
    cfg = sp.RunConfig(ref=ANISO, spec=UNCONSTRAINED, mode=sp.StochasticStorm(K=40), seed=9,
                       x0=sp.ParamVec([np.zeros(4)]))
    noise = sp.NoiseModel.student_t(1.8, 1.0)
    whole = traces_to_csv(sp.run_batch(cfg, prob, noise, repetitions=3))
    monkeypatch.setattr(problems, "_TABLE_FLOATS", 4 * 3 * 7)  # 7 tokens per chunk
    assert traces_to_csv(sp.run_batch(cfg, prob, noise, repetitions=3)) == whole

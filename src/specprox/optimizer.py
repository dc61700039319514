"""The main iteration: preconditioned forward step plus anisotropic backward step.

One step moves from x to

    y      = x - gamma * precondition(d)
    x_next = argmin_x g(x) + gamma*phi((x - y)/gamma)

with d a (possibly stochastic) direction.  ``run_batch`` drives one loop for
all four modes.  A mode is a frozen value whose ``schedule(k)`` gives the pair
(alpha_k, gamma_k).  Each iteration takes the prox step above, or for the
normalized mode the step that divides d by its norm before preconditioning,
and then replaces d by the true gradient, a Polyak momentum update or a
recursive two-evaluation update.  The diagnostics (gap, gradient norm) use
the true gradient; a stochastic update sees it only through an oracle sample,
the true gradient plus token noise.  grad_f(x^{k+1}) is evaluated once and
serves the gap of step k, step k+1 and the token-(k+1) samples.

The loop runs R seeds at once: every iterate, direction and gradient is a
batch whose blocks carry one leading axis of R rows, and every kernel works
row by row, so row i of an R-seed run is byte for byte the run of its seed
alone.  ``run`` is the one-row batch.  Every run is replayable from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .direction import polyak43, polyak_update, storm45, storm_update
from .errors import InvalidConfigError, NumericalError
from .prox import ConstraintSpec, Zero, backward_step, feasibility_error, recover_subgradient
from .problems import GradientOracle, NoiseModel
from .reference import ReferenceFn, precondition
from .stationarity import FEASIBILITY_TOL, gap_bregman, regularized_gap
from .tensor import ParamVec, norm2, trailing_sum

STEP_BOUND_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deterministic:
    """Full-gradient mode with a constant stepsize."""

    gamma: float
    K: int

    def schedule(self, k: int) -> tuple[float, float]:
        return 1.0, self.gamma


@dataclass(frozen=True)
class StochasticPolyak:
    """Polyak momentum with the horizon-tuned schedule."""

    K: int
    gamma_bar: float = 1.0

    def schedule(self, k: int) -> tuple[float, float]:
        return polyak43(self.K, self.gamma_bar)


@dataclass(frozen=True)
class StochasticStorm:
    """Recursive momentum with per-iteration schedule."""

    K: int
    gamma_bar: float = 1.0

    def schedule(self, k: int) -> tuple[float, float]:
        return storm45(k, self.gamma_bar)


@dataclass(frozen=True)
class PolarExpressMode:
    """Normalized-direction mode; requires an unconstrained spec.

    ``eps_hat`` defaults to (K+1)^(-1/4).  ``poly_schedule`` swaps the exact
    preconditioner of the normalized direction for an odd-polynomial
    surrogate; surrogate runs are diagnostics only.
    """

    K: int
    eps_hat: Optional[float] = None
    gamma_bar: float = 1.0
    poly_schedule: Optional[object] = None

    def schedule(self, k: int) -> tuple[float, float]:
        return polyak43(self.K, self.gamma_bar)


@dataclass(frozen=True)
class RunConfig:
    ref: ReferenceFn
    spec: ConstraintSpec
    mode: object
    seed: int
    x0: ParamVec


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration diagnostics.

    ``F`` and ``grad_norm`` are evaluated at the pre-step iterate x^k; the gap
    is the dual Bregman gap at the post-step iterate x^{k+1}, the quantity
    whose time average the stochastic analysis bounds.  ``dir_error`` is
    ||d^k - grad_f(x^k)||, a diagnostic that needs true-gradient access.
    """

    k: int
    F: float
    gap_bregman: float
    step_norm: float
    gamma: float
    alpha: float
    grad_norm: float
    dir_error: float
    sample_token: Optional[int]
    reg_gap: Optional[float] = None


@dataclass
class Trace:
    mode: object  # the run's mode value
    seed: int
    records: list[TraceRecord] = field(default_factory=list)
    oracle_calls: int = 0
    final_x: Optional[ParamVec] = None
    iterates: Optional[list[ParamVec]] = None

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]

    def time_averaged_gap(self) -> float:
        return sum(r.gap_bregman for r in self.records) / len(self.records)

    def time_averaged_grad_norm(self) -> float:
        return sum(r.grad_norm for r in self.records) / len(self.records)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def step(x: ParamVec, d: ParamVec, gamma: float, ref: ReferenceFn,
         spec: ConstraintSpec) -> tuple[ParamVec, ParamVec, ParamVec]:
    """One forward-backward step: (x_next, y, subgradient, spectral-aniso blocks factored).

    ``x`` and ``d`` may be batches; each row steps on its own.  The run loop
    checks the step bound and the feasibility of ``x_next``.
    """
    if gamma <= 0.0:
        raise InvalidConfigError("gamma must be positive")
    y = x - gamma * precondition(ref, d)
    x_next, z = backward_step(spec, ref, y, gamma)
    return x_next, y, recover_subgradient(x_next, y, gamma, ref, z=z)


def polar_express_step(x: ParamVec, d: ParamVec, gamma: float, ref: ReferenceFn,
                       eps_hat: float, poly_schedule=None) -> ParamVec:
    """Normalized step x - gamma * precondition(d / (||d|| + eps_hat)), row by row.

    With a polynomial schedule the preconditioner of the normalized direction
    is replaced by the matrix polynomial surrogate (diagnostics only).  A zero
    direction leaves x where it is.
    """
    if eps_hat <= 0.0:
        raise InvalidConfigError("eps_hat must be positive")
    if poly_schedule is not None:
        from .polar import apply_poly_block

        return x - gamma * d._new(
            apply_poly_block(poly_schedule, b, eps_hat, e.structure.is_spectral)
            for e, b in zip(ref.block_entries(d), d.blocks))
    return x - gamma * precondition(ref, d * (1.0 / (norm2(d) + eps_hat)))


def _located(error, message: str, k: int, seed: int, mode, block: int):
    """``error`` naming the iteration, seed, mode and block it happened at."""
    exc = error(f"iteration {k}, seed {seed}, mode {mode!r}, block {block}: {message}")
    exc.k, exc.seed, exc.mode, exc.block = k, seed, mode, block
    return exc


def _check_step_bound(x: ParamVec, x_next: ParamVec, gamma: float, radii: list[float],
                      k: int, seeds: list[int], mode) -> np.ndarray:
    """||x_next - x|| per row, each block's move checked against 2*gamma*r (r its domain radius).

    In every block, x - y and y - x_next each stay within gamma*r whatever
    the direction, so a violation means a broken step.
    """
    sq = [trailing_sum(b * b, b.ndim - 1) for b in (x_next - x).blocks]
    for block, (s, r) in enumerate(zip(sq, radii)):
        moved, bound = np.sqrt(s), 2.0 * gamma * r + STEP_BOUND_SLACK
        bad = np.flatnonzero(moved > bound)
        if bad.size:
            row = int(bad[0])
            raise _located(NumericalError, f"step bound violated: moved {moved[row]:.6e} > "
                           f"{bound:.6e} (gamma={gamma:.3e})", k, seeds[row], mode, block)
    return np.sqrt(sum(sq))


def _check_feasible(spec: ConstraintSpec, x: ParamVec, k: int, seeds: list[int], mode) -> None:
    bad = np.flatnonzero(feasibility_error(spec, x) > FEASIBILITY_TOL)
    if bad.size:
        row = int(bad[0])
        point = x.row(row)
        errs = [feasibility_error(ConstraintSpec(tag), point._new((b,)))
                for tag, b in zip(spec.block_tags(point), point.blocks)]
        block = int(np.argmax(errs))
        raise _located(NumericalError, f"iterate left the constraint set by {errs[block]:.3e}",
                       k, seeds[row], mode, block)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _validated_x0(config: RunConfig) -> ParamVec:
    # Raises before the first step if a reference structure does not fit its block.
    config.ref.block_domain_radii(config.x0.shapes)
    err = feasibility_error(config.spec, config.x0)
    if err > FEASIBILITY_TOL:
        raise InvalidConfigError(f"x0 violates the constraint set by {err:.3e}")
    return config.x0


def run(config: RunConfig, problem, noise: Optional[NoiseModel] = None,
        record_reg_gap: bool = False, record_iterates: bool = False) -> Trace:
    """Execute K+1 steps of the configured mode and collect the trace.

    ``noise`` feeds the stochastic modes (ignored in deterministic mode);
    ``None`` means exact gradients.  With ``record_reg_gap`` the regularized
    gap is evaluated at every pre-step iterate (deterministic mode only).
    This is the one-row batch of :func:`run_batch`.
    """
    return run_batch(config, problem, noise, 1, record_reg_gap, record_iterates)[0]


def run_batch(config: RunConfig, problem, noise: Optional[NoiseModel] = None,
              repetitions: int = 1, record_reg_gap: bool = False,
              record_iterates: bool = False) -> list[Trace]:
    """Run seeds ``config.seed + i``, ``i < repetitions``, as one batch; one trace per seed.

    Every row shares the problem, reference, constraint, mode and x0; only its
    noise table differs.  Row i is byte for byte :func:`run` at seed
    ``config.seed + i``.  A step-bound or feasibility failure in any row
    raises, naming the iteration, the row's seed, the mode and the block.
    """
    mode, ref, spec = config.mode, config.ref, config.spec
    noise = noise if noise is not None else NoiseModel.none()
    x0 = _validated_x0(config)
    if not isinstance(mode, (Deterministic, StochasticPolyak, StochasticStorm, PolarExpressMode)):
        raise InvalidConfigError(f"unknown mode {mode!r}")
    if mode.K < 0:
        raise InvalidConfigError("K must be >= 0")
    if repetitions < 1:
        raise InvalidConfigError("repetitions must be >= 1")
    K = mode.K
    seeds = [config.seed + i for i in range(repetitions)]
    radii = ref.block_domain_radii(x0.shapes)
    deterministic = isinstance(mode, Deterministic)
    normalized = isinstance(mode, PolarExpressMode)
    x = ParamVec((np.repeat(b[None], repetitions, axis=0) for b in x0.blocks),
                 validate=False, copy=False, lead=1)
    if normalized:
        if not all(isinstance(tag, Zero) for tag in spec.tags):
            raise InvalidConfigError("normalized mode needs an unconstrained spec")
        eps_hat = mode.eps_hat if mode.eps_hat is not None else (K + 1.0) ** -0.25
        zero_sub = 0.0 * x

    # Direction: the true gradient, or a momentum estimate from token-k samples.
    g = problem.grad_f(x)
    oracle = GradientOracle(problem, noise, tuple(seeds), tokens=K + 1)
    d = g if deterministic else oracle.perturb(g, token=0)

    traces = [Trace(mode=mode, seed=seed) for seed in seeds]
    xs = [x] if record_iterates else None
    for k in range(K + 1):
        alpha, gamma = mode.schedule(k)
        f_here = problem.f(x)
        reg = regularized_gap(spec, ref, gamma, x, g) if record_reg_gap and deterministic else None
        # Step rule: the prox step, or the normalized step of an unconstrained run.
        if normalized:
            x_next = polar_express_step(x, d, gamma, ref, eps_hat,
                                        poly_schedule=mode.poly_schedule)
            subgrad = zero_sub
        else:
            x_next, _, subgrad = step(x, d, gamma, ref, spec)
            _check_feasible(spec, x_next, k, seeds, mode)
        if normalized and mode.poly_schedule is not None:  # the surrogate has no bound
            moved = norm2(x_next - x)
        else:
            moved = _check_step_bound(x, x_next, gamma, radii, k, seeds, mode)
        # grad_f(x^{k+1}) serves this gap, the next samples and iteration k+1.
        g_next = problem.grad_f(x_next)
        gap = gap_bregman(ref, g_next, subgrad)
        dir_error = repeat(0.0) if deterministic else norm2(d - g).tolist()
        reg_gap = repeat(None) if reg is None else reg.tolist()
        token = None if deterministic else k
        for trace, F, gap_k, step_norm, grad_norm, dir_err, reg_k in zip(
                traces, f_here.tolist(), gap.tolist(), moved.tolist(), norm2(g).tolist(),
                dir_error, reg_gap):
            trace.records.append(TraceRecord(k, F, gap_k, step_norm, gamma, alpha, grad_norm,
                                             dir_err, token, reg_k))
        if k < K:
            if deterministic:
                d = g_next
            elif isinstance(mode, StochasticStorm):
                # One fresh sample, evaluated at the new and the old iterate.
                g_new = oracle.perturb(g_next, token=k + 1)
                g_old = oracle.perturb(g, token=k + 1)
                d = storm_update(d, g_new, g_old, mode.schedule(k + 1)[0])
            else:
                d = polyak_update(d, oracle.perturb(g_next, token=k + 1), alpha)
        x, g = x_next, g_next
        if record_iterates:
            xs.append(x)
    for i, trace in enumerate(traces):
        trace.final_x = x.row(i)
        trace.oracle_calls = oracle.calls
        trace.iterates = [xk.row(i) for xk in xs] if record_iterates else None
    return traces

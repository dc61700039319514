"""The main iteration: preconditioned forward step plus anisotropic backward step.

One step moves from x to

    y      = x - gamma * precondition(d)
    x_next = argmin_x g(x) + gamma*phi((x - y)/gamma)

with d a (possibly stochastic) direction.  ``run`` drives one loop for all
four modes.  A mode is a frozen value whose ``schedule(k)`` gives the pair
(alpha_k, gamma_k).  Each iteration takes the prox step above, or for the
normalized mode the step that divides d by its norm before preconditioning,
and then replaces d by the true gradient, a Polyak momentum update or a
recursive two-evaluation update.  Every run is replayable from its seed.  The diagnostics (gap, gradient norm) use
the true gradient; a stochastic update sees it only through an oracle sample,
the true gradient plus token noise.  grad_f(x^{k+1}) is evaluated once and
serves the gap of step k, step k+1 and the token-(k+1) samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .direction import polyak43, polyak_update, storm45, storm_update
from .errors import InvalidConfigError, NumericalError
from .prox import ConstraintSpec, Zero, backward_step, feasibility_error, recover_subgradient
from .problems import GradientOracle, NoiseModel
from .reference import ReferenceFn, precondition
from .stationarity import FEASIBILITY_TOL, gap_bregman, regularized_gap
from .tensor import ParamVec, norm2

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
    """One forward-backward step: (x_next, y, subgradient, spectral-aniso blocks factored)."""
    if gamma <= 0.0:
        raise InvalidConfigError("gamma must be positive")
    y = x - gamma * precondition(ref, d)
    x_next, z = backward_step(spec, ref, y, gamma)
    subgrad = recover_subgradient(x_next, y, gamma, ref, z=z)
    _check_step_bound(x, x_next, gamma, ref)
    return x_next, y, subgrad


def polar_express_step(x: ParamVec, d: ParamVec, gamma: float, ref: ReferenceFn,
                       eps_hat: float, poly_schedule=None) -> ParamVec:
    """Normalized step x - gamma * precondition(d / (||d|| + eps_hat)).

    With a polynomial schedule the preconditioner of the normalized direction
    is replaced by the matrix polynomial surrogate (diagnostics only).
    """
    if eps_hat <= 0.0:
        raise InvalidConfigError("eps_hat must be positive")
    nd = norm2(d)
    if nd == 0.0:
        return x.copy()
    if poly_schedule is not None:
        from .polar import apply_poly_block

        moved = ParamVec(
            (apply_poly_block(poly_schedule, b, eps_hat) for b in d.blocks),
            validate=False, copy=False,
        )
        return x - gamma * moved
    d_eps = d * (1.0 / (nd + eps_hat))
    return x - gamma * precondition(ref, d_eps)


def _check_step_bound(x: ParamVec, x_next: ParamVec, gamma: float, ref: ReferenceFn) -> None:
    # ||x_next - x|| <= 2*gamma*D holds for every direction; a violation
    # indicates a broken backward step.
    bound = 2.0 * gamma * ref.domain_radius(x) + STEP_BOUND_SLACK
    moved = norm2(x_next - x)
    if moved > bound:
        raise NumericalError(
            f"step bound violated: moved {moved:.6e} > {bound:.6e} (gamma={gamma:.3e})"
        )


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


def _check_feasible(spec: ConstraintSpec, x: ParamVec) -> None:
    err = feasibility_error(spec, x)
    if err > FEASIBILITY_TOL:
        raise NumericalError(f"iterate left the constraint set by {err:.3e}")


def run(config: RunConfig, problem, noise: Optional[NoiseModel] = None,
        record_reg_gap: bool = False, record_iterates: bool = False) -> Trace:
    """Execute K+1 steps of the configured mode and collect the trace.

    ``noise`` feeds the stochastic modes (ignored in deterministic mode);
    ``None`` means exact gradients.  With ``record_reg_gap`` the regularized
    gap is evaluated at every pre-step iterate (deterministic mode only).
    """
    mode, ref, spec = config.mode, config.ref, config.spec
    noise = noise if noise is not None else NoiseModel.none()
    x = _validated_x0(config)
    if not isinstance(mode, (Deterministic, StochasticPolyak, StochasticStorm, PolarExpressMode)):
        raise InvalidConfigError(f"unknown mode {mode!r}")
    if mode.K < 0:
        raise InvalidConfigError("K must be >= 0")
    K = mode.K
    deterministic = isinstance(mode, Deterministic)
    normalized = isinstance(mode, PolarExpressMode)
    if normalized:
        if not all(isinstance(tag, Zero) for tag in spec.tags):
            raise InvalidConfigError("normalized mode needs an unconstrained spec")
        eps_hat = mode.eps_hat if mode.eps_hat is not None else (K + 1.0) ** -0.25
        zero_sub = 0.0 * x

    # Direction: the true gradient, or a momentum estimate from token-k samples.
    g = problem.grad_f(x)
    oracle = GradientOracle(problem, noise, config.seed)
    d = g if deterministic else oracle.perturb(g, token=0)

    trace = Trace(mode=mode, seed=config.seed)
    xs = [x] if record_iterates else None
    for k in range(K + 1):
        alpha, gamma = mode.schedule(k)
        f_here = problem.f(x)
        reg = regularized_gap(spec, ref, gamma, x, g) if record_reg_gap and deterministic else None
        # Step rule: the prox step, or the normalized step of an unconstrained run.
        if normalized:
            x_next = polar_express_step(x, d, gamma, ref, eps_hat,
                                        poly_schedule=mode.poly_schedule)
            if mode.poly_schedule is None:
                _check_step_bound(x, x_next, gamma, ref)
            subgrad = zero_sub
        else:
            x_next, _, subgrad = step(x, d, gamma, ref, spec)
            _check_feasible(spec, x_next)
        # grad_f(x^{k+1}) serves this gap, the next samples and iteration k+1.
        g_next = problem.grad_f(x_next)
        trace.records.append(TraceRecord(
            k=k,
            F=f_here,
            gap_bregman=gap_bregman(ref, g_next, subgrad),
            step_norm=norm2(x_next - x),
            gamma=gamma,
            alpha=alpha,
            grad_norm=norm2(g),
            dir_error=0.0 if deterministic else norm2(d - g),
            sample_token=None if deterministic else k,
            reg_gap=reg,
        ))
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
    trace.final_x = x
    trace.oracle_calls = oracle.calls
    trace.iterates = xs
    return trace

"""Stochastic direction estimators: plain sample, Polyak momentum, recursive momentum."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidConfigError
from .tensor import ParamVec, axpy


@dataclass(frozen=True)
class DirectionState:
    """Current direction estimate d^k plus the estimator bookkeeping."""

    d: ParamVec
    kind: str  # "plain" | "polyak" | "storm"
    k: int = 0


def initial_state(kind: str, grad_sample: ParamVec) -> DirectionState:
    """d^0 is the first stochastic gradient sample."""
    if kind not in ("plain", "polyak", "storm"):
        raise InvalidConfigError(f"unknown direction kind {kind!r}")
    return DirectionState(d=grad_sample, kind=kind, k=0)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise InvalidConfigError(f"momentum weight must be in (0, 1], got {alpha}")
    return alpha


def polyak_update(state: DirectionState, grad_sample: ParamVec, alpha: float) -> DirectionState:
    """d_new = alpha * grad_sample + (1 - alpha) * d_old."""
    alpha = _check_alpha(alpha)
    d_new = axpy(alpha, grad_sample, (1.0 - alpha) * state.d)
    return replace(state, d=d_new, k=state.k + 1)


def storm_update(
    state: DirectionState,
    grad_at_x: ParamVec,
    grad_at_xprev_same_sample: ParamVec,
    alpha_k: float,
) -> DirectionState:
    """Recursive momentum with a shared sample at both points.

    d_new = (1 - a) d_old + a grad_at_x + (1 - a)(grad_at_x - grad_at_xprev),
    where both gradients must be evaluated on the same sample; the caller
    holds the previous iterate.
    """
    a = _check_alpha(alpha_k)
    correction = grad_at_x - grad_at_xprev_same_sample
    d_new = axpy(a, grad_at_x, (1.0 - a) * (state.d + correction))
    return replace(state, d=d_new, k=state.k + 1)


def schedule(kind: str, k_or_horizon: int, gamma_bar: float = 1.0) -> tuple[float, float]:
    """Momentum weight and stepsize for the two convergence regimes.

    ``polyak43``: run-constant ``alpha = (K+1)^(-1/2)``,
    ``gamma = gamma_bar * (K+1)^(-3/4)`` given the horizon ``K``.
    ``storm45``: per-iteration ``alpha_k = (k+1)^(-2/3)`` and
    ``gamma_k = gamma_bar * (k+1)^(-2/3)`` given the index ``k``.
    """
    if k_or_horizon < 0:
        raise InvalidConfigError("iteration index / horizon must be >= 0")
    if gamma_bar <= 0.0:
        raise InvalidConfigError("gamma_bar must be positive")
    base = float(k_or_horizon) + 1.0
    if kind == "polyak43":
        return base ** -0.5, gamma_bar * base ** -0.75
    if kind == "storm45":
        a = base ** (-2.0 / 3.0)
        return a, gamma_bar * a
    raise InvalidConfigError(f"unknown schedule kind {kind!r}")

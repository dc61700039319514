"""Stochastic direction estimators and their schedules.

A direction is a plain :class:`~specprox.tensor.ParamVec`; each update takes
the direction ``d`` and returns the next one.
"""

from __future__ import annotations

from .errors import InvalidConfigError
from .tensor import ParamVec, axpy


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise InvalidConfigError(f"momentum weight must be in (0, 1], got {alpha}")
    return alpha


def polyak_update(d: ParamVec, sample: ParamVec, alpha: float) -> ParamVec:
    """d_new = alpha * sample + (1 - alpha) * d."""
    alpha = _check_alpha(alpha)
    return axpy(alpha, sample, (1.0 - alpha) * d)


def storm_update(d: ParamVec, g_new: ParamVec, g_old: ParamVec, alpha: float) -> ParamVec:
    """Recursive momentum with a shared sample at both points.

    d_new = (1 - a) d + a g_new + (1 - a)(g_new - g_old), where ``g_new`` and
    ``g_old`` are the same sample evaluated at the new and the old iterate.
    """
    a = _check_alpha(alpha)
    correction = g_new - g_old
    return axpy(a, g_new, (1.0 - a) * (d + correction))


def _base(k_or_horizon: int, gamma_bar: float) -> float:
    if k_or_horizon < 0:
        raise InvalidConfigError("iteration index / horizon must be >= 0")
    if gamma_bar <= 0.0:
        raise InvalidConfigError("gamma_bar must be positive")
    return float(k_or_horizon) + 1.0


def polyak43(K: int, gamma_bar: float = 1.0) -> tuple[float, float]:
    """Run-constant ``alpha = (K+1)^(-1/2)``, ``gamma = gamma_bar * (K+1)^(-3/4)`` for horizon K."""
    base = _base(K, gamma_bar)
    return base ** -0.5, gamma_bar * base ** -0.75


def storm45(k: int, gamma_bar: float = 1.0) -> tuple[float, float]:
    """Per-iteration ``alpha_k = (k+1)^(-2/3)``, ``gamma_k = gamma_bar * (k+1)^(-2/3)``."""
    a = _base(k, gamma_bar) ** (-2.0 / 3.0)
    return a, gamma_bar * a

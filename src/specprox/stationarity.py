"""Stationarity measures: dual Bregman gap, regularized gap, Moreau-type envelope.

The dual Bregman gap ``D_{phi*}(grad_f(x), -v)`` with ``v`` a subgradient of
``g`` at ``x`` vanishes exactly at first-order stationary points of ``f + g``.
The regularized gap is its deterministic counterpart built from the
anisotropic envelope of ``g``; it is nonnegative and certifies the
per-iteration sufficient decrease of the deterministic method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .prox import ConstraintSpec, backward_step, feasibility_error
from .reference import ReferenceFn, Structure, bregman_dual, phi, precondition
from .tensor import ParamVec, singular_values_batch

FEASIBILITY_TOL = 1e-9


def gap_bregman(ref: ReferenceFn, grad_f: ParamVec, subgrad_g: ParamVec) -> float:
    """D_{phi*}(grad_f, -subgrad_g); zero iff -grad_f = subgrad_g."""
    return bregman_dual(ref, grad_f, -subgrad_g)


def aniso_moreau_env(spec: ConstraintSpec, ref: ReferenceFn, gamma: float, y: ParamVec) -> float:
    """Value of the envelope inf_x g(x) + gamma*phi((x-y)/gamma).

    Evaluated at the backward-step minimizer; +inf when y is out of reach of
    the constraint set within the scaled domain of phi.
    """
    # g = 0 at the backward step's point, which the indicator's set contains.
    return gamma * phi(ref, backward_step(spec, ref, y, gamma)[1])


def regularized_gap(spec: ConstraintSpec, ref: ReferenceFn, gamma: float,
                    x: ParamVec, grad_f: ParamVec) -> float:
    """Regularized gap at a feasible point (one value per row of a batch).

    (1/gamma)*[g(x) + gamma*phi(w) - env(x - gamma*w)] with
    w = precondition(grad_f); nonnegative, zero at stationary points.
    """
    if np.any(feasibility_error(spec, x) > FEASIBILITY_TOL):
        raise InvalidInputError("regularized_gap needs a feasible point")
    w = precondition(ref, grad_f)
    y = x - gamma * w
    return phi(ref, w) - aniso_moreau_env(spec, ref, gamma, y) / gamma


# ---------------------------------------------------------------------------
# Sampled relative-smoothness checker
# ---------------------------------------------------------------------------


def sample_interior_point(ref: ReferenceFn, shapes, rng: np.random.Generator,
                          margin: float = 1e-3) -> ParamVec:
    """Random point strictly inside the domain of phi (per-block margin)."""
    shapes = list(shapes)
    blocks = []
    for i, shape in enumerate(shapes):
        e = ref.entry(i, len(shapes))
        cap = 1.0 - margin
        if e.structure is Structure.ANISO:
            blocks.append(rng.uniform(-cap, cap, size=shape))
        else:
            # A random direction, scaled to a uniform fraction of the domain
            # radius in the block's own norm: sigma_max, or the 2-norm.
            g = rng.standard_normal(shape)
            if e.structure is Structure.SPECTRAL_ANISO:
                size = float(singular_values_batch(g[None])[0, 0])
            else:
                size = math.sqrt(float(np.vdot(g, g)))
            blocks.append((cap * rng.uniform() / max(size, 1e-300)) * g)
    return ParamVec(blocks, validate=False, copy=False)


@dataclass(frozen=True)
class DescentCheckReport:
    """Outcome of the sampled majorization check at a candidate constant."""

    L_candidate: float
    n_samples: int
    violations: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_aniso_descent(problem, ref: ReferenceFn, L_candidate: float,
                        n_samples: int, rng: np.random.Generator,
                        anchor_scale: float = 1.0, tol: float = 1e-9) -> DescentCheckReport:
    """Sampled test of the relative majorization property at constant L.

    Draws anchors x_bar, forms y_bar = x_bar - (1/L)*precondition(grad_f(x_bar)),
    perturbs to x = y_bar + z/L with z sampled inside dom phi, and verifies

        f(x) <= f(x_bar) + (1/L)*phi(L*(x - y_bar)) - (1/L)*phi(L*(x_bar - y_bar)).
    """
    if L_candidate <= 0.0:
        raise InvalidInputError("L_candidate must be positive")
    shapes = problem.shapes
    violations = 0
    max_violation = 0.0
    inv_l = 1.0 / L_candidate
    for _ in range(n_samples):
        x_bar = ParamVec((anchor_scale * rng.standard_normal(s) for s in shapes),
                         validate=False, copy=False)
        w = precondition(ref, problem.grad_f(x_bar))
        y_bar = x_bar - inv_l * w
        z = sample_interior_point(ref, shapes, rng, margin=1e-6)
        x = y_bar + inv_l * z
        rhs = problem.f(x_bar) + inv_l * phi(ref, z) - inv_l * phi(ref, w)
        gap = problem.f(x) - rhs
        if gap > tol:
            violations += 1
            max_violation = max(max_violation, gap)
    return DescentCheckReport(
        L_candidate=float(L_candidate),
        n_samples=n_samples,
        violations=violations,
        max_violation=max_violation,
    )


def certify_aniso_constant(problem, ref: ReferenceFn, rng: np.random.Generator,
                           n_samples: int = 200, L0: Optional[float] = None,
                           max_doublings: int = 40) -> float:
    """Smallest power-of-two multiple of L0 passing the sampled check."""
    L = float(L0 if L0 is not None else getattr(problem, "L", 1.0))
    for _ in range(max_doublings):
        report = check_aniso_descent(problem, ref, L, n_samples, rng)
        if report.passed:
            return L
        L *= 2.0
    raise InvalidInputError("no anisotropic smoothness constant certified")

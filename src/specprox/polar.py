"""Odd-polynomial matrix-sign iterations and their fit against the preconditioner.

A schedule is an ordered list of quintic coefficient triples ``(a, b, c)``;
iteration ``i`` maps ``t -> a*t + b*t^3 + c*t^5`` and the whole schedule is
their composition.  On matrices the same map acts on singular values:
``M -> M (aI + bG + cG^2)`` with ``G = M^T M``, after normalizing the input by
its Frobenius norm plus a damping constant.  A stack of matrices is mapped
matrix by matrix with stacked products.

``fit_report`` measures how closely a composed schedule tracks the bounded
preconditioner ``t -> t/(eps^kappa + t^kappa)^(1/kappa)`` versus the hard sign
(with 0 mapped to 0) on a grid of the unit interval.

The coefficient files shipped under ``schedules/`` are external configuration
data transcribed from published optimizer implementations, not values derived
here; swap in your own file to study a different pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .reference import HyperKappa
from .tensor import trailing_sum

DEFAULT_SCHEDULE = "newton-schulz"
SHIPPED_SCHEDULES = ("newton-schulz", "muon-quintic", "varying-quintic")


@dataclass(frozen=True)
class PolySchedule:
    """Named list of odd-quintic coefficient triples applied in order."""

    name: str
    iterations: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        for trip in self.iterations:
            if len(trip) != 3 or not all(math.isfinite(c) for c in trip):
                raise InvalidConfigError(f"bad coefficient triple {trip!r}")

    @classmethod
    def from_text(cls, text: str, name: str = "custom") -> "PolySchedule":
        """Parse one iteration per line: three decimal coefficients.

        Blank lines and ``#`` comments are ignored.
        """
        triples = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InvalidConfigError(
                    f"schedule line {lineno}: expected three coefficients, got {len(parts)}"
                )
            try:
                triples.append(tuple(float(p) for p in parts))
            except ValueError as exc:
                raise InvalidConfigError(f"schedule line {lineno}: {exc}") from exc
        return cls(name=name, iterations=tuple(triples))


def load_schedule(name_or_path: str = DEFAULT_SCHEDULE) -> PolySchedule:
    """Load a shipped schedule by name, or any coefficient file by path."""
    if name_or_path in SHIPPED_SCHEDULES:
        fname = name_or_path.replace("-", "_") + ".txt"
        text = resources.files("specprox.schedules").joinpath(fname).read_text()
        return PolySchedule.from_text(text, name=name_or_path)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read schedule {name_or_path!r}: {exc}") from exc
    return PolySchedule.from_text(text, name=name_or_path)


def apply_poly_scalar(schedule: PolySchedule, t):
    """Composition of the schedule's odd quintics at scalar(s) t."""
    x = np.asarray(t, dtype=float)
    scalar_in = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    for a, b, c in schedule.iterations:
        x2 = x * x
        x = x * (a + x2 * (b + c * x2))
    return float(x[0]) if scalar_in else x


def apply_poly_matrix(schedule: PolySchedule, M, eps_hat: float) -> np.ndarray:
    """Normalized matrix iteration; singular vectors are preserved.

    The input (a matrix, or a stack of them) is scaled by
    ``1/(||M||_F + eps_hat)`` and each iteration is evaluated in the factored
    form ``X(aI + bG + cG^2)`` with ``G = X^T X``.
    """
    X = np.asarray(M, dtype=float)
    if X.ndim < 2:
        raise InvalidInputError("apply_poly_matrix expects a matrix or a stack of them")
    if not np.isfinite(X).all():
        raise InvalidInputError("apply_poly_matrix: non-finite input")
    if eps_hat <= 0.0:
        raise InvalidConfigError("eps_hat must be positive")
    nf = np.sqrt(trailing_sum(X * X, 2))[..., None, None]
    X = X / (nf + eps_hat)
    eye = np.eye(X.shape[-1])
    for a, b, c in schedule.iterations:
        G = np.swapaxes(X, -1, -2) @ X
        X = X @ (a * eye + b * G + c * (G @ G))
    return X


def apply_poly_block(schedule: PolySchedule, block: np.ndarray, eps_hat: float,
                     spectral: bool) -> np.ndarray:
    """Polynomial surrogate on one block (or a stack); a vector block is a one-column matrix."""
    if spectral:
        return apply_poly_matrix(schedule, block, eps_hat)
    return apply_poly_matrix(schedule, block[..., None], eps_hat)[..., 0]


@dataclass(frozen=True)
class FitReport:
    """Deviation of the composed polynomial from the two reference maps."""

    schedule: str
    epsilon: float
    kappa: float
    grid: np.ndarray
    poly: np.ndarray
    preconditioner: np.ndarray
    sign: np.ndarray
    max_dev_vs_preconditioner: float
    max_dev_vs_sign: float


def fit_report(schedule: PolySchedule, epsilon: float, kappa: float, grid) -> FitReport:
    """Compare the schedule against the bounded preconditioner and the sign.

    The sign maps 0 to 0, matching the behavior of odd polynomials at the
    origin; the grid must lie in [0, 1] (the post-normalization regime).
    """
    t = np.asarray(grid, dtype=float)
    if t.size == 0:
        raise InvalidInputError("fit grid must be nonempty")
    if t.min() < 0.0 or t.max() > 1.0:
        raise InvalidInputError("fit grid must lie within [0, 1]")
    scalar = HyperKappa(epsilon, kappa)
    poly = apply_poly_scalar(schedule, t)
    precond = np.asarray(scalar.h_star_prime(t), dtype=float)
    sign = np.sign(t)
    return FitReport(
        schedule=schedule.name,
        epsilon=float(epsilon),
        kappa=float(kappa),
        grid=t,
        poly=poly,
        preconditioner=precond,
        sign=sign,
        max_dev_vs_preconditioner=float(np.abs(poly - precond).max()),
        max_dev_vs_sign=float(np.abs(poly - sign).max()),
    )

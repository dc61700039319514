"""Synthetic objectives with exact gradients and stochastic oracles.

Every problem exposes ``shapes``, an analytic Lipschitz constant ``L`` of the
gradient, an optional lower bound ``F_star_hint`` on the objective, and the
pair ``f`` / ``grad_f`` acting on :class:`~specprox.tensor.ParamVec` points.

Noise is additive and independent of the query point, so a fixed sample token
reproduces the same perturbation at any location: differences of two oracle
calls on one token are exact gradient differences, which is what the
two-evaluation momentum estimator requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .tensor import ParamVec


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """f(x) = 0.5*||A x - b||^2 on a single vector block."""

    A: np.ndarray
    b: np.ndarray
    L: float
    F_star_hint: float

    @property
    def shapes(self):
        return ((self.A.shape[1],),)

    def f(self, x: ParamVec) -> float:
        r = self.A @ x[0] - self.b
        return 0.5 * float(r @ r)

    def grad_f(self, x: ParamVec) -> ParamVec:
        r = self.A @ x[0] - self.b
        return ParamVec((self.A.T @ r,), validate=False, copy=False)


@dataclass(frozen=True, eq=False)
class LogisticProblem:
    """f(x) = sum_i log(1 + exp(-y_i * a_i.x)) on a single vector block."""

    A: np.ndarray
    y: np.ndarray
    L: float
    F_star_hint: float

    @property
    def shapes(self):
        return ((self.A.shape[1],),)

    def f(self, x: ParamVec) -> float:
        z = self.y * (self.A @ x[0])
        # log(1 + exp(-z)) computed stably
        return float(np.sum(np.logaddexp(0.0, -z)))

    def grad_f(self, x: ParamVec) -> ParamVec:
        z = self.y * (self.A @ x[0])
        s = 1.0 / (1.0 + np.exp(z))  # sigmoid(-z)
        return ParamVec((self.A.T @ (-self.y * s),), validate=False, copy=False)


@dataclass(frozen=True, eq=False)
class MatrixQuadraticProblem:
    """f(X) = 0.5*||A X B - C||_F^2 on a single matrix block."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    L: float
    F_star_hint: float

    @property
    def shapes(self):
        return ((self.A.shape[1], self.B.shape[0]),)

    def f(self, x: ParamVec) -> float:
        r = self.A @ x[0] @ self.B - self.C
        return 0.5 * float(np.vdot(r, r))

    def grad_f(self, x: ParamVec) -> ParamVec:
        r = self.A @ x[0] @ self.B - self.C
        return ParamVec((self.A.T @ r @ self.B.T,), validate=False, copy=False)


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def make_quadratic(n: int, cond: float, rng: np.random.Generator) -> QuadraticProblem:
    """Least-squares problem with sigma_max(A) = 1 and the given condition number."""
    if n < 1:
        raise InvalidConfigError("n must be >= 1")
    if cond < 1.0:
        raise InvalidConfigError("condition number must be >= 1")
    if n == 1:
        sig = np.array([1.0])
    else:
        sig = np.geomspace(1.0, 1.0 / cond, n)
    A = (_random_orthogonal(n, rng) * sig) @ _random_orthogonal(n, rng).T
    b = rng.standard_normal(n)
    # A is invertible by construction, so the least-squares optimum is zero.
    return QuadraticProblem(A=A, b=b, L=1.0, F_star_hint=0.0)


def make_logistic(n_samples: int, n_features: int, rng: np.random.Generator) -> LogisticProblem:
    if n_samples < 1 or n_features < 1:
        raise InvalidConfigError("dimensions must be >= 1")
    A = rng.standard_normal((n_samples, n_features)) / math.sqrt(n_features)
    w = rng.standard_normal(n_features)
    margin = A @ w + 0.3 * rng.standard_normal(n_samples)
    y = np.where(margin >= 0.0, 1.0, -1.0)
    smax = float(np.linalg.svd(A, compute_uv=False)[0])
    return LogisticProblem(A=A, y=y, L=smax * smax / 4.0, F_star_hint=0.0)


def make_matrix_quadratic(m: int, n: int, rng: np.random.Generator) -> MatrixQuadraticProblem:
    if m < 1 or n < 1:
        raise InvalidConfigError("dimensions must be >= 1")
    A = rng.standard_normal((m, m))
    A /= np.linalg.svd(A, compute_uv=False)[0]
    B = rng.standard_normal((n, n))
    B /= np.linalg.svd(B, compute_uv=False)[0]
    C = rng.standard_normal((m, n))
    # sigma_max(A) = sigma_max(B) = 1, so L = 1; A, B invertible a.s. => min 0.
    return MatrixQuadraticProblem(A=A, B=B, C=C, L=1.0, F_star_hint=0.0)


# ---------------------------------------------------------------------------
# Noise models and the sampling oracle
# ---------------------------------------------------------------------------


def _abs_moment_student_t(df: float, p: float) -> float:
    """E|T_df|^p for Student-t, finite when p < df."""
    lg = math.lgamma((p + 1.0) / 2.0) + math.lgamma((df - p) / 2.0) \
        - math.lgamma(0.5) - math.lgamma(df / 2.0)
    return df ** (p / 2.0) * math.exp(lg)


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise with a certified p-th moment budget.

    ``gaussian``: E||noise||^2 = sigma^2 exactly (p_moment = 2).
    ``student_t``: entries are iid scaled Student-t draws; the scale is chosen
    so that E||noise||^p <= sigma^p via per-coordinate subadditivity, which
    needs p_moment < df.
    """

    kind: str  # "none" | "gaussian" | "student-t"
    sigma: float = 0.0
    df: float = 0.0
    p_moment: float = 2.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "student-t"):
            raise InvalidConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and self.sigma <= 0.0:
            raise InvalidConfigError("sigma must be positive")
        if self.kind == "student-t":
            if not (1.0 < self.p_moment <= 2.0):
                raise InvalidConfigError("p_moment must be in (1, 2]")
            if not (self.df > self.p_moment):
                raise InvalidConfigError("student-t df must exceed the certified moment p")

    @staticmethod
    def none() -> "NoiseModel":
        return NoiseModel(kind="none")

    @staticmethod
    def gaussian(sigma: float) -> "NoiseModel":
        return NoiseModel(kind="gaussian", sigma=float(sigma), p_moment=2.0)

    @staticmethod
    def student_t(df: float, sigma: float, p_moment: float = 1.5) -> "NoiseModel":
        return NoiseModel(kind="student-t", sigma=float(sigma), df=float(df),
                          p_moment=float(p_moment))

    def scale_for(self, total_dim: int) -> float:
        if self.kind == "gaussian":
            return self.sigma / math.sqrt(total_dim)
        if self.kind == "student-t":
            mom = _abs_moment_student_t(self.df, self.p_moment)
            return self.sigma / (total_dim * mom) ** (1.0 / self.p_moment)
        return 0.0

    def draw(self, rng: np.random.Generator, shapes) -> ParamVec:
        shapes = list(shapes)
        total = sum(int(np.prod(s)) for s in shapes)
        scale = self.scale_for(total)
        blocks = []
        for s in shapes:
            if self.kind == "gaussian":
                blocks.append(scale * rng.standard_normal(s))
            elif self.kind == "student-t":
                blocks.append(scale * rng.standard_t(self.df, size=s))
            else:
                blocks.append(np.zeros(s))
        return ParamVec(blocks, validate=False, copy=False)


def _token_rng(seed: int, token: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(token),)))


class GradientOracle:
    """Unbiased stochastic gradient oracle with token-addressed noise.

    The perturbation depends only on ``(seed, token)``: querying the same
    token at two points returns gradients whose difference is exact, and the
    per-sample objective gradient inherits the smoothness of the true one.
    The last token's noise is kept, so a second query of it draws nothing.
    """

    __slots__ = ("problem", "noise", "seed", "calls", "_token", "_noise")

    def __init__(self, problem, noise: NoiseModel, seed: int):
        self.problem = problem
        self.noise = noise
        self.seed = int(seed)
        self.calls = 0
        self._token = None
        self._noise = None

    def perturb(self, g: ParamVec, token: int) -> ParamVec:
        """One oracle call at a point whose true gradient ``g`` is known."""
        self.calls += 1
        if self.noise.kind == "none":
            return g
        if token != self._token:
            self._noise = self.noise.draw(_token_rng(self.seed, token), self.problem.shapes)
            self._token = token
        return g + self._noise

    def sample(self, x: ParamVec, token: int) -> ParamVec:
        return self.perturb(self.problem.grad_f(x), token)

"""Synthetic objectives with exact gradients and stochastic oracles.

Every problem exposes ``shapes``, an analytic Lipschitz constant ``L`` of the
gradient, an optional lower bound ``F_star_hint`` on the objective, and the
pair ``f`` / ``grad_f`` acting on :class:`~specprox.tensor.ParamVec` points,
or on a batch of points row by row (one value of ``f`` per row).  Products
with the problem data are stacked matrix products, whose rows do not depend
on each other.

Noise is additive and independent of the query point, so a fixed sample token
reproduces the same perturbation at any location: differences of two oracle
calls on one token are exact gradient differences, which is what the
two-evaluation momentum estimator requires.  A run's noise is a table: token
k's perturbation is row k of the draws of ``Generator(Philox(key=seed))``,
the counter-based generator of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3" (SC'11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .tensor import ParamVec, trailing_sum


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for a vector or for each row of a stack, as a stacked matrix product."""
    return np.matmul(A, x[..., None])[..., 0]


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

    def _residual(self, x: ParamVec) -> np.ndarray:
        return _matvec(self.A, x[0]) - self.b

    def f(self, x: ParamVec):
        r = self._residual(x)
        return 0.5 * trailing_sum(r * r, 1)

    def grad_f(self, x: ParamVec) -> ParamVec:
        return x._new((_matvec(self.A.T, self._residual(x)),))


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

    def f(self, x: ParamVec):
        z = self.y * _matvec(self.A, x[0])
        # log(1 + exp(-z)) computed stably
        return trailing_sum(np.logaddexp(0.0, -z), 1)

    def grad_f(self, x: ParamVec) -> ParamVec:
        z = self.y * _matvec(self.A, x[0])
        s = 1.0 / (1.0 + np.exp(z))  # sigmoid(-z)
        return x._new((_matvec(self.A.T, -self.y * s),))


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

    def f(self, x: ParamVec):
        r = self.A @ x[0] @ self.B - self.C
        return 0.5 * trailing_sum(r * r, 2)

    def grad_f(self, x: ParamVec) -> ParamVec:
        r = self.A @ x[0] @ self.B - self.C
        return x._new((self.A.T @ r @ self.B.T,))


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

    def draw(self, rng: np.random.Generator, shapes, tokens: int | None = None) -> ParamVec:
        """One noise sample, or with ``tokens`` the table of the first ``tokens`` samples.

        Sample k is the k-th run of ``dim`` consecutive draws of ``rng``
        (standard normal or standard t, times the scale), split into the
        blocks in order.  The table is ``standard_normal((tokens, dim))`` (or
        ``standard_t(df, (tokens, dim))``) times the scale, as a batch whose
        row k is sample k; it is prefix-stable: its first rows do not depend
        on ``tokens``.
        """
        shapes = [tuple(s) for s in shapes]
        sizes = [int(np.prod(s)) for s in shapes]
        rows = () if tokens is None else (int(tokens),)
        size = rows + (sum(sizes),)
        scale = self.scale_for(sum(sizes))
        if self.kind == "gaussian":
            flat = scale * rng.standard_normal(size)
        elif self.kind == "student-t":
            flat = scale * rng.standard_t(self.df, size=size)
        else:
            flat = np.zeros(size)
        parts = np.split(flat, np.cumsum(sizes)[:-1], axis=-1)
        return ParamVec((p.reshape(rows + s) for p, s in zip(parts, shapes)),
                        validate=False, copy=False, lead=len(rows))


# Noise values an oracle holds at once; a longer table is drawn chunk by chunk.
_TABLE_FLOATS = 1 << 22


class GradientOracle:
    """Unbiased stochastic gradient oracle with token-addressed noise.

    Token k's perturbation is row k of the run's noise table, drawn by
    :meth:`NoiseModel.draw` from ``Generator(Philox(key=seed))``.  It depends
    only on ``(seed, token)``: querying the same token at two points returns
    gradients whose difference is exact, and the per-sample objective gradient
    inherits the smoothness of the true one.  ``seed`` may be a sequence of
    seeds: the oracle then serves a batch of points, row i with the table of
    ``seed[i]``.

    The table is drawn ``tokens`` rows at a time (fewer, if that many rows
    would exceed ``_TABLE_FLOATS`` values), so a run that passes its K+1
    tokens draws it once.  Each chunk continues the streams where the last
    one stopped; an earlier token draws them again from the start.  Since the
    table is prefix-stable, a token's noise does not depend on the chunking.
    """

    __slots__ = ("problem", "noise", "seed", "calls", "_seeds", "_rows", "_rngs", "_table",
                 "_start")

    def __init__(self, problem, noise: NoiseModel, seed, tokens: int = 64):
        self.problem = problem
        self.noise = noise
        self.seed = seed
        self.calls = 0
        self._seeds = list(seed) if np.ndim(seed) else [seed]
        dim = sum(int(np.prod(s)) for s in problem.shapes)
        self._rows = max(1, min(int(tokens), _TABLE_FLOATS // (dim * len(self._seeds))))
        self._rngs, self._table, self._start = None, None, 0

    def _seek(self, token: int) -> None:
        """Draw the chunk of the table that holds ``token``."""
        if self._rngs is None or token < self._start:
            self._rngs = [np.random.Generator(np.random.Philox(key=int(s))) for s in self._seeds]
            self._start = -self._rows
        batch = np.ndim(self.seed) > 0
        while token >= self._start + self._rows:
            drawn = [self.noise.draw(rng, self.problem.shapes, self._rows) for rng in self._rngs]
            self._table = [np.stack(parts) if batch else parts[0]
                           for parts in zip(*(d.blocks for d in drawn))]
            self._start += self._rows

    def perturb(self, g: ParamVec, token: int) -> ParamVec:
        """One oracle call at a point (or batch) whose true gradient ``g`` is known."""
        self.calls += 1
        if self.noise.kind == "none":
            return g
        if self._table is None or not self._start <= token < self._start + self._rows:
            self._seek(token)
        at = (slice(None),) * g.lead + (token - self._start,)
        return g + g._new(t[at] for t in self._table)

    def sample(self, x: ParamVec, token: int) -> ParamVec:
        return self.perturb(self.problem.grad_f(x), token)

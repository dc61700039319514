"""Reference functions and their conjugate calculus.

A scalar reference function ``h`` is even, nonnegative, strongly convex with
modulus ``epsilon``, vanishes at zero, and has effective domain ``[-1, 1]``
with an exploding derivative at the boundary.  Its conjugate derivative
``h*'`` maps the whole line into ``(-1, 1)`` and acts as a bounded, odd,
monotone nonlinear preconditioner.

Two families are provided:

* :class:`Barrier` -- ``h(t) = -eps*(log(1-|t|) + |t|)`` with the fully
  closed-form conjugate pair ``h*'(s) = s/(eps+|s|)`` and
  ``h*(s) = |s| - eps*log(1+|s|/eps)``.
* :class:`HyperKappa` -- ``h*'(s) = s/(eps^k + |s|^k)^(1/k)``.  ``k = 1``
  recovers the barrier; ``k = 2`` gives ``h*(s) = sqrt(eps^2+s^2) - eps``;
  every other exponent has the closed form, with ``x = |s|/eps``,
  ``h*(s) = eps*x^2/2 * 2F1(1/k, 2/k; 1+2/k; -x^k)``.

A :class:`ReferenceFn` attaches one scalar function and one structure to
every block of a parameter vector.  Every blockwise operation is a scalar
function passed through :func:`lift`, which applies it to the coordinates
(ANISO), to the norm (ISO, SPECTRAL_ISO) or to the singular values
(SPECTRAL_ANISO), keeping the direction or the singular vectors.  A spectral
function ``F(X) = f(sigma(X))`` has the gradient ``U diag(f'(sigma)) V^T``
(Lewis, "The convex analysis of unitarily invariant matrix functions",
J. Convex Anal. 1995), so a spectral block is a vector block on its singular
values.  :func:`precondition` and :func:`grad_phi` are lifts of ``h*'`` and
``h'``; :func:`phi` and :func:`phi_star` sum ``h`` and ``h*`` over the same
lifted arguments (sigma only).  A block factored in the backward step's basis
(an :class:`~specprox.tensor.SvdResult`) is lifted without factoring.

The structure fixes the rank of a block: one trailing axis for ISO and ANISO,
two for the spectral structures.  Every lift and sum acts on those trailing
axes only, so a batch of blocks (one leading axis) is lifted row by row with
the same code, and each value of :func:`phi` or :func:`phi_star` comes per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import hyp2f1

from .errors import BoundaryError, InvalidConfigError, InvalidInputError
from .tensor import ParamVec, SvdResult, dense, dot, full_svd, singular_values_batch, trailing_sum

BOUNDARY_MARGIN = 1e-12

# Range cap for the conjugate derivative: mathematically |h*'| < 1 strictly,
# but for very flat families (large kappa) the float64 value saturates to 1.0
# at moderate arguments; capping keeps outputs strictly inside the domain.
_RANGE_CAP = 1.0 - 1e-15


class Structure(Enum):
    """How a scalar reference function is lifted to a block."""

    ISO = "iso"                        # h(|x|_2)
    ANISO = "aniso"                    # sum_i h(x_i)
    SPECTRAL_ISO = "spectral-iso"      # h(|X|_F)
    SPECTRAL_ANISO = "spectral-aniso"  # sum_i h(sigma_i(X))

    @property
    def is_spectral(self) -> bool:
        return self in (Structure.SPECTRAL_ISO, Structure.SPECTRAL_ANISO)

    @property
    def rank(self) -> int:
        """Number of trailing axes of a block: 2 for matrices, 1 for vectors."""
        return 2 if self.is_spectral else 1


# ---------------------------------------------------------------------------
# Scalar reference functions
# ---------------------------------------------------------------------------


class Barrier:
    """Logarithmic barrier reference function with scale ``epsilon``.

    ``h(t) = -eps*(log(1-|t|)+|t|)`` on ``(-1, 1)``; strongly convex with
    modulus exactly ``eps``; ``h*'`` saturates as ``s/(eps+|s|)``.
    """

    __slots__ = ("epsilon",)

    def __init__(self, epsilon: float):
        epsilon = float(epsilon)
        if not (epsilon > 0.0) or not math.isfinite(epsilon):
            raise InvalidConfigError(f"Barrier epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def __repr__(self):
        return f"Barrier(epsilon={self.epsilon!r})"

    def __eq__(self, other):
        return isinstance(other, Barrier) and other.epsilon == self.epsilon

    def __hash__(self):
        return hash(("barrier", self.epsilon))

    def h(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(t < 1.0, -self.epsilon * (np.log1p(-t) + t), np.inf)
        return out if out.ndim else float(out)

    def h_prime(self, t):
        t = np.asarray(t, dtype=float)
        out = self.epsilon * t / (1.0 - np.abs(t))
        return out if out.ndim else float(out)

    def h_star(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        out = s - self.epsilon * np.log1p(s / self.epsilon)
        return out if out.ndim else float(out)

    def h_star_prime(self, s):
        s = np.asarray(s, dtype=float)
        out = np.clip(s / (self.epsilon + np.abs(s)), -_RANGE_CAP, _RANGE_CAP)
        return out if out.ndim else float(out)


class HyperKappa:
    """Power-family reference function with scale ``epsilon`` and exponent ``kappa``.

    Defined through its conjugate derivative
    ``h*'(s) = s / (eps^k + |s|^k)^(1/k)``, whose inverse has the closed form
    ``h'(t) = eps * t / (1 - |t|^k)^(1/k)`` on ``(-1, 1)``.

    With ``x = |s|/eps`` the conjugate is the hypergeometric closed form
    ``h*(s) = eps*x^2/2 * 2F1(1/k, 2/k; 1+2/k; -x^k)`` (``k = 1`` and
    ``k = 2`` use their elementary forms).  ``h`` itself is recovered from
    the conjugacy identity ``h(t) = t*h'(t) - h*(h'(t))``.  At ``|t| = 1`` it
    takes the limit ``h(1) = integral_0^inf (1 - h*'(u)) du
    = -eps*Gamma(1+2/k)*Gamma(-1/k) / (2*Gamma(1/k))``, finite for
    ``kappa > 1``, ``eps`` at ``kappa = 2`` and infinite at ``kappa = 1``.
    ``h*(s)`` approaches the asymptote ``|s| - h(1)`` from above; where
    ``x``, ``x^k`` or ``x^2`` overflows, the asymptote is returned.
    """

    __slots__ = ("epsilon", "kappa")

    def __init__(self, epsilon: float, kappa: float):
        epsilon = float(epsilon)
        kappa = float(kappa)
        if not (epsilon > 0.0) or not math.isfinite(epsilon):
            raise InvalidConfigError(f"HyperKappa epsilon must be positive, got {epsilon}")
        if not (kappa >= 1.0) or not math.isfinite(kappa):
            raise InvalidConfigError(f"HyperKappa kappa must be >= 1, got {kappa}")
        self.epsilon = epsilon
        self.kappa = kappa

    def __repr__(self):
        return f"HyperKappa(epsilon={self.epsilon!r}, kappa={self.kappa!r})"

    def __eq__(self, other):
        return (
            isinstance(other, HyperKappa)
            and other.epsilon == self.epsilon
            and other.kappa == self.kappa
        )

    def __hash__(self):
        return hash(("hyper", self.epsilon, self.kappa))

    # -- conjugate derivative and its inverse --------------------------------

    def h_star_prime(self, s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        big = np.maximum(a, self.epsilon)
        low = np.minimum(a, self.epsilon)
        # (eps^k + a^k)^(1/k) = big * (1 + (low/big)^k)^(1/k), overflow-safe
        denom = big * np.power(1.0 + np.power(low / big, self.kappa), 1.0 / self.kappa)
        out = np.clip(s / denom, -_RANGE_CAP, _RANGE_CAP)
        return out if out.ndim else float(out)

    def h_prime(self, t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                a < 1.0,
                self.epsilon * t / np.power(1.0 - np.power(a, self.kappa), 1.0 / self.kappa),
                np.where(t >= 0, np.inf, -np.inf),
            )
        return out if out.ndim else float(out)

    # -- conjugate values -----------------------------------------------------

    def residual_integral_limit(self) -> float:
        """integral_0^inf (1 - h*'(u)) du; equals h at the domain boundary."""
        k = self.kappa
        if k == 1.0:
            return math.inf
        if k == 2.0:
            return self.epsilon
        g = math.gamma
        return -self.epsilon * g(1.0 + 2.0 / k) * g(-1.0 / k) / (2.0 * g(1.0 / k))

    def h_star(self, s):
        a = np.abs(np.asarray(s, dtype=float))
        eps, k = self.epsilon, self.kappa
        if k == 1.0:
            out = a - eps * np.log1p(a / eps)
        elif k == 2.0:
            out = np.hypot(eps, a) - eps
        else:
            h1 = self.residual_integral_limit()
            with np.errstate(over="ignore", invalid="ignore"):
                x = a / eps
                xk = np.power(x, k)
                out = eps * (0.5 * x * x) * hyp2f1(1.0 / k, 2.0 / k, 1.0 + 2.0 / k, -xk)
                # Past the float64 range the residual integral has converged.
                out = np.where(np.isfinite(xk) & np.isfinite(out), out, a - h1)
            # h*(s) = |s| minus a residual integral in [0, h(1)]; the clip keeps
            # the rounding of the hypergeometric product at large |s| inside it.
            out = np.clip(out, a - h1, a)
        return out if out.ndim else float(out)

    def h(self, t):
        t_in = np.asarray(t, dtype=float)
        a = np.abs(t_in)
        flat = np.atleast_1d(a).ravel()
        out = np.empty_like(flat)
        interior = flat < 1.0
        if interior.any():
            ti = flat[interior]
            u = self.h_prime(ti)
            out[interior] = ti * u - self.h_star(u)
        boundary = flat == 1.0
        if boundary.any():
            out[boundary] = self.residual_integral_limit()
        outside = flat > 1.0
        if outside.any():
            out[outside] = np.inf
        out = out.reshape(np.atleast_1d(a).shape)
        if t_in.ndim == 0:
            return float(out[0])
        return out.reshape(t_in.shape)


# ---------------------------------------------------------------------------
# Blockwise reference functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRef:
    """Structure plus scalar reference function for a single block."""

    structure: Structure
    scalar: object  # Barrier | HyperKappa


class ReferenceFn:
    """Blockwise reference function ``phi(x) = sum_i phi_i(x_i)``.

    ``entries`` is either a single :class:`BlockRef` (or ``(structure,
    scalar)`` pair), broadcast over all blocks, or one entry per block.
    """

    __slots__ = ("entries", "broadcast")

    def __init__(self, entries):
        if isinstance(entries, BlockRef) or (
            isinstance(entries, tuple) and len(entries) == 2 and isinstance(entries[0], Structure)
        ):
            entries = [entries]
            broadcast = True
        else:
            entries = list(entries)
            broadcast = len(entries) == 1
        norm = []
        for e in entries:
            if isinstance(e, BlockRef):
                norm.append(e)
            else:
                s, sc = e
                norm.append(BlockRef(Structure(s), sc))
        if not norm:
            raise InvalidConfigError("ReferenceFn needs at least one entry")
        self.entries = tuple(norm)
        self.broadcast = broadcast

    @classmethod
    def uniform(cls, structure: Structure, scalar) -> "ReferenceFn":
        return cls(BlockRef(structure, scalar))

    def __repr__(self):
        return f"ReferenceFn({list(self.entries)!r})"

    def entry(self, i: int, nblocks: int) -> BlockRef:
        if self.broadcast:
            return self.entries[0]
        if len(self.entries) != nblocks:
            raise InvalidConfigError(
                f"reference has {len(self.entries)} entries but the point has {nblocks} blocks"
            )
        return self.entries[i]

    def block_entries(self, x: ParamVec) -> list[BlockRef]:
        n = len(x)
        return [self.entries[0]] * n if self.broadcast else [self.entry(i, n) for i in range(n)]

    def block_domain_radii(self, shapes) -> list[float]:
        """Per-block sup of the block norm over the block domain."""
        shapes = list(shapes)
        out = []
        for i, shape in enumerate(shapes):
            s = self.entry(i, len(shapes)).structure
            if len(shape) != s.rank:
                kind = "matrix" if s.is_spectral else "vector"
                raise InvalidConfigError(f"{s.name} applies to {kind} blocks")
            # A lifted argument is a coordinate or singular value (at most 1
            # each, min(shape) of them) or a norm (at most 1).
            aniso = s in (Structure.ANISO, Structure.SPECTRAL_ANISO)
            out.append(math.sqrt(min(shape)) if aniso else 1.0)
        return out

    def domain_radius(self, x_or_shapes) -> float:
        """sup of the product-space norm over the domain of phi."""
        shapes = ([b.shape[x_or_shapes.lead:] for b in x_or_shapes.blocks]
                  if isinstance(x_or_shapes, ParamVec) else x_or_shapes)
        return math.sqrt(sum(r * r for r in self.block_domain_radii(shapes)))


def _require_finite(x: ParamVec) -> None:
    for b in x.blocks:
        if not np.isfinite(b.sigma if isinstance(b, SvdResult) else b).all():
            raise InvalidInputError("non-finite entries")


# -- the structure lift ------------------------------------------------------


def _norm(e: BlockRef, x: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm over the block's trailing axes."""
    return np.sqrt(trailing_sum(x * x, e.structure.rank))


def lift(e: BlockRef, x: np.ndarray, f) -> np.ndarray:
    """Apply the scalar map ``f`` to a block through the block's structure.

    ``f`` acts on the coordinates (ANISO), on the norm with the direction kept
    (ISO and SPECTRAL_ISO), or on the singular values with the singular
    vectors kept (SPECTRAL_ANISO).  This is the gradient rule for every lifted
    function: the gradient of ``F(X) = sum_i h(sigma_i(X))`` is
    ``U diag(h'(sigma)) V^T``.  A factored block ``(U, s, V)`` gives
    ``(U, f(s), V)`` (``f`` odd).  A stack of blocks is lifted block by block.
    """
    if e.structure is Structure.ANISO:
        return f(x)
    if e.structure is Structure.SPECTRAL_ANISO:
        if isinstance(x, SvdResult):
            return SvdResult(x.U, f(x.sigma), x.V)
        res = full_svd(x)
        return res.reconstruct(f(res.sigma))
    nx = _norm(e, x).reshape(x.shape[:x.ndim - e.structure.rank] + (1,) * e.structure.rank)
    scale = np.divide(f(nx), nx, out=np.zeros_like(nx), where=nx > 0.0)
    return scale * x


def _lift_sum(e: BlockRef, x: np.ndarray, f):
    """Value of the lifted function: ``f`` (even) summed over the arguments :func:`lift` uses."""
    if e.structure is Structure.ANISO:
        return trailing_sum(f(x), 1)
    if e.structure is Structure.SPECTRAL_ANISO:
        sigma = x.sigma if isinstance(x, SvdResult) else singular_values_batch(x)
        return trailing_sum(f(sigma), 1)
    return f(_norm(e, x))


# -- forward preconditioner --------------------------------------------------


def precondition(ref: ReferenceFn, d: ParamVec) -> ParamVec:
    """Apply the dual-space preconditioner: the conjugate gradient of phi.

    :func:`lift` of ``h*'``.  Odd and bounded: every output block stays
    strictly inside the block domain.
    """
    _require_finite(d)
    return d._new(lift(e, b, e.scalar.h_star_prime) for e, b in zip(ref.block_entries(d), d.blocks))


# -- primal and conjugate values ---------------------------------------------


def phi(ref: ReferenceFn, x: ParamVec):
    """Value of the reference function; +inf outside its domain.  One value per row of a batch."""
    _require_finite(x)
    return sum(_lift_sum(e, b, e.scalar.h) for e, b in zip(ref.block_entries(x), x.blocks))


def phi_star(ref: ReferenceFn, y: ParamVec):
    """Convex conjugate of phi; finite, nonnegative, even, zero at zero.  One value per row."""
    _require_finite(y)
    return sum(_lift_sum(e, b, e.scalar.h_star) for e, b in zip(ref.block_entries(y), y.blocks))


# -- primal gradient ---------------------------------------------------------


def _h_prime_inside(e: BlockRef, t):
    a = float(np.max(np.abs(t)))
    if a > 1.0 - BOUNDARY_MARGIN:
        raise BoundaryError(f"{e.structure.value} argument {a!r} too close to the domain boundary")
    return e.scalar.h_prime(t)


def grad_phi(ref: ReferenceFn, x: ParamVec) -> ParamVec:
    """Gradient of phi, the inverse map of :func:`precondition`: :func:`lift` of ``h'``.

    Requires every lifted argument (coordinate, norm or singular value)
    strictly inside the domain with margin 1e-12; otherwise raises
    :class:`BoundaryError`.
    """
    _require_finite(x)
    return x._new(lift(e, b, lambda t: _h_prime_inside(e, t))
                  for e, b in zip(ref.block_entries(x), x.blocks))


def bregman_dual(ref: ReferenceFn, a: ParamVec, b: ParamVec):
    """Bregman divergence of the conjugate: D_{phi*}(a, b).

    Nonnegative and zero exactly at a = b, by strict convexity of phi*.  ``b``
    may hold factored blocks.
    """
    diff = a - dense(b)
    return phi_star(ref, a) - phi_star(ref, b) - dot(dense(precondition(ref, b)), diff)

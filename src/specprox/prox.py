"""Anisotropic backward steps for the supported constraint sets.

The backward step solves ``argmin_x g(x) + gamma*phi((x - y)/gamma)`` where
``g`` is the indicator of a constraint set (or zero).  For coordinatewise
(ANISO) reference functions the vector sets below have closed forms or a 1-d
bisection; for radial (ISO) reference functions every backward step collapses
to the Euclidean projection.

A matrix set is the vector set its singular values lie in (Stiefel -> sign
set, Frobenius ball -> l2 ball, spectral ball and sphere -> l-inf ball and
sphere, rank limit -> hard threshold).  The backward step, the feasibility
measure and the start point run the vector code on sigma.  The step works in
one basis: it returns ``U diag(p) V^T`` with the singular vectors of ``y`` and
hands on the spectral-aniso move ``(x_next - y)/gamma`` in that basis, so
:func:`recover_subgradient`, one :func:`~specprox.reference.lift` of the
clamped ``-h'``, and the gap factor nothing.

Tie-breaking is deterministic everywhere: ``sign(0) = +1``, and magnitude ties
are resolved toward the lowest index.

The tag (or the reference structure) fixes the rank of a block: one trailing
axis for a vector set, two for a matrix set.  Every step and measure acts on
those trailing axes only, so a stack of blocks (one leading axis, a batch of
runs) is handled row by row by the same code.  Where rows branch -- the l2-ball
bracket and bisection, the l-inf sphere, hard thresholding -- each row follows
its own path under a mask, and gets the bits it would get on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, NumericalError
from .reference import BOUNDARY_MARGIN, Barrier, BlockRef, HyperKappa, ReferenceFn, Structure, lift
from .tensor import ParamVec, SvdResult, full_svd, singular_values_batch, trailing_sum


# ---------------------------------------------------------------------------
# Constraint tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    """No constraint: g identically zero."""


@dataclass(frozen=True)
class SignSet:
    """{x : |x_i| = r for all i}."""

    radius: float


@dataclass(frozen=True)
class L2Ball:
    """{x : ||x||_2 <= r}."""

    radius: float


@dataclass(frozen=True)
class LinfBall:
    """{x : ||x||_inf <= r}."""

    radius: float


@dataclass(frozen=True)
class LinfSphere:
    """{x : ||x||_inf = r}."""

    radius: float


@dataclass(frozen=True)
class HardThreshold:
    """{x : ||x||_0 <= s}."""

    sparsity: int


@dataclass(frozen=True)
class Stiefel:
    """{X in R^{m x n}, n <= m : X^T X = r^2 I}."""

    radius: float


@dataclass(frozen=True)
class FrobeniusBall:
    """{X : ||X||_F <= r}."""

    radius: float


@dataclass(frozen=True)
class SpectralBall:
    """{X : sigma_max(X) <= r}."""

    radius: float


@dataclass(frozen=True)
class SpectralSphere:
    """{X : sigma_max(X) = r}."""

    radius: float


@dataclass(frozen=True)
class RankLimit:
    """{X : rank(X) <= s}."""

    rank: int


VECTOR_TAGS = (Zero, SignSet, L2Ball, LinfBall, LinfSphere, HardThreshold)
MATRIX_TAGS = (Zero, Stiefel, FrobeniusBall, SpectralBall, SpectralSphere, RankLimit)

# Matrix set -> the vector set its singular values lie in.
_SIGMA_TAG = {
    Zero: lambda t: t,
    Stiefel: lambda t: SignSet(t.radius),
    FrobeniusBall: lambda t: L2Ball(t.radius),
    SpectralBall: lambda t: LinfBall(t.radius),
    SpectralSphere: lambda t: LinfSphere(t.radius),
    RankLimit: lambda t: HardThreshold(t.rank),
}


def _sigma_tag(tag):
    if type(tag) not in _SIGMA_TAG:
        raise InvalidSpecError(f"unsupported matrix tag {type(tag).__name__}")
    return _SIGMA_TAG[type(tag)](tag)


def _validate_tag(tag, shape) -> None:
    if isinstance(tag, Zero):
        return
    if len(shape) == 1:
        if not isinstance(tag, VECTOR_TAGS):
            raise InvalidSpecError(f"{type(tag).__name__} cannot constrain a vector block")
        if isinstance(tag, HardThreshold):
            if not (1 <= tag.sparsity <= shape[0]):
                raise InvalidSpecError(
                    f"sparsity {tag.sparsity} out of range for dimension {shape[0]}"
                )
        elif tag.radius <= 0:
            raise InvalidSpecError("radius must be positive")
    else:
        if not isinstance(tag, MATRIX_TAGS):
            raise InvalidSpecError(f"{type(tag).__name__} cannot constrain a matrix block")
        m, n = shape
        if isinstance(tag, Stiefel) and n > m:
            raise InvalidSpecError("Stiefel blocks need n <= m")
        if isinstance(tag, RankLimit):
            if not (1 <= tag.rank <= min(m, n)):
                raise InvalidSpecError(
                    f"rank {tag.rank} out of range for shape {m}x{n}"
                )
        elif tag.radius <= 0:
            raise InvalidSpecError("radius must be positive")


class ConstraintSpec:
    """One constraint tag per block (a single tag broadcasts)."""

    __slots__ = ("tags", "broadcast")

    def __init__(self, tags):
        if not isinstance(tags, (list, tuple)):
            tags = [tags]
        tags = tuple(tags)
        if not tags:
            raise InvalidSpecError("ConstraintSpec needs at least one tag")
        self.tags = tags
        self.broadcast = len(tags) == 1

    @classmethod
    def unconstrained(cls) -> "ConstraintSpec":
        return cls(Zero())

    def __repr__(self):
        return f"ConstraintSpec({list(self.tags)!r})"

    def tag(self, i: int, nblocks: int):
        if self.broadcast:
            return self.tags[0]
        if len(self.tags) != nblocks:
            raise InvalidSpecError(
                f"spec has {len(self.tags)} tags but the point has {nblocks} blocks"
            )
        return self.tags[i]

    def block_tags(self, x: ParamVec):
        n = len(x)
        return [self.tags[0]] * n if self.broadcast else [self.tag(i, n) for i in range(n)]

    def validate_for(self, shapes) -> None:
        shapes = list(shapes)
        for i, shape in enumerate(shapes):
            _validate_tag(self.tag(i, len(shapes)), shape)


def _as_entry(ref) -> BlockRef:
    if isinstance(ref, BlockRef):
        return ref
    if isinstance(ref, ReferenceFn):
        if len(ref.entries) != 1:
            raise InvalidInputError("single-block prox call needs a single-entry reference")
        return ref.entries[0]
    raise InvalidInputError(f"expected ReferenceFn or BlockRef, got {type(ref)!r}")


# ---------------------------------------------------------------------------
# Vector backward steps
# ---------------------------------------------------------------------------


def _sign(y: np.ndarray) -> np.ndarray:
    # sign with sign(0) = +1
    return np.where(y >= 0.0, 1.0, -1.0)


def _sumsq(y: np.ndarray) -> np.ndarray:
    return trailing_sum(y * y, 1)


def _linf_sphere(y: np.ndarray, r: float) -> np.ndarray:
    # Clip; a row whose largest |y_j| (lowest j on ties) is below r moves that
    # coordinate out to the sphere.
    j = np.argmax(np.abs(y), axis=-1)[..., None]
    yj = np.take_along_axis(y, j, -1)
    out = np.clip(y, -r, r)
    np.put_along_axis(out, j, np.where(np.abs(yj) >= r, np.take_along_axis(out, j, -1),
                                       np.where(yj >= 0.0, r, -r)), -1)
    return out


def _hard_threshold(y: np.ndarray, s: int) -> np.ndarray:
    keep = np.argsort(-np.abs(y), axis=-1, kind="stable")[..., :s]
    out = np.zeros_like(y)
    np.put_along_axis(out, keep, np.take_along_axis(y, keep, -1), -1)
    return out


def _l2_root_barrier(y_abs: np.ndarray, lam, gamma: float, eps: float) -> np.ndarray:
    """Positive root of x + gamma*(2*lam*x)/(eps + 2*lam*x) = y, coordinatewise."""
    a = eps + 2.0 * gamma * lam - 2.0 * y_abs * lam
    b = 8.0 * lam * eps * y_abs
    disc = np.sqrt(a * a + b)
    # Cancellation-safe quadratic root: use b/(a + sqrt(...)) when a > 0.
    num = np.where(a > 0.0, b / (a + disc), disc - a)
    return num / (4.0 * lam)


def _l2_root_generic(y_abs: np.ndarray, lam, gamma: float, scalar) -> np.ndarray:
    """Solve x + gamma*h*'(2*lam*x) = y for x in [0, y] by bisection."""
    lo = np.zeros_like(y_abs)
    hi = y_abs.copy()
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        f = mid + gamma * scalar.h_star_prime(2.0 * lam * mid) - y_abs
        high = f > 0.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


def _l2_ball_aniso(y: np.ndarray, r: float, scalar, gamma: float) -> np.ndarray:
    """Each row outside the ball: bisection on the multiplier lambda of ||x|| = r.

    The bracket doubling and the bisection run on the rows that still need
    them, each row with its own lambda, so a row's path does not depend on
    the others.
    """
    Y = y.reshape(-1, y.shape[-1])
    out = Y.copy()
    ny = np.sqrt(_sumsq(Y))
    rows = np.flatnonzero(ny > r)
    if not rows.size:
        return out.reshape(y.shape)
    y_abs = np.abs(Y[rows])
    # The root x(lambda) saturates coordinatewise at |y_i| - gamma; if even the
    # saturated point lies outside the ball, no feasible point has finite
    # transport cost and the backward step is ill-posed for this input.
    saturated = np.maximum(y_abs - gamma, 0.0)
    unreachable = np.flatnonzero(_sumsq(saturated) >= r * r)
    if unreachable.size:
        raise NumericalError(
            f"l2-ball unreachable: every feasible point is farther than gamma={gamma:.3e} "
            f"in some coordinate (|y|={ny[rows[unreachable[0]]]:.3e}, r={r:.3e})"
        )
    closed_form = isinstance(scalar, Barrier) or (
        isinstance(scalar, HyperKappa) and scalar.kappa == 1.0
    )

    def root(i: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x(lambda) of rows i and its residual ||x||^2 - r^2."""
        if closed_form:
            x = _l2_root_barrier(y_abs[i], lam[:, None], gamma, scalar.epsilon)
        else:
            x = _l2_root_generic(y_abs[i], lam[:, None], gamma, scalar)
        return x, _sumsq(x) - r * r

    tol = 1e-12 * r * r
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    grow = np.arange(rows.size)
    for _ in range(201):
        grow = grow[root(grow, hi[grow])[1] > 0.0]
        if not grow.size:
            break
        lo[grow], hi[grow] = hi[grow], 2.0 * hi[grow]
    else:
        raise NumericalError(
            f"l2-ball bracket search failed at lambda {hi[grow[0]]:.3e} "
            f"(|y|={ny[rows[grow[0]]]:.3e}, r={r:.3e}, gamma={gamma:.3e})"
        )
    x_rows = np.empty_like(y_abs)
    active = np.arange(rows.size)
    for _ in range(200):
        lam = 0.5 * (lo[active] + hi[active])
        x, res = root(active, lam)
        done = np.abs(res) <= tol
        x_rows[active[done]] = x[done]
        high = res > 0.0
        lo[active[high]] = lam[high]
        hi[active[~high]] = lam[~high]
        active = active[~done]
        if not active.size:
            out[rows] = _sign(Y[rows]) * x_rows
            return out.reshape(y.shape)
    i = active[0]
    raise NumericalError(
        f"l2-ball bisection failed to reach |residual| <= {tol:.3e}: "
        f"bracket [{lo[i]:.6e}, {hi[i]:.6e}], |y|={ny[rows[i]]:.3e}, r={r:.3e}"
    )


def _euclidean_projection(tag, y: np.ndarray) -> np.ndarray:
    if isinstance(tag, Zero):
        return y.copy()
    if isinstance(tag, SignSet):
        return tag.radius * _sign(y)
    if isinstance(tag, L2Ball):
        ny = np.sqrt(_sumsq(y))[..., None]
        with np.errstate(divide="ignore"):
            return np.where(ny <= tag.radius, 1.0, tag.radius / ny) * y
    if isinstance(tag, LinfBall):
        return np.clip(y, -tag.radius, tag.radius)
    if isinstance(tag, LinfSphere):
        return _linf_sphere(y, tag.radius)
    if isinstance(tag, HardThreshold):
        return _hard_threshold(y, tag.sparsity)
    raise InvalidSpecError(f"unsupported vector tag {type(tag).__name__}")


def _checked(y, rank: int, name: str, gamma: float) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim < rank:
        raise InvalidInputError(f"{name} expects a {rank}-d block or a stack of them")
    if not np.isfinite(y).all():
        raise InvalidInputError(f"{name}: non-finite input")
    if gamma <= 0.0:
        raise InvalidInputError("gamma must be positive")
    return y


def prox_vector(tag, ref, y, gamma: float) -> np.ndarray:
    """Backward step on a vector block.

    ``ref`` must be an ISO or ANISO reference (a single-entry
    :class:`~specprox.reference.ReferenceFn` or a ``BlockRef``).  With an ISO
    reference every closed set reduces to the Euclidean projection; with an
    ANISO reference the closed forms and the l2-ball bisection apply.  A 2-d
    ``y`` is a stack of vectors, stepped row by row.
    """
    y = _checked(y, 1, "prox_vector", gamma)
    e = _as_entry(ref)
    _validate_tag(tag, y.shape[-1:])
    if e.structure is Structure.ISO:
        return _euclidean_projection(tag, y)
    if e.structure is not Structure.ANISO:
        raise InvalidSpecError("prox_vector needs an ISO or ANISO reference")
    if isinstance(tag, L2Ball):
        return _l2_ball_aniso(y, tag.radius, e.scalar, gamma)
    # The remaining sets are coordinatewise-separable, so the anisotropic
    # solution coincides with the Euclidean one.
    return _euclidean_projection(tag, y)


def _matrix_step(tag, ref, Y, gamma: float):
    """:func:`prox_matrix`, with the spectral-aniso move ``(X - Y)/gamma`` factored (else None)."""
    Y = _checked(Y, 2, "prox_matrix", gamma)
    e = _as_entry(ref)
    if not e.structure.is_spectral:
        raise InvalidSpecError("prox_matrix needs a spectral reference")
    _validate_tag(tag, Y.shape[-2:])
    aniso = e.structure is Structure.SPECTRAL_ANISO
    if isinstance(tag, Zero):  # z = 0, so any basis will do
        if not aniso:
            return Y.copy(), None
        lead, (m, n) = Y.shape[:-2], Y.shape[-2:]
        return Y.copy(), SvdResult(np.broadcast_to(np.eye(m), lead + (m, m)),
                                   np.zeros(lead + (min(m, n),)),
                                   np.broadcast_to(np.eye(n), lead + (n, n)))
    res = full_svd(Y)
    vec_structure = Structure.ANISO if aniso else Structure.ISO
    p = prox_vector(_sigma_tag(tag), BlockRef(vec_structure, e.scalar), res.sigma, gamma)
    z = SvdResult(res.U, (p - res.sigma) * (1.0 / gamma), res.V) if aniso else None
    return res.reconstruct(p), z


def prox_matrix(tag, ref, Y, gamma: float) -> np.ndarray:
    """Backward step on a matrix block via reduction to the singular values.

    Computes a full SVD of ``Y``, applies the corresponding vector backward
    step to ``sigma(Y)``, and reassembles with the same singular vectors.  A
    3-d ``Y`` is a stack of matrices, stepped matrix by matrix.
    """
    return _matrix_step(tag, ref, Y, gamma)[0]


def backward_step(spec: ConstraintSpec, ref: ReferenceFn, y: ParamVec,
                  gamma: float) -> tuple[ParamVec, ParamVec]:
    """Blockwise ``(x_next, (x_next - y)/gamma)``; spectral-aniso moves come factored.

    ``y`` may be a batch; the reference structure says whether a block is a
    vector or a matrix.
    """
    xs, zs = [], []
    for tag, e, b in zip(spec.block_tags(y), ref.block_entries(y), y.blocks):
        if e.structure.is_spectral:
            x, z = _matrix_step(tag, e, b, gamma)
        else:
            x, z = prox_vector(tag, e, b, gamma), None
        xs.append(x)
        zs.append((x - b) * (1.0 / gamma) if z is None else z)
    return y._new(xs), y._new(zs)


def prox(spec: ConstraintSpec, ref: ReferenceFn, y: ParamVec, gamma: float) -> ParamVec:
    """Blockwise backward step over the whole product space."""
    return backward_step(spec, ref, y, gamma)[0]


# ---------------------------------------------------------------------------
# Subgradient recovery and feasibility
# ---------------------------------------------------------------------------


def recover_subgradient(x_next: ParamVec, y: ParamVec, gamma: float, ref: ReferenceFn,
                        z: ParamVec | None = None) -> ParamVec:
    """The subgradient of g certified by the backward step.

    Returns ``-grad_phi((x_next - y)/gamma)``, the specific element of the
    subdifferential at the new point that the optimality condition of the
    backward step produces: the :func:`~specprox.reference.lift` of
    ``t -> -h'(clip(t, -(1 - 1e-12), 1 - 1e-12))``, so each coordinate, norm
    or singular value is clamped into the domain with margin 1e-12 before
    differentiating.  ``z``, the move from :func:`backward_step`, replaces
    ``(x_next - y)/gamma``; its factored blocks stay factored.
    """
    if z is None:
        z = (x_next - y) * (1.0 / gamma)
    limit = 1.0 - BOUNDARY_MARGIN
    return z._new(lift(e, b, lambda t: -e.scalar.h_prime(np.clip(t, -limit, limit)))
                  for e, b in zip(ref.block_entries(z), z.blocks))


def _feasibility_block(tag, x: np.ndarray, rank: int):
    """Violation of one block (per row of a stack); ``rank`` is the block's own ndim."""
    if isinstance(tag, Zero):
        return 0.0
    if rank == 2 and isinstance(tag, MATRIX_TAGS):
        tag, x = _sigma_tag(tag), singular_values_batch(x)
    elif rank != 1 or not isinstance(tag, VECTOR_TAGS):
        raise InvalidSpecError(f"{type(tag).__name__} cannot constrain a {rank}-d block")
    a = np.abs(x)
    if isinstance(tag, SignSet):
        return np.abs(a - tag.radius).max(axis=-1)
    if isinstance(tag, L2Ball):
        return np.maximum(0.0, np.sqrt(_sumsq(x)) - tag.radius)
    if isinstance(tag, LinfBall):
        return np.maximum(0.0, a.max(axis=-1) - tag.radius)
    if isinstance(tag, LinfSphere):
        return np.abs(a.max(axis=-1) - tag.radius)
    if isinstance(tag, HardThreshold):
        if a.shape[-1] <= tag.sparsity:
            return np.zeros(a.shape[:-1])
        return -np.sort(-a, axis=-1)[..., tag.sparsity]
    raise InvalidSpecError(f"unsupported vector tag {type(tag).__name__}")


def feasibility_error(spec: ConstraintSpec, x: ParamVec):
    """Largest blockwise violation of the constraint set (0 when feasible); one value per row."""
    return reduce(np.maximum, (_feasibility_block(tag, b, b.ndim - x.lead)
                               for tag, b in zip(spec.block_tags(x), x.blocks)))


def _vector_start(tag, n: int) -> np.ndarray:
    if isinstance(tag, (Zero, L2Ball, LinfBall, HardThreshold)):
        return np.zeros(n)
    if isinstance(tag, SignSet):
        return np.full(n, tag.radius)
    if isinstance(tag, LinfSphere):
        b = np.zeros(n)
        b[0] = tag.radius
        return b
    raise InvalidSpecError(f"unsupported vector tag {type(tag).__name__}")


def feasible_start(spec: ConstraintSpec, shapes) -> ParamVec:
    """A deterministic feasible point to start a run from.

    A matrix block is the vector start of its sigma-space set on the diagonal.
    """
    shapes = list(shapes)
    blocks = []
    for i, shape in enumerate(shapes):
        tag = spec.tag(i, len(shapes))
        if len(shape) == 1:
            blocks.append(_vector_start(tag, shape[0]))
        else:
            b = np.zeros(shape)
            np.fill_diagonal(b, _vector_start(_sigma_tag(tag), min(shape)))
            blocks.append(b)
    return ParamVec(blocks, validate=False, copy=False)

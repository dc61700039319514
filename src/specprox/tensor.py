"""Block-structured parameter arithmetic and a self-contained small-matrix SVD.

A parameter lives in a product space ``E = E_1 x ... x E_N`` whose factors are
real vector or matrix blocks.  :class:`ParamVec` is an immutable-by-convention
ordered tuple of such blocks; all arithmetic is blockwise and requires exactly
matching shapes.  A ParamVec is one point, or a batch of R points whose blocks
carry one leading axis: (R, n) vectors and (R, m, n) matrices.  Every
reduction runs over a block's trailing axes only, in a fixed order, so row i
of a batch gets the same bits as the point on its own.

``full_svd`` and ``singular_values_batch`` share one one-sided Jacobi kernel.
It is deliberately self-contained: the exact power-of-two prescale (which
keeps it right at every finite float64 scale), the round-robin pair order, the
threshold ``big * eps``, the orthonormal completion and the sign convention
are all fixed, so a given input always produces bit-identical factors, which
is what makes traces replayable.  Both take a matrix or a stack of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConformabilityError, InvalidInputError, NumericalError

# Absolute floor on an off-diagonal Gram entry of the prescaled matrix, below
# which no rotation acts on the data.
_GRAM_FLOOR = 2.0 ** -511
_MAX_SWEEPS = 60
_ROTATION_SIGNS = np.array([-1.0, 1.0])[:, None, None]  # p <- c (p - t q), q <- c (q + t p)


def trailing_sum(a: np.ndarray, rank: int) -> np.ndarray:
    """Sum of ``a`` over its last ``rank`` axes, one value per leading index.

    The axes are flattened in C order and summed pairwise along one contiguous
    axis, so each row's sum does not depend on the other rows.
    """
    return np.add.reduce(a.reshape(a.shape[:a.ndim - rank] + (-1,)), axis=-1)


def _as_block(a, lead: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim - lead not in (1, 2):
        raise InvalidInputError(
            f"blocks must be 1-d or 2-d arrays after {lead} batch axes, got ndim={arr.ndim}")
    if arr.size == 0 or min(arr.shape) < 1:
        raise InvalidInputError("blocks must have strictly positive dimensions")
    return arr


class ParamVec:
    """Ordered list of real vector/matrix blocks; a point of the product space.

    Parameters
    ----------
    blocks : iterable of array-like
        1-d arrays are vector blocks, 2-d arrays matrix blocks (after the
        batch axes).
    validate : bool
        Check dimensions and finiteness.  Internal arithmetic skips the check
        for speed; anything user-facing validates.
    copy : bool
        Copy the underlying arrays so the value cannot be mutated from outside.
    lead : int
        Number of leading batch axes on every block: 0 for a point, 1 for a
        batch whose row i is the point :meth:`row` ``(i)``.
    """

    __slots__ = ("blocks", "lead")

    def __init__(self, blocks, *, validate: bool = True, copy: bool = True, lead: int = 0):
        if validate:
            blocks = tuple(_as_block(b, lead) for b in blocks)
            if not blocks:
                raise InvalidInputError("ParamVec needs at least one block")
            for b in blocks:
                if not np.isfinite(b).all():
                    raise InvalidInputError("non-finite entries in a block")
        else:
            blocks = tuple(blocks)
        if copy:
            blocks = tuple(np.array(b, dtype=float) for b in blocks)
        self.blocks = blocks
        self.lead = lead

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i) -> np.ndarray:
        return self.blocks[i]

    def __repr__(self) -> str:
        return f"ParamVec(shapes={self.shapes}, lead={self.lead})"

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.shape for b in self.blocks)

    def copy(self) -> "ParamVec":
        return ParamVec(self.blocks, validate=False, copy=True, lead=self.lead)

    def row(self, i: int) -> "ParamVec":
        """Point i of a batch."""
        return ParamVec((b[i] for b in self.blocks), validate=False, copy=False)

    def conformable(self, other: "ParamVec") -> bool:
        return self.shapes == other.shapes

    def _require_conformable(self, other: "ParamVec") -> None:
        if not self.conformable(other):
            raise ConformabilityError(
                f"block shapes differ: {self.shapes} vs {other.shapes}"
            )

    def _new(self, blocks) -> "ParamVec":
        return ParamVec(blocks, validate=False, copy=False, lead=self.lead)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ParamVec") -> "ParamVec":
        self._require_conformable(other)
        return self._new(a + b for a, b in zip(self.blocks, other.blocks))

    def __sub__(self, other: "ParamVec") -> "ParamVec":
        self._require_conformable(other)
        return self._new(a - b for a, b in zip(self.blocks, other.blocks))

    def __mul__(self, a) -> "ParamVec":
        """Scalar multiple; a batch also takes one factor per row, an (R,) array."""
        if np.ndim(a):
            return self._new(a.reshape(a.shape + (1,) * (b.ndim - a.ndim)) * b
                             for b in self.blocks)
        a = float(a)
        return self._new(a * b for b in self.blocks)

    __rmul__ = __mul__

    def __truediv__(self, a: float) -> "ParamVec":
        return self * (1.0 / float(a))

    def __neg__(self) -> "ParamVec":
        return self * -1.0


def zeros(shapes) -> ParamVec:
    """ParamVec of zero blocks with the given shapes."""
    return ParamVec((np.zeros(s) for s in shapes), validate=False, copy=False)


def axpy(a: float, x: ParamVec, y: ParamVec) -> ParamVec:
    """a*x + y, blockwise."""
    x._require_conformable(y)
    a = float(a)
    return x._new(a * bx + by for bx, by in zip(x.blocks, y.blocks))


def dot(x: ParamVec, y: ParamVec):
    """Euclidean inner product of the product space; one value per row of a batch."""
    x._require_conformable(y)
    return sum(trailing_sum(bx * by, bx.ndim - x.lead) for bx, by in zip(x.blocks, y.blocks))


def norm2(x: ParamVec):
    """Product-space Euclidean norm (Frobenius on matrix blocks); one value per row of a batch."""
    return np.sqrt(sum(trailing_sum(b * b, b.ndim - x.lead) for b in x.blocks))


# ---------------------------------------------------------------------------
# Singular value decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Full SVD ``M = U @ Diag(sigma) @ V.T``, or a block factored in such a basis.

    ``U`` is m-by-m orthogonal, ``V`` is n-by-n orthogonal and ``sigma`` holds
    the ``min(m, n)`` singular values in nonincreasing order (in a factored
    block, a signed, unsorted diagonal).  Columns for zero sigma are retained.
    A stack carries the same leading axes on all three.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self, sigma: np.ndarray | None = None) -> np.ndarray:
        """``U @ Diag(sigma) @ V.T`` with these singular vectors (default: ``self.sigma``)."""
        if sigma is None:
            sigma = self.sigma
        q = sigma.shape[-1]
        return (self.U[..., :q] * sigma[..., None, :]) @ np.swapaxes(self.V[..., :q], -1, -2)

    def __rmul__(self, a: float) -> "SvdResult":
        return SvdResult(self.U, a * self.sigma, self.V)


def dense(x: ParamVec) -> ParamVec:
    """``x`` with every factored block (an :class:`SvdResult`) reassembled."""
    return x._new(b.reconstruct() if isinstance(b, SvdResult) else b for b in x.blocks)


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, int], ...]:
    """Round-robin (Brent-Luk) sweep over n columns: rounds of k = n//2 disjoint
    pairs p < q that together cover every pair once, each stored as the index
    array [p_1..p_k, q_1..q_k] and k."""
    m = n + n % 2  # odd n: slot m-1 is a bye
    rounds = []
    for r in range(m - 1 if n > 1 else 0):
        pairs = [(r, m - 1)] + [((r + i) % (m - 1), (r - i) % (m - 1)) for i in range(1, m // 2)]
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n)
        cols = np.array([a for a, _ in pairs] + [b for _, b in pairs], dtype=np.intp)
        cols.flags.writeable = False  # shared by every caller through the cache
        rounds.append((cols, len(pairs)))
    return tuple(rounds)


def _jacobi(B: np.ndarray, V: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Jacobi on the columns of each matrix of an (N, big, small) stack.

    ``B[i]`` is first scaled by the power of two ``2**-e[i]`` that puts its
    largest entry in [0.5, 1), which is exact and keeps the Gram entries from
    under- or overflowing.  A pair is left alone once ``|apq|`` is at most
    ``big * eps * sqrt(app) * sqrt(aqq)`` (the rounding of such a dot product)
    or ``_GRAM_FLOOR`` (the floor moves no sigma
    by more than ``sqrt(small) * 2**-254 * sigma_max``).  In place, ``B`` becomes
    ``U Sigma 2**-e`` and the optional (N, small, small) ``V`` accumulates the
    right rotations.  Returns the column norms of ``B`` (unsorted) and ``e``.
    """
    N, big, small = B.shape
    tol = big * np.finfo(float).eps
    _, e = np.frexp(np.abs(B).max(axis=(1, 2), initial=0.0))
    # W[r, j, i] is entry r of column j of B[i] (then of V[i]).  The stack
    # index is innermost, so each numpy call below spans the whole stack, and
    # every Gram entry is summed over r in order, whatever N.
    W = np.ldexp(B, -e[:, None, None]).transpose(1, 2, 0)
    if V is not None:
        W = np.concatenate((W, V.transpose(1, 2, 0)))
    W = np.ascontiguousarray(W)
    width = W.shape[0]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for cols, k in _round_robin(small):
            X = W.take(cols, axis=1).reshape(width, 2, k, N)  # X[:, 0] = p, X[:, 1] = q
            G = X[:big]
            gram = np.add.reduce(G[:, :, None] * G[:, None], axis=0)  # [[app, apq], [apq, aqq]]
            apq = gram[0, 1]
            mask = np.abs(apq) > np.maximum(
                tol * (np.sqrt(gram[0, 0]) * np.sqrt(gram[1, 1])), _GRAM_FLOOR)
            if not np.count_nonzero(mask):
                continue
            rotated = True
            # t = tan(theta), the smaller root of t^2 + 2 zeta t = 1, zeta = d / (2 apq).
            d, a2 = gram[1, 1] - gram[0, 0], apq + apq
            t = np.divide(a2, d + np.copysign(np.hypot(d, a2), d),
                          out=np.zeros(a2.shape), where=mask)
            X = X + (t * _ROTATION_SIGNS) * X[:, ::-1]
            W[:, cols] = (X / np.hypot(1.0, t)).reshape(width, 2 * k, N)
        if not rotated:
            break
    else:
        raise NumericalError(
            f"one-sided Jacobi did not converge in {_MAX_SWEEPS} sweeps (shape {B.shape[1:]})"
        )
    G = W[:big]
    B[...] = G.transpose(2, 0, 1)
    if V is not None:
        V[...] = W[big:].transpose(2, 0, 1)
    # accumulate sums in order also for a single column, where reduce goes pairwise.
    return np.sqrt(np.add.accumulate(G * G)[-1]).T, e


def _complete_orthonormal(cols: np.ndarray, sigma: np.ndarray, m: int) -> np.ndarray:
    """m-by-m orthogonal matrix whose leading columns are cols[:, j]/sigma[j].

    Columns with (relatively) vanishing sigma, and the trailing m - n slots,
    are filled deterministically by Gram-Schmidt over the canonical basis,
    always picking the basis vector with the largest residual (lowest index
    on ties).
    """
    n = cols.shape[1]
    kept = sigma > sigma[0] * 1e-13 * max(m, n)
    filled = np.flatnonzero(kept).tolist()
    U = np.zeros((m, m))
    U[:, filled] = cols[:, filled] / sigma[filled]
    # One projector I - U_f U_f^T per call, less u u^T for each slot it fills.
    F = U[:, filled]
    basis = np.eye(m) - F @ F.T
    for slot in np.flatnonzero(~kept).tolist() + list(range(n, m)):
        residuals = np.sqrt((basis * basis).sum(axis=0))
        pick = int(np.argmax(residuals))
        v = basis[:, pick]
        # One more orthogonalization pass for stability.
        F = U[:, filled]
        v = v - F @ (F.T @ v)
        nv = math.sqrt(float(v @ v))
        if nv <= 1e-8:
            raise NumericalError("orthonormal completion failed")
        u = v / nv
        U[:, slot] = u
        basis -= np.outer(u, u)
        filled.append(slot)
    return U


def _apply_sign_convention(U: np.ndarray, V: np.ndarray, q: int) -> None:
    """Make the largest-magnitude entry of each left singular vector positive.

    Triplet columns (j < q) flip U and V together so the product is unchanged;
    completion columns flip alone.  np.argmax breaks ties at the lowest index.
    """
    m = U.shape[1]
    for j in range(m):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
            if j < q:
                V[:, j] = -V[:, j]
    for j in range(q, V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0.0:
            V[:, j] = -V[:, j]


def _stack(M, name: str) -> tuple[np.ndarray, tuple[int, ...], bool]:
    """A finite matrix or stack (..., m, n) as an (N, big, small) copy for :func:`_jacobi`,
    with the leading shape and whether each matrix was transposed."""
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.size == 0:
        raise InvalidInputError(f"{name} expects a matrix or a stack of matrices, "
                                f"with positive dimensions")
    if not np.isfinite(A).all():
        raise InvalidInputError(f"{name}: non-finite entries")
    m, n = A.shape[-2:]
    transposed = m < n
    if transposed:
        A = np.swapaxes(A, -1, -2)
    return A.reshape((-1,) + A.shape[-2:]).copy(), A.shape[:-2], transposed


def full_svd(M) -> SvdResult:
    """Full SVD of a real matrix via one-sided Jacobi on the smaller dimension.

    Deterministic: exact power-of-two prescale, fixed round-robin sweep order,
    stable nonincreasing sort of the singular values, and a fixed sign
    convention on the singular vectors.  Right at every finite input scale.
    A stack (..., m, n) is factored as one Jacobi stack; matrix i of it gets
    the bits of its own call.

    Raises
    ------
    InvalidInputError
        If the input is not a finite matrix or stack of matrices.
    """
    B, lead, transposed = _stack(M, "full_svd")
    big, small = B.shape[1:]
    m, n = (small, big) if transposed else (big, small)
    W = np.repeat(np.eye(small)[None], B.shape[0], axis=0)
    scaled, e = _jacobi(B, W)
    Us, sigmas, Vs = [], [], []
    for i in range(B.shape[0]):
        order = np.argsort(-scaled[i], kind="stable")
        s = scaled[i, order]
        left = _complete_orthonormal(B[i][:, order], s, big)
        right = W[i][:, order]
        U, V = (right, left) if transposed else (left, right)
        _apply_sign_convention(U, V, small)
        Us.append(U)
        sigmas.append(np.ldexp(s, e[i]))
        Vs.append(V)
    return SvdResult(U=np.stack(Us).reshape(lead + (m, m)),
                     sigma=np.stack(sigmas).reshape(lead + (small,)),
                     V=np.stack(Vs).reshape(lead + (n, n)))


def singular_values_batch(stack) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack (..., m, n), batched Jacobi.

    The rotation schedule is data-independent, so all matrices in the stack
    are swept simultaneously with vectorized column rotations; this is the
    fast path for property tests that need thousands of small spectra.  Row i
    equals ``full_svd(stack[i]).sigma`` bit for bit.
    """
    B, lead, _ = _stack(stack, "singular_values_batch")
    scaled, e = _jacobi(B)
    sigma = np.ldexp(scaled, e[:, None])
    sigma.sort(axis=1)
    return sigma[:, ::-1].reshape(lead + B.shape[-1:])

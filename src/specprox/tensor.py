"""Block-structured parameter arithmetic and a self-contained small-matrix SVD.

A parameter lives in a product space ``E = E_1 x ... x E_N`` whose factors are
real vector or matrix blocks.  :class:`ParamVec` is an immutable-by-convention
ordered tuple of such blocks; all arithmetic is blockwise and requires exactly
matching shapes.

``full_svd`` and ``singular_values_batch`` share one one-sided Jacobi kernel.
It is deliberately self-contained: the exact power-of-two prescale (which
keeps it right at every finite float64 scale), the round-robin pair order, the
convergence threshold, the orthonormal completion and the sign convention are
all fixed, so a given input always produces bit-identical factors, which is
what makes traces replayable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConformabilityError, InvalidInputError, NumericalError

# Relative off-diagonal Gram threshold for Jacobi convergence, and an absolute
# floor (on the prescaled matrix) below which no rotation acts on the data.
_JACOBI_REL_TOL = 1e-12
_GRAM_FLOOR = 2.0 ** -511
_MAX_SWEEPS = 60
_ROTATION_SIGNS = np.array([-1.0, 1.0])[:, None, None]  # p <- c (p - t q), q <- c (q + t p)


def _as_block(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (1, 2):
        raise InvalidInputError(f"blocks must be 1-d or 2-d arrays, got ndim={arr.ndim}")
    if arr.size == 0 or min(arr.shape) < 1:
        raise InvalidInputError("blocks must have strictly positive dimensions")
    return arr


class ParamVec:
    """Ordered list of real vector/matrix blocks; a point of the product space.

    Parameters
    ----------
    blocks : iterable of array-like
        1-d arrays are vector blocks, 2-d arrays matrix blocks.
    validate : bool
        Check dimensions and finiteness.  Internal arithmetic skips the check
        for speed; anything user-facing validates.
    copy : bool
        Copy the underlying arrays so the value cannot be mutated from outside.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks, *, validate: bool = True, copy: bool = True):
        if validate:
            blocks = tuple(_as_block(b) for b in blocks)
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

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i) -> np.ndarray:
        return self.blocks[i]

    def __repr__(self) -> str:
        return f"ParamVec(shapes={self.shapes})"

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.shape for b in self.blocks)

    @property
    def dim(self) -> int:
        """Total number of scalar entries across blocks."""
        return sum(b.size for b in self.blocks)

    def copy(self) -> "ParamVec":
        return ParamVec(self.blocks, validate=False, copy=True)

    def conformable(self, other: "ParamVec") -> bool:
        return self.shapes == other.shapes

    def _require_conformable(self, other: "ParamVec") -> None:
        if not self.conformable(other):
            raise ConformabilityError(
                f"block shapes differ: {self.shapes} vs {other.shapes}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ParamVec") -> "ParamVec":
        self._require_conformable(other)
        return ParamVec(
            (a + b for a, b in zip(self.blocks, other.blocks)),
            validate=False, copy=False,
        )

    def __sub__(self, other: "ParamVec") -> "ParamVec":
        self._require_conformable(other)
        return ParamVec(
            (a - b for a, b in zip(self.blocks, other.blocks)),
            validate=False, copy=False,
        )

    def __mul__(self, a: float) -> "ParamVec":
        a = float(a)
        return ParamVec((a * b for b in self.blocks), validate=False, copy=False)

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
    return ParamVec(
        (a * bx + by for bx, by in zip(x.blocks, y.blocks)),
        validate=False, copy=False,
    )


def dot(x: ParamVec, y: ParamVec) -> float:
    """Euclidean inner product of the product space."""
    x._require_conformable(y)
    return float(sum(np.vdot(bx, by) for bx, by in zip(x.blocks, y.blocks)))


def norm2(x: ParamVec) -> float:
    """Product-space Euclidean norm (Frobenius on matrix blocks)."""
    return math.sqrt(sum(float(np.vdot(b, b)) for b in x.blocks))


def blockwise_frobenius(x: ParamVec) -> list[float]:
    """Per-block Euclidean/Frobenius norms."""
    return [math.sqrt(float(np.vdot(b, b))) for b in x.blocks]


def allclose(x: ParamVec, y: ParamVec, atol: float = 0.0, rtol: float = 1e-12) -> bool:
    if not x.conformable(y):
        return False
    return all(
        np.allclose(a, b, atol=atol, rtol=rtol) for a, b in zip(x.blocks, y.blocks)
    )


# ---------------------------------------------------------------------------
# Singular value decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Full SVD ``M = U @ Diag(sigma) @ V.T``.

    ``U`` is m-by-m orthogonal, ``V`` is n-by-n orthogonal and ``sigma`` holds
    the ``min(m, n)`` singular values in nonincreasing order.  Columns for zero
    singular values are retained; :meth:`reduced` drops them.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.sigma.size
        return (self.U[:, :q] * self.sigma) @ self.V[:, :q].T

    def reduced(self, rel_tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drop singular triplets with ``sigma_i <= rel_tol * sigma_max``."""
        smax = float(self.sigma[0]) if self.sigma.size else 0.0
        keep = self.sigma > rel_tol * smax
        return self.U[:, : self.sigma.size][:, keep], self.sigma[keep], self.V[:, : self.sigma.size][:, keep]


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
    ``tol * sqrt(app) * sqrt(aqq)`` or ``_GRAM_FLOOR`` (the floor moves no sigma
    by more than ``sqrt(small) * 2**-254 * sigma_max``).  In place, ``B`` becomes
    ``U Sigma 2**-e`` and the optional (N, small, small) ``V`` accumulates the
    right rotations.  Returns the column norms of ``B`` (unsorted) and ``e``.
    """
    N, big, small = B.shape
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
                _JACOBI_REL_TOL * (np.sqrt(gram[0, 0]) * np.sqrt(gram[1, 1])), _GRAM_FLOOR)
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
    smax = float(sigma[0]) if n else 0.0
    tiny = smax * 1e-13 * max(m, n)
    U = np.zeros((m, m))
    filled: list[int] = []
    pending: list[int] = []
    for j in range(n):
        if sigma[j] > tiny and sigma[j] > 0.0:
            U[:, j] = cols[:, j] / sigma[j]
            filled.append(j)
        else:
            pending.append(j)
    pending.extend(range(n, m))
    for slot in pending:
        basis = np.eye(m)
        for j in filled:
            basis -= np.outer(U[:, j], U[:, j] @ basis)
        residuals = np.sqrt((basis * basis).sum(axis=0))
        pick = int(np.argmax(residuals))
        v = basis[:, pick]
        # One more orthogonalization pass for stability.
        for j in filled:
            v = v - (U[:, j] @ v) * U[:, j]
        nv = math.sqrt(float(v @ v))
        if nv <= 1e-8:
            raise NumericalError("orthonormal completion failed")
        U[:, slot] = v / nv
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


def full_svd(M) -> SvdResult:
    """Full SVD of a real matrix via one-sided Jacobi on the smaller dimension.

    Deterministic: exact power-of-two prescale, fixed round-robin sweep order,
    stable nonincreasing sort of the singular values, and a fixed sign
    convention on the singular vectors.  Right at every finite input scale.

    Raises
    ------
    InvalidInputError
        If the input is not a finite 2-d array.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or min(A.shape) < 1:
        raise InvalidInputError("full_svd expects a 2-d matrix with positive dimensions")
    if not np.isfinite(A).all():
        raise InvalidInputError("full_svd: non-finite entries")
    m, n = A.shape
    transposed = m < n
    B = (A.T if transposed else A)[None].copy()
    big, small = B.shape[1:]
    W = np.eye(small)[None]
    scaled, e = _jacobi(B, W)
    order = np.argsort(-scaled[0], kind="stable")
    scaled = scaled[0, order]
    left = _complete_orthonormal(B[0][:, order], scaled, big)
    W = W[0][:, order]
    if transposed:
        U, V = W, left
    else:
        U, V = left, W
    _apply_sign_convention(U, V, small)
    return SvdResult(U=U, sigma=np.ldexp(scaled, e[0]), V=V)


def singular_values_batch(stack) -> np.ndarray:
    """Singular values of a stack of same-shaped matrices, batched Jacobi.

    The rotation schedule is data-independent, so all matrices in the stack
    are swept simultaneously with vectorized column rotations; this is the
    fast path for property tests that need thousands of small spectra.  Row i
    equals ``full_svd(stack[i]).sigma`` bit for bit.
    """
    A = np.asarray(stack, dtype=float)
    if A.ndim != 3:
        raise InvalidInputError("singular_values_batch expects an (N, m, n) stack")
    if not np.isfinite(A).all():
        raise InvalidInputError("singular_values_batch: non-finite entries")
    B = np.transpose(A, (0, 2, 1)).copy() if A.shape[1] < A.shape[2] else A.copy()
    scaled, e = _jacobi(B)
    sigma = np.ldexp(scaled, e[:, None])
    sigma.sort(axis=1)
    return sigma[:, ::-1]

"""Rank-revealing least squares shared by every estimator in the package.

``pivoted_lstsq`` needs numpy alone. One LAPACK QR of the Fortran-ordered
``[X, y]`` compresses the problem to a (k+1)×k triangle ``T`` and the
right-hand side ``r`` beside it: ``X = Q T`` and ``y = Q r`` with ``Q``
orthonormal, so any β has ``||y - Xβ|| = ||r - Tβ||``. Each column of
``T`` is scaled to unit norm, which makes the rank rule independent of
column scale. The scaled triangle then gets a column-pivoted Householder QR
(Businger & Golub 1965), β comes from back-substitution and is un-scaled,
and the residuals are computed explicitly as ``y - X @ β``.

The rank rule: a column is dependent when its pivoted R diagonal falls
below ``RANK_TOL`` times the largest diagonal, both on unit-norm columns.
An exactly zero column always drops.

References
----------
Businger, P. and Golub, G. H. (1965). Linear least squares solutions by
    Householder transformations. Numerische Mathematik, 7(3), 269-276.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import EstimationError

# Relative threshold below which a pivoted-QR diagonal marks a column as
# (numerically) linearly dependent.
RANK_TOL = 1e-10


class LstsqResult(NamedTuple):
    beta: np.ndarray
    ssr: float
    residuals: np.ndarray
    rank: int
    dropped: tuple[int, ...]


def _keeps_every_column(T: np.ndarray) -> bool:
    """Whether the pivoted rank rule provably keeps every column of ``T``.

    With σ_min and σ_max the extreme singular values of the triangle (of
    its leading k×k block: any row below is zero), every pivoted diagonal
    satisfies |r_ii| ≥ σ_min: |r_ii| is the distance from the i-th pivot
    column to the span of the earlier ones, which is at least the smallest
    singular value of those columns, and that is at least σ_min (a subset
    of columns has no smaller σ_min). The first pivot |r_00| is the largest
    column norm, which is at most σ_max. So σ_min > RANK_TOL · σ_max
    implies |r_ii| > RANK_TOL · |r_00| for every i, and the pivot search
    would keep every column. The factor 20 covers rounding in both
    factorizations.
    """
    m, k = T.shape
    if m < k:
        return False
    sigma = np.linalg.svd(T[:k], compute_uv=False)
    return bool(sigma[-1] > 20.0 * RANK_TOL * sigma[0])


def _pivoted_qr(T: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Column-pivoted Householder QR of ``T``, with ``r`` carried along.

    Returns the reduced triangle, the transformed right-hand side, the
    column permutation and the rank under the ``RANK_TOL`` rule. Each step
    takes the column with the largest remaining norm (recomputed, not
    downdated, since ``T`` is small) and stops once that norm falls below
    ``RANK_TOL`` times the first pivot's; the column that stopped it is
    moved to position ``rank``.
    """
    A, b = T.copy(), r.copy()
    m, k = A.shape
    perm = np.arange(k)
    top = 0.0
    rank = min(m, k)
    for j in range(min(m, k)):
        norms = np.sqrt(np.einsum("ij,ij->j", A[j:, j:], A[j:, j:]))
        p = j + int(np.argmax(norms))
        if j == 0:
            top = norms[p]
        if p != j:
            A[:, [j, p]] = A[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
        if top == 0.0 or norms[p - j] < RANK_TOL * top:
            rank = j
            break
        v = A[j:, j].copy()
        alpha = -np.copysign(norms[p - j], v[0])
        v[0] -= alpha
        vv = float(v @ v)
        A[j:, j + 1:] -= np.outer(v, (2.0 / vv) * (v @ A[j:, j + 1:]))
        b[j:] -= v * ((2.0 / vv) * float(v @ b[j:]))
        A[j, j] = alpha
        A[j + 1:, j] = 0.0
    return A, b, perm, rank


def _back_substitute(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system ``R x = b``."""
    n = b.size
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - R[i, i + 1:n] @ x[i + 1:]) / R[i, i]
    return x


def pivoted_lstsq(
    X: np.ndarray,
    y: np.ndarray,
    *,
    on_deficient: Literal["raise", "drop"] = "raise",
    names: Sequence[str] | None = None,
) -> LstsqResult:
    """Least squares via QR with column pivoting on unit-norm columns.

    Columns whose pivoted R diagonal falls below ``RANK_TOL`` times the
    largest diagonal (on columns scaled to unit norm) are flagged. Depending
    on ``on_deficient`` they are either reported as an error (naming the
    offending column) or dropped, in which case their coefficient is
    exactly zero.

    When the scaled triangle's singular values prove that the rule keeps
    every column (see ``_keeps_every_column``), the pivot search is skipped
    and β comes straight from the unpivoted triangle.

    The SSR is computed from the explicit residual vector ``y - X @ beta``
    so that callers sharing this routine get bit-identical sums of squares
    for identical inputs.
    """
    n, k = X.shape
    if n < k and on_deficient == "raise":
        raise EstimationError(f"more columns ({k}) than rows ({n})")
    Xy = np.empty((n, k + 1), order="F")
    Xy[:, :k] = X
    Xy[:, k] = y
    R = np.linalg.qr(Xy, mode="r")
    norms = np.sqrt(np.einsum("ij,ij->j", R[:, :k], R[:, :k]))
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    T, r = R[:, :k] * scale, R[:, k]
    if k and _keeps_every_column(T):
        rank, perm, triangle, rhs = k, np.arange(k), T, r
    else:
        triangle, rhs, perm, rank = _pivoted_qr(T, r)
    if rank < k and on_deficient == "raise":
        bad = int(perm[rank])
        label = names[bad] if names is not None else f"column {bad}"
        raise EstimationError(f"rank-deficient regressor matrix ({label})")
    beta = np.zeros(k)
    if rank > 0:
        kept = perm[:rank]
        beta[kept] = _back_substitute(triangle[:rank, :rank], rhs[:rank]) * scale[kept]
    residuals = y - X @ beta
    ssr = float(residuals @ residuals)
    return LstsqResult(beta, ssr, residuals, rank, tuple(int(i) for i in perm[rank:]))

"""Rank-revealing least squares shared by every estimator in the package."""

from __future__ import annotations

from typing import Literal, NamedTuple, Sequence

import numpy as np
import scipy.linalg

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


def pivoted_lstsq(
    X: np.ndarray,
    y: np.ndarray,
    *,
    on_deficient: Literal["raise", "drop"] = "raise",
    names: Sequence[str] | None = None,
) -> LstsqResult:
    """Least squares via QR with column pivoting.

    Columns whose pivoted R diagonal falls below ``RANK_TOL`` times the
    largest diagonal are flagged. Depending on ``on_deficient`` they are
    either reported as an error (naming the offending column) or dropped,
    in which case their coefficient is exactly zero.

    The SSR is computed from the explicit residual vector ``y - X @ beta``
    so that callers sharing this routine get bit-identical sums of squares
    for identical inputs.
    """
    n, k = X.shape
    if n < k and on_deficient == "raise":
        raise EstimationError(f"more columns ({k}) than rows ({n})")
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        below = np.nonzero(diag < RANK_TOL * diag[0])[0]
        rank = int(below[0]) if below.size else diag.size
    if rank < k and on_deficient == "raise":
        bad = piv[rank] if rank < len(piv) else piv[-1]
        label = names[bad] if names is not None else f"column {bad}"
        raise EstimationError(f"rank-deficient regressor matrix ({label})")
    beta = np.zeros(k)
    if rank > 0:
        rhs = Q[:, :rank].T @ y
        beta_perm = scipy.linalg.solve_triangular(R[:rank, :rank], rhs)
        beta[piv[:rank]] = beta_perm
    residuals = y - X @ beta
    ssr = float(residuals @ residuals)
    return LstsqResult(beta, ssr, residuals, rank, tuple(int(i) for i in piv[rank:]))


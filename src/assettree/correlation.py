"""Pearson correlation of return rows and the distance transform.

The distance between two companies is d = sqrt(2 (1 - rho)) where rho is
the Pearson correlation of their return series over the window. Perfectly
correlated pairs sit at distance 0, uncorrelated pairs at sqrt(2), and
anti-correlated pairs at 2. The transform is strictly monotone
decreasing, so correlation ranking and distance ranking always agree.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError


def pearson_matrix(tickers: list[str], returns: np.ndarray) -> np.ndarray:
    """Sample Pearson correlation of every pair of return rows.

    Row k of `returns` belongs to tickers[k]. The result is symmetric with
    an exact unit diagonal. Raises DegenerateSeriesError naming every
    zero-variance ticker, and InsufficientDataError for windows shorter
    than 3 observations.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows")
    if r.shape[1] < 3:
        raise InsufficientDataError("window length %d < 3" % r.shape[1])
    sd = r.std(axis=1)
    flat = np.flatnonzero(sd == 0.0)
    if flat.size:
        raise DegenerateSeriesError([tickers[i] for i in flat])

    rho = np.corrcoef(r)  # already clipped to [-1, 1] by numpy
    # Exact symmetry and an exact unit diagonal, independent of BLAS details.
    upper = np.triu(rho, 1)
    rho = upper + upper.T
    np.fill_diagonal(rho, 1.0)
    return rho


def to_distance(rho: np.ndarray) -> np.ndarray:
    """Map correlations to distances via d = sqrt(2 (1 - rho))."""
    return np.sqrt(2.0 * (1.0 - rho))

"""Pearson correlation of return rows and the distance transform.

The distance between two companies is d = sqrt(2 (1 - rho)) where rho is
the Pearson correlation of their return series over the window. Perfectly
correlated pairs sit at distance 0, uncorrelated pairs at sqrt(2), and
anti-correlated pairs at 2. The transform is strictly monotone
decreasing, so correlation ranking and distance ranking always agree.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError


# A row is flat when its returns spread no wider than the rounding of
# r = ln p[t+1] - ln p[t] can spread them: a few eps times the size of the
# log prices, not of the returns. A price that doubles every day gives such
# a row, and its correlations would be rounding noise.
FLAT_EPS = 4 * np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def _below_diagonal(n: int) -> np.ndarray:
    return np.tri(n, k=-1, dtype=bool)


def pearson_matrix(tickers: list[str], returns: np.ndarray, log_scale=0.0, out=None) -> np.ndarray:
    """Sample Pearson correlation of every pair of return rows, into `out` if given.

    Row k of `returns` belongs to tickers[k], and log_scale[k] bounds the
    |ln p| of its prices (`ReturnPanel.log_scale`). The result is
    symmetric with an exact unit diagonal. Raises DegenerateSeriesError
    naming every flat row, one with max(r) - min(r) <= FLAT_EPS *
    (log_scale + max |r|), and InsufficientDataError for windows shorter
    than 3 observations; neither writes to `out`, a C-contiguous N x N
    float array.
    """
    x = np.array(returns, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows")
    n, w = x.shape
    if w < 3:
        raise InsufficientDataError("window length %d < 3" % w)
    high, low = x.max(axis=1), x.min(axis=1)
    flat = np.flatnonzero(high - low <= FLAT_EPS * (log_scale + np.maximum(high, -low)))
    if flat.size:
        raise DegenerateSeriesError([tickers[i] for i in flat])

    # np.corrcoef's own steps, so every value is the same to the bit.
    x -= x.mean(axis=1)[:, None]
    rho = np.dot(x, x.T, out=out)
    del x  # freed before np.copyto makes its own copy of rho.T
    rho *= 1.0 / (w - 1)
    sd = np.sqrt(np.diag(rho))
    rho /= sd[:, None]
    rho /= sd[None, :]
    np.clip(rho, -1.0, 1.0, out=rho)
    # Exact symmetry and an exact unit diagonal, independent of BLAS details.
    np.copyto(rho, rho.T, where=_below_diagonal(n))
    np.fill_diagonal(rho, 1.0)
    return rho


def to_distance(rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map correlations to distances via d = sqrt(2 (1 - rho)), into `out` if given."""
    out = np.subtract(1.0, rho, out=out)
    out *= 2.0
    return np.sqrt(out, out=out)

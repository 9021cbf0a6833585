"""Pearson correlation of return rows and the distance transform.

The distance between two companies is d = sqrt(2 (1 - rho)) where rho is
the Pearson correlation of their return series over the window. Perfectly
correlated pairs sit at distance 0, uncorrelated pairs at sqrt(2), and
anti-correlated pairs at 2. The transform is strictly monotone
decreasing, so correlation ranking and distance ranking always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError, InvariantError
from .ingestion import ReturnPanel

# Numerical overshoot of |rho| beyond 1 tolerated before clamping.
CLAMP_EPS = 1e-12


@dataclass
class CorrelationMatrix:
    """Symmetric Pearson matrix with an exact unit diagonal."""

    tickers: list[str]
    rho: np.ndarray


@dataclass
class DistanceMatrix:
    """Symmetric matrix of sqrt(2(1-rho)) distances, zero diagonal."""

    tickers: list[str]
    d: np.ndarray


def pearson_matrix(panel: ReturnPanel) -> CorrelationMatrix:
    """Sample Pearson correlation of every pair of return rows.

    Raises DegenerateSeriesError naming every zero-variance ticker, and
    InsufficientDataError for windows shorter than 3 observations.
    """
    r = np.asarray(panel.returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows")
    if r.shape[1] < 3:
        raise InsufficientDataError("window length %d < 3" % r.shape[1])
    sd = r.std(axis=1)
    flat = np.flatnonzero(sd == 0.0)
    if flat.size:
        raise DegenerateSeriesError([panel.tickers[i] for i in flat])

    rho = np.corrcoef(r)
    overshoot = np.abs(rho).max() - 1.0
    if overshoot > CLAMP_EPS:
        raise InvariantError(
            "correlation overshoot %.3e exceeds clamp tolerance" % overshoot
        )
    np.clip(rho, -1.0, 1.0, out=rho)
    # Exact symmetry and an exact unit diagonal, independent of BLAS details.
    upper = np.triu(rho, 1)
    rho = upper + upper.T
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(list(panel.tickers), rho)


def to_distance(corr: CorrelationMatrix) -> DistanceMatrix:
    """Map correlations to distances via d = sqrt(2 (1 - rho))."""
    d = np.sqrt(2.0 * (1.0 - corr.rho))
    return DistanceMatrix(list(corr.tickers), d)

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


# Bytes of each of the three row-block buffers of `flat_rows`' sliding
# pass (at least one panel row each).
_FLAT_BLOCK_BYTES = 32768


def _spread_is_rounding(high, low, log_scale):
    return high - low <= FLAT_EPS * (log_scale + np.maximum(high, -low))


def flat_rows(returns: np.ndarray, log_scale, spans: list[tuple[int, int]]) -> np.ndarray:
    """(len(spans), N) mask of the rows of `returns` that are flat in each [start, end) span.

    Row k is flat in a span when max(r) - min(r) <= FLAT_EPS * (log_scale[k]
    + max |r|) over its returns there. One span, or spans of several
    widths, take plain max/min reductions per span. Spans that all have
    one width W share exact sliding extremes (van Herk; Gil & Werman):
    within W-aligned column blocks, prefix and suffix running maxima
    (minima) give a span's maximum (minimum) as the larger (smaller) of
    its start's suffix and its last column's prefix. Max and min do not
    round, so the mask is the per-span rule's bit for bit. Rows go a
    block at a time, so the temporaries stay near _FLAT_BLOCK_BYTES.
    """
    n, t = returns.shape
    log_scale = np.broadcast_to(log_scale, (n,))
    flat = np.empty((len(spans), n), dtype=bool)
    widths = {end - start for start, end in spans}
    if len(spans) == 1 or len(widths) != 1:
        for k, (start, end) in enumerate(spans):
            x = returns[:, start:end]
            flat[k] = _spread_is_rounding(x.max(axis=1), x.min(axis=1), log_scale)
        return flat
    (w,) = widths
    starts = np.array([start for start, _ in spans])
    last = starts + (w - 1)  # where a span's prefix ends
    # The reversed suffix of block k holds [k W + W - 1 - j, (k + 1) W) at
    # column k W + j, so [start, block end) sits at last - 2 (start % W).
    first = last - 2 * (starts % w)
    cols = -(-t // w) * w  # columns past t pad the last block; no span reads them
    block = max(1, _FLAT_BLOCK_BYTES // (8 * cols))
    x = np.zeros((block, cols))
    prefix = np.empty_like(x)
    suffix = np.empty_like(x)
    for r in range(0, n, block):
        m = min(block, n - r)
        x[:m, :t] = returns[r : r + m]
        blocks = x[:m].reshape(m, -1, w)
        extremes = []
        for ufunc in (np.maximum, np.minimum):
            ufunc.accumulate(blocks, axis=2, out=prefix[:m].reshape(m, -1, w))
            ufunc.accumulate(blocks[:, :, ::-1], axis=2, out=suffix[:m].reshape(m, -1, w))
            extremes.append(ufunc(suffix[:m, first], prefix[:m, last]))
        flat[:, r : r + m] = _spread_is_rounding(*extremes, log_scale[r : r + m, None]).T
    return flat


def _window(returns) -> np.ndarray:
    """The return rows as a float array; InsufficientDataError unless at least 2 rows by 3 columns."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows")
    if returns.shape[1] < 3:
        raise InsufficientDataError("window length %d < 3" % returns.shape[1])
    return returns


def _correlate(returns: np.ndarray, out=None) -> np.ndarray:
    """`pearson_matrix` of `_window` rows with no flat row."""
    x = np.array(returns)  # a copy only this frame holds, so `del x` frees it
    n, w = x.shape
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


def pearson_matrix(tickers: list[str], returns: np.ndarray, log_scale=0.0, out=None) -> np.ndarray:
    """Sample Pearson correlation of every pair of return rows, into `out` if given.

    Row k of `returns` belongs to tickers[k], and log_scale[k] bounds the
    |ln p| of its prices (`ReturnPanel.log_scale`). The result is
    symmetric with an exact unit diagonal. Raises DegenerateSeriesError
    naming every flat row (`flat_rows` of the one span of all columns),
    and InsufficientDataError for windows shorter than 3 observations;
    neither writes to `out`, a C-contiguous N x N float array.
    """
    x = _window(returns)
    flat = np.flatnonzero(flat_rows(x, log_scale, [(0, x.shape[1])])[0])
    if flat.size:
        raise DegenerateSeriesError([tickers[i] for i in flat])
    return _correlate(x, out)


def to_distance(rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map correlations to distances via d = sqrt(2 (1 - rho)), into `out` if given."""
    out = np.subtract(1.0, rho, out=out)
    out *= 2.0
    return np.sqrt(out, out=out)

"""Tree observables: degree statistics, power-law fit, NTL, MOL, phases.

The degree distribution of a market tree is fitted with a straight line
in log10-log10 space. Points are weighted by their vertex counts, which
keeps the line anchored to the body of the distribution where almost all
vertices live, instead of letting a handful of single-vertex points at
large k tilt it. The fit is two-pass: fit, drop points sitting at least
`PhaseRule.tau` decades above the line, refit, and report residuals of
every degree against the final line. A lone maximal-degree vertex is
judged against the line fitted without it, since a big enough outlier
can otherwise mask itself by dragging the first-pass line upward.

Phase vocabulary for a window:
  PowerLaw            - the body explains everything, no dominant vertex
  SuperhubDecorated   - one vertex far above the line and far ahead of
                        the runner-up degree
  MultiHubDecorated   - several degrees above the line, none dominant
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvariantError, MissingVertexError
from .mst import _check_join_order, _ticker_ranks

PHASE_POWER_LAW = "PowerLaw"
PHASE_SUPERHUB = "SuperhubDecorated"
PHASE_MULTI_HUB = "MultiHubDecorated"


@dataclass(frozen=True)
class PhaseRule:
    """The thresholds `classify_phase` applies; `tau` is also the fit's drop threshold.

    Each must be finite: every comparison with NaN is false, so a NaN
    threshold would silently change the labels.
    """

    tau: float = 0.8      # decades above the line for a superhub
    gap: float = 1.6      # k_max / k_second dominance ratio
    tau_hub: float = 0.4  # decades above the line for a mere hub

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigurationError("%s must be finite, got %r" % (name, value))


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    slope_stderr: float
    k_range: tuple[int, int]
    residuals: dict[int, float]
    excluded_degrees: tuple[int, ...] = ()


@dataclass
class PhaseLabel:
    """One tree's phase and every number that decided it; fit is None when underdetermined."""

    phase: str
    fit: PowerLawFit | None
    n_outlier_hubs: int
    k_max: int
    k_second: int
    log_residual: float
    degree_gap_ratio: float


@dataclass
class TreeSummary:
    """What one tree reports; distribution[k] vertices have degree k, center has the most."""

    distribution: np.ndarray
    phase: PhaseLabel
    center: str
    ntl: float
    mol_dynamic: float


def _weighted_line(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept and weighted spread sum w (x - mean x)^2 of the weighted line."""
    total = w.sum()
    xb = (w @ x) / total
    yb = (w @ y) / total
    dx = x - xb
    sxx = w @ (dx * dx)
    slope = (w @ (dx * (y - yb))) / sxx
    return float(slope), float(yb - slope * xb), float(sxx)


def _check_counts(counts: np.ndarray) -> None:
    """Raise InvariantError unless `counts` is one row of finite, non-negative counts, one of them positive."""
    if counts.ndim != 1:
        raise InvariantError("degree counts of shape %r are not one row" % (counts.shape,))
    if not np.isfinite(counts).all() or (counts < 0).any():
        raise InvariantError("degree counts %r are not all finite and non-negative" % (counts.tolist(),))
    if not counts.any():
        raise InvariantError("degree counts hold no vertex")


def fit_power_law(counts: np.ndarray, rule: PhaseRule = PhaseRule()) -> PowerLawFit | None:
    """Count-weighted least squares of log10 f(k) on log10 k, dropping points `rule.tau` above it.

    f(k) = counts[k] / counts.sum(), where counts[k] vertices, or a
    fractional weight, have degree k; a zero count is no point. None with
    fewer than 3 distinct degrees. The final line always rests on at least
    3 points; if dropping outliers would leave fewer, the first-pass line stands.
    A bad row raises InvariantError (`_check_counts`).
    """
    _check_counts(counts)
    ks = np.flatnonzero(counts)
    if len(ks) < 3:
        return None
    x = np.log10(ks.astype(float))
    w = counts[ks].astype(float)
    y = np.log10(w / counts.sum())

    slope1, icpt1, sxx1 = _weighted_line(x, y, w)
    resid1 = y - (icpt1 + slope1 * x)
    top_resid = resid1[-1]
    if w[-1] == 1 and len(ks) >= 4:
        # Lone top point: measure it against the line it had no part in.
        s_loo, i_loo, _ = _weighted_line(x[:-1], y[:-1], w[:-1])
        top_resid = y[-1] - (i_loo + s_loo * x[-1])
    drop = resid1 >= rule.tau
    drop[-1] = top_resid >= rule.tau

    if drop.any() and np.count_nonzero(~drop) >= 3:
        kept = ~drop
        slope, icpt, sxx = _weighted_line(x[kept], y[kept], w[kept])
    else:
        kept = np.ones(len(ks), dtype=bool)
        slope, icpt, sxx = slope1, icpt1, sxx1

    # At least 3 distinct degrees stay, so nk - 2 > 0 and sxx > 0.
    resid = y - (icpt + slope * x)
    rk = resid[kept]
    sigma2 = (w[kept] @ (rk * rk)) / (int(kept.sum()) - 2)
    stderr = math.sqrt(sigma2 / sxx)

    kept_ks = ks[kept].tolist()
    return PowerLawFit(
        slope=slope,
        intercept=icpt,
        slope_stderr=stderr,
        k_range=(kept_ks[0], kept_ks[-1]),
        residuals=dict(zip(ks.tolist(), resid.tolist())),
        excluded_degrees=tuple(ks[~kept].tolist()),
    )


def classify_phase(counts: np.ndarray, rule: PhaseRule = PhaseRule()) -> PhaseLabel:
    """Label the tree topology for one window, from `fit_power_law(counts, rule)`.

    A superhub must both sit `rule.tau` decades above the fitted line
    and lead the runner-up degree by `rule.gap`; a hub sits
    `rule.tau_hub` decades above it. When no fit exists (fewer than 3
    distinct degrees, e.g. a pure star) the residual test is replaced by
    requiring k_max to be large in absolute terms: at least 4 and at
    least a quarter of N-1, and no degree counts as an outlier hub.
    A bad row raises InvariantError (`_check_counts`, run by the fit).
    """
    fit = fit_power_law(counts, rule)
    ks = np.flatnonzero(counts).tolist()
    k_max = ks[-1]
    if counts[k_max] >= 2 or len(ks) == 1:
        k_second = k_max
    else:
        k_second = ks[-2]
    ratio = k_max / k_second
    if fit is not None:
        log_residual = fit.residuals[k_max]
        superhub = log_residual >= rule.tau and ratio >= rule.gap
        n_hubs = sum(1 for r in fit.residuals.values() if r >= rule.tau_hub)
    else:
        log_residual = float("nan")
        superhub = ratio >= rule.gap and k_max >= max(4, 0.25 * (counts.sum() - 1))
        n_hubs = 0
    if superhub:
        phase = PHASE_SUPERHUB
    elif n_hubs >= 2:
        phase = PHASE_MULTI_HUB
    else:
        phase = PHASE_POWER_LAW
    return PhaseLabel(phase, fit, n_hubs, k_max, k_second, log_residual, ratio)


def summarize_batch(
    tickers: list[str], src: np.ndarray, dst: np.ndarray, w: np.ndarray,
    static: int, rule: PhaseRule = PhaseRule(),
) -> list[tuple[TreeSummary, float]]:
    """The summary of each of B trees on `tickers`, with its MOL from vertex `static`.

    Tree b has edges src[b, e] - dst[b, e] of weight w[b, e], each of
    shape (B, N-1), and src[b, e] is the parent of dst[b, e], as in
    `prim_batch`'s join order, with weights in [0, inf); other columns
    raise InvariantError (`mst._check_join_order`), and a `static` outside
    0..N-1 raises MissingVertexError. Degrees, the (B, N) degree histogram
    whose row b is tree b's `distribution`, hubs and occupation layers take
    numpy passes over all B trees; the fit, phase and NTL go tree by tree.
    """
    nb, n = src.shape[0], len(tickers)
    _check_join_order(n, src, dst, w)
    if not 0 <= static < n:
        raise MissingVertexError("static vertex %d outside 0..%d" % (static, n - 1))
    offset = np.arange(0, nb * n, n)[:, None]
    deg = np.bincount((np.concatenate((src, dst), axis=1) + offset).ravel(), minlength=nb * n)
    deg = deg.reshape(nb, n)
    hist = np.bincount((deg + offset).ravel(), minlength=nb * n).reshape(nb, n)
    hub = np.argmax(deg * n - _ticker_ranks(tickers), axis=1)  # the smallest ticker on ties
    # Each pass moves every vertex up to its next ancestor and counts it
    # into that ancestor's subtree; there is one pass per tree level.
    up = np.arange(nb * n)  # parent, the root its own
    up[dst + offset] = src + offset
    size = np.ones(nb * n, dtype=np.int64)
    above = (src + offset).ravel()
    while len(above):
        size += np.bincount(above, minlength=nb * n)
        nxt = up[above]
        above = nxt[nxt != above]
    # The root's hop sum is the total size of all other subtrees, and each
    # step down to a vertex v adds n - 2 * size[v]: a center's sum adds
    # the gains of the vertices on its path up to the root.
    gain = n - 2 * size
    gain[size == n] = 0  # the roots
    at = np.stack((hub, np.full(nb, static)), axis=1) + offset
    path, nxt = np.zeros_like(at), up[at]
    while (nxt != at).any():
        path += gain[at]
        at, nxt = nxt, up[nxt]
    sums = (path + size.reshape(nb, n).sum(axis=1, keepdims=True) - n).tolist()
    rows = []
    for b in range(nb):
        ntl = math.fsum(w[b].tolist()) / (n - 1)
        summary = TreeSummary(hist[b], classify_phase(hist[b], rule), tickers[hub[b]], ntl, sums[b][0] / n)
        rows.append((summary, sums[b][1] / n))
    return rows

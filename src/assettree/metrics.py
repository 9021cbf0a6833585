"""Tree observables: degree statistics, power-law fit, NTL, MOL, phases.

The degree distribution of a market tree is fitted with a straight line
in log10-log10 space. Points are weighted by their vertex counts, which
keeps the line anchored to the body of the distribution where almost all
vertices live, instead of letting a handful of single-vertex points at
large k tilt it. The fit is two-pass: fit, drop points sitting at least
`drop_threshold` decades above the line, refit, and report residuals of
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

from .errors import InvariantError, MissingVertexError, UnderdeterminedFitError
from .mst import Tree

DEFAULT_RESIDUAL_THRESHOLD = 0.8  # decades above the line for a superhub
DEFAULT_GAP_RATIO = 1.6           # k_max / k_second dominance ratio
DEFAULT_HUB_THRESHOLD = 0.4       # decades above the line for a mere hub

PHASE_POWER_LAW = "PowerLaw"
PHASE_SUPERHUB = "SuperhubDecorated"
PHASE_MULTI_HUB = "MultiHubDecorated"


@dataclass
class DegreeDistribution:
    """Histogram of vertex degrees, normalized by the vertex count.

    hub_ticker names a vertex of maximal degree (ties broken by the
    lexicographically smallest ticker) so downstream reports can name
    the hub without holding on to the tree itself.
    """

    n_vertices: int
    counts: dict[int, float]
    f: dict[int, float]
    hub_ticker: str | None = None


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    slope_stderr: float
    k_range: tuple[int, int]
    residuals: dict[int, float]
    excluded_degrees: tuple[int, ...] = ()


@dataclass
class SuperhubReport:
    is_superhub: bool
    hub_ticker: str | None
    k_max: int
    k_second: int
    log_residual: float
    degree_gap_ratio: float


@dataclass
class PhaseLabel:
    phase: str
    n_outlier_hubs: int


@dataclass
class TreeSummary:
    """What one tree reports; center is its maximal-degree vertex."""

    distribution: DegreeDistribution
    fit: PowerLawFit | None
    superhub: SuperhubReport
    phase: PhaseLabel
    center: str
    ntl: float
    mol_dynamic: float


def _top_vertex(tickers: list[str], deg: np.ndarray) -> str:
    """Ticker of a maximal-degree vertex, lexicographically smallest on ties."""
    top = int(deg.max())
    return min(tickers[v] for v in np.flatnonzero(deg == top))


def degree_distribution(tree: Tree) -> DegreeDistribution:
    deg = tree.degrees()
    n = tree.n
    if int(deg.sum()) != 2 * (n - 1):
        raise InvariantError(
            "handshake identity violated: %d edges on %d vertices" % (len(tree.edges), n)
        )
    counts: dict[int, float] = {}
    for k in deg:
        counts[int(k)] = counts.get(int(k), 0) + 1
    counts = dict(sorted(counts.items()))
    f = {k: c / n for k, c in counts.items()}
    return DegreeDistribution(n, counts, f, hub_ticker=_top_vertex(tree.tickers, deg))


def _weighted_line(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    total = w.sum()
    xb = (w @ x) / total
    yb = (w @ y) / total
    dx = x - xb
    sxx = w @ (dx * dx)
    slope = (w @ (dx * (y - yb))) / sxx
    return float(slope), float(yb - slope * xb)


def fit_power_law(
    dist: DegreeDistribution,
    drop_threshold: float = DEFAULT_RESIDUAL_THRESHOLD,
) -> PowerLawFit:
    """Count-weighted least squares of log10 f(k) on log10 k.

    Raises UnderdeterminedFitError with fewer than 3 distinct degrees.
    The final line always rests on at least 3 points; if dropping
    outliers would leave fewer, the first-pass line stands.
    """
    ks = sorted(dist.counts)
    if len(ks) < 3:
        raise UnderdeterminedFitError(
            "%d distinct degrees, need at least 3" % len(ks)
        )
    x = np.log10(np.array(ks, dtype=float))
    w = np.array([dist.counts[k] for k in ks], dtype=float)
    y = np.log10(w / dist.n_vertices)

    slope1, icpt1 = _weighted_line(x, y, w)
    resid1 = y - (icpt1 + slope1 * x)
    top_resid = resid1[-1]
    if w[-1] == 1 and len(ks) >= 4:
        # Lone top point: measure it against the line it had no part in.
        s_loo, i_loo = _weighted_line(x[:-1], y[:-1], w[:-1])
        top_resid = y[-1] - (i_loo + s_loo * x[-1])
    drop = resid1 >= drop_threshold
    drop[-1] = top_resid >= drop_threshold

    if drop.any() and np.count_nonzero(~drop) >= 3:
        kept = ~drop
        slope, icpt = _weighted_line(x[kept], y[kept], w[kept])
    else:
        kept = np.ones(len(ks), dtype=bool)
        slope, icpt = slope1, icpt1

    resid = y - (icpt + slope * x)
    rk = resid[kept]
    wk = w[kept]
    nk = int(kept.sum())
    dxk = x[kept] - (wk @ x[kept]) / wk.sum()
    sxx = wk @ (dxk * dxk)
    sigma2 = (wk @ (rk * rk)) / (nk - 2) if nk > 2 else 0.0
    stderr = math.sqrt(sigma2 / sxx) if sxx > 0 else 0.0

    kept_ks = [k for k, keep in zip(ks, kept) if keep]
    return PowerLawFit(
        slope=slope,
        intercept=icpt,
        slope_stderr=stderr,
        k_range=(min(kept_ks), max(kept_ks)),
        residuals={k: float(r) for k, r in zip(ks, resid)},
        excluded_degrees=tuple(k for k, keep in zip(ks, kept) if not keep),
    )


def normalized_tree_length(tree: Tree) -> float:
    """Mean edge weight: total tree length over N-1 edges."""
    return math.fsum(w for _, _, w in tree.edges) / (tree.n - 1)


def mean_occupation_layer(tree: Tree, central: str) -> float:
    """Mean hop count from every vertex to `central` (itself at level 0)."""
    try:
        root = tree.tickers.index(central)
    except ValueError:
        raise MissingVertexError("no vertex %r in tree" % central) from None
    adj = tree.adjacency()
    level = [-1] * tree.n
    level[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return sum(level) / tree.n


def max_degree_vertex(tree: Tree) -> str:
    """Ticker of a maximal-degree vertex, lexicographically smallest on ties."""
    return _top_vertex(tree.tickers, tree.degrees())


def detect_superhub(
    dist: DegreeDistribution,
    fit: PowerLawFit | None,
    residual_threshold: float = DEFAULT_RESIDUAL_THRESHOLD,
    gap_ratio: float = DEFAULT_GAP_RATIO,
) -> SuperhubReport:
    """Decide whether the maximal degree is a lone extreme outlier.

    A superhub must both sit `residual_threshold` decades above the
    fitted line and lead the runner-up degree by `gap_ratio`. When no
    fit exists (fewer than 3 distinct degrees, e.g. a pure star) the
    residual test is replaced by requiring k_max to be large in
    absolute terms: at least 4 and at least a quarter of N-1.
    """
    ks = sorted(dist.counts)
    k_max = ks[-1]
    if dist.counts[k_max] >= 2 or len(ks) == 1:
        k_second = k_max
    else:
        k_second = ks[-2]
    ratio = k_max / k_second
    if fit is not None:
        log_residual = fit.residuals[k_max]
        is_superhub = log_residual >= residual_threshold and ratio >= gap_ratio
    else:
        log_residual = float("nan")
        is_superhub = ratio >= gap_ratio and k_max >= max(4, 0.25 * (dist.n_vertices - 1))
    return SuperhubReport(
        is_superhub=is_superhub,
        hub_ticker=dist.hub_ticker,
        k_max=k_max,
        k_second=k_second,
        log_residual=log_residual,
        degree_gap_ratio=ratio,
    )


def classify_phase(
    dist: DegreeDistribution,
    fit: PowerLawFit | None,
    report: SuperhubReport,
    hub_threshold: float = DEFAULT_HUB_THRESHOLD,
) -> PhaseLabel:
    """Label the tree topology for one window."""
    if fit is None:
        n_hubs = 0
    else:
        n_hubs = sum(1 for r in fit.residuals.values() if r >= hub_threshold)
    if report.is_superhub:
        return PhaseLabel(PHASE_SUPERHUB, n_hubs)
    if n_hubs >= 2:
        return PhaseLabel(PHASE_MULTI_HUB, n_hubs)
    return PhaseLabel(PHASE_POWER_LAW, n_hubs)


def summarize(
    tree: Tree,
    residual_threshold: float = DEFAULT_RESIDUAL_THRESHOLD,
    gap_ratio: float = DEFAULT_GAP_RATIO,
    hub_threshold: float = DEFAULT_HUB_THRESHOLD,
) -> TreeSummary:
    """Degrees, fit (None if underdetermined), superhub, phase, NTL, MOL."""
    dist = degree_distribution(tree)
    try:
        fit = fit_power_law(dist, drop_threshold=residual_threshold)
    except UnderdeterminedFitError:
        fit = None
    report = detect_superhub(dist, fit, residual_threshold, gap_ratio)
    label = classify_phase(dist, fit, report, hub_threshold)
    return TreeSummary(
        distribution=dist,
        fit=fit,
        superhub=report,
        phase=label,
        center=dist.hub_ticker,
        ntl=normalized_tree_length(tree),
        mol_dynamic=mean_occupation_layer(tree, dist.hub_ticker),
    )

"""Sliding-window pipeline: per-window trees, metrics, and transitions.

`window_tree` turns one window of the return panel into a tree
(correlation, distance, Prim). `window_trees` yields one per window; it
builds the trees of a chunk of windows with one batched Prim call.
`evolve` summarizes each tree into one series row (metrics, phase
label). Two occupation-layer series come out: one measured from a fixed
static center, one from each window's own maximal-degree vertex. The
transition report then locates the global minima of tree length and
dynamic occupation layer, lists every phase change, and extracts
maximal runs of the superhub phase.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date as Date
from itertools import groupby

import numpy as np

from .correlation import pearson_matrix, to_distance
from .errors import (
    ConfigurationError,
    DegenerateSeriesError,
    InsufficientDataError,
    MissingVertexError,
)
from .ingestion import ReturnPanel
from .metrics import (
    DEFAULT_GAP_RATIO,
    DEFAULT_HUB_THRESHOLD,
    DEFAULT_RESIDUAL_THRESHOLD,
    PHASE_SUPERHUB,
    mean_occupation_layer,
    summarize,
)
from .mst import Tree, _ticker_ranks, prim_batch, prim_mst

MIN_WINDOW_WIDTH = 30


@dataclass(frozen=True)
class WindowSpec:
    width: int
    step: int

    def __post_init__(self):
        if self.width < MIN_WINDOW_WIDTH:
            raise ConfigurationError(
                "window width %d below minimum %d" % (self.width, MIN_WINDOW_WIDTH)
            )
        if self.step < 1:
            raise ConfigurationError("step must be at least 1")


@dataclass
class MetricSeries:
    window_end_dates: list[Date]
    ntl: list[float]
    mol_static: list[float]
    mol_dynamic: list[float]
    k_max: list[int]
    phase: list[str]
    dynamic_center: list[str]
    dropped: list[tuple[str, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.window_end_dates)


@dataclass
class TransitionReport:
    ntl_argmin: tuple[int, Date]
    mol_argmin: tuple[int, Date]
    phase_changes: list[tuple[int, str, str]]
    superhub_intervals: list[tuple[int, int, str]]


def windows(panel: ReturnPanel, spec: WindowSpec) -> list[tuple[int, int]]:
    """Left-aligned [start, end) column pairs stepping by spec.step."""
    t = panel.returns.shape[1]
    if spec.width > t:
        raise ConfigurationError(
            "window width %d exceeds panel length %d" % (spec.width, t)
        )
    return [(s, s + spec.width) for s in range(0, t - spec.width + 1, spec.step)]


def _window_distances(
    panel: ReturnPanel, start: int, end: int
) -> tuple[np.ndarray, list[str], tuple[str, ...]]:
    """Distances of columns [start, end), the tickers kept, and those left out.

    A company whose returns have zero variance in the window is left out
    and named in `dropped`; fewer than 2 companies left is an error.
    """
    returns = panel.returns[:, start:end]
    tickers = panel.tickers
    dropped: tuple[str, ...] = ()
    try:
        rho = pearson_matrix(tickers, returns)
    except DegenerateSeriesError as err:
        keep = [k for k, t in enumerate(tickers) if t not in err.tickers]
        if len(keep) < 2:
            raise InsufficientDataError(
                "window [%d, %d) has fewer than 2 usable companies" % (start, end)
            ) from err
        dropped = err.tickers
        tickers = [tickers[k] for k in keep]
        rho = pearson_matrix(tickers, returns[keep])
    return to_distance(rho), tickers, dropped


def window_tree(
    panel: ReturnPanel, start: int, end: int
) -> tuple[Tree, tuple[str, ...]]:
    """The tree of columns [start, end) and the companies it leaves out.

    Slice, Pearson, distance, Prim. A company whose returns have zero
    variance in the window is left out of its tree and named in `dropped`.
    """
    d, tickers, dropped = _window_distances(panel, start, end)
    return prim_mst(tickers, d), dropped


def window_trees(
    panel: ReturnPanel, spec: WindowSpec
) -> Iterator[tuple[int, int, Tree, tuple[str, ...]]]:
    """Yield (start, end, tree, dropped) per window, in window order.

    This is the only place the windows of a panel become trees. They are
    taken in chunks of B = max(1, 2T // N) for N companies and T return
    columns, so the chunk's (B, N, N) distance stack holds no more values
    than twice the returns. One `prim_batch` call builds the trees of a
    chunk's full windows. A window that leaves a company out has fewer
    vertices and goes through `prim_mst` on its own. A window that fails
    raises only after every window before it has been yielded.
    """
    spans = windows(panel, spec)
    n, t = panel.returns.shape
    size = max(1, 2 * t // n)
    rank = _ticker_ranks(panel.tickers)
    stack = np.empty((min(size, len(spans)), n, n))
    for first in range(0, len(spans), size):
        held = []  # (start, end, tree, dropped), tree None while in the stack
        filled = 0
        failure = None
        for start, end in spans[first : first + size]:
            try:
                d, tickers, dropped = _window_distances(panel, start, end)
            except InsufficientDataError as err:
                failure = err
                break
            if dropped:
                held.append((start, end, prim_mst(tickers, d), dropped))
            else:
                stack[filled] = d
                filled += 1
                held.append((start, end, None, dropped))
        batched = zip(*prim_batch(stack[:filled], rank)) if filled else iter(())
        for start, end, tree, dropped in held:
            if tree is None:
                tree = Tree.from_edges(panel.tickers, *next(batched))
            yield start, end, tree, dropped
        if failure is not None:
            raise failure


def evolve(
    panel: ReturnPanel,
    spec: WindowSpec,
    static_center: str,
    residual_threshold: float = DEFAULT_RESIDUAL_THRESHOLD,
    gap_ratio: float = DEFAULT_GAP_RATIO,
    hub_threshold: float = DEFAULT_HUB_THRESHOLD,
) -> MetricSeries:
    """Summarize every window tree of the panel into one series row.

    A window that drops the static center cannot honor the static
    series, so it raises MissingVertexError instead of silently moving on.
    """
    if static_center not in panel.tickers:
        raise MissingVertexError("static center %r not in panel" % static_center)
    series = MetricSeries([], [], [], [], [], [], [])
    for start, end, tree, dropped in window_trees(panel, spec):
        if static_center in dropped:
            raise MissingVertexError(
                "static center %r has zero variance in window [%d, %d)"
                % (static_center, start, end)
            )
        summary = summarize(tree, residual_threshold, gap_ratio, hub_threshold)
        series.window_end_dates.append(panel.dates[end - 1])
        series.ntl.append(summary.ntl)
        series.mol_static.append(mean_occupation_layer(tree, static_center))
        series.mol_dynamic.append(summary.mol_dynamic)
        series.k_max.append(summary.phase.k_max)
        series.phase.append(summary.phase.phase)
        series.dynamic_center.append(summary.center)
        series.dropped.append(dropped)
    return series


def detect_transitions(series: MetricSeries) -> TransitionReport:
    """Locate global metric minima, phase changes, and superhub runs.

    Minima take the first index on exact ties. A superhub interval is a
    maximal run of SuperhubDecorated windows, reported with inclusive
    window indices and the run's most frequent dynamic center (first
    seen wins ties).
    """
    if len(series) == 0:
        raise InsufficientDataError("empty metric series")
    i_ntl = int(np.argmin(series.ntl))
    i_mol = int(np.argmin(series.mol_dynamic))
    changes = [
        (i, series.phase[i - 1], series.phase[i])
        for i in range(1, len(series))
        if series.phase[i] != series.phase[i - 1]
    ]
    intervals = []
    for phase, run in groupby(range(len(series)), key=series.phase.__getitem__):
        if phase == PHASE_SUPERHUB:
            run = list(run)
            centers = Counter(series.dynamic_center[i] for i in run)
            intervals.append((run[0], run[-1], centers.most_common(1)[0][0]))
    return TransitionReport(
        ntl_argmin=(i_ntl, series.window_end_dates[i_ntl]),
        mol_argmin=(i_mol, series.window_end_dates[i_mol]),
        phase_changes=changes,
        superhub_intervals=intervals,
    )

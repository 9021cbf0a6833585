"""Sliding-window pipeline: per-window trees, metrics, and transitions.

`window_trees` turns each window of the return panel into a tree
(correlation, distance, Prim); `evolve` summarizes each tree into one
series row (metrics, phase label). Two occupation-layer series come
out: one measured from a fixed static center, one from each window's
own maximal-degree vertex. The transition report then locates the
global minima of tree length and dynamic occupation layer, lists every
phase change, and extracts maximal runs of the superhub phase.
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
from .mst import Tree, prim_mst

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
    window_starts: list[int] = field(default_factory=list)
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


def window_trees(
    panel: ReturnPanel, spec: WindowSpec
) -> Iterator[tuple[int, int, Tree, tuple[str, ...]]]:
    """Yield (start, end, tree, dropped) per window, holding one tree at a time.

    This is the only place a window becomes a tree: slice, Pearson,
    distance, Prim. A company whose returns have zero variance in a
    window is left out of that window's tree and named in `dropped`.
    """
    for start, end in windows(panel, spec):
        returns = panel.returns[:, start:end]
        dates = panel.dates[start:end]
        dropped: tuple[str, ...] = ()
        try:
            corr = pearson_matrix(ReturnPanel(panel.tickers, dates, returns))
        except DegenerateSeriesError as err:
            keep = [k for k, t in enumerate(panel.tickers) if t not in err.tickers]
            if len(keep) < 2:
                raise InsufficientDataError(
                    "window [%d, %d) has fewer than 2 usable companies" % (start, end)
                ) from err
            dropped = err.tickers
            kept = ReturnPanel([panel.tickers[k] for k in keep], dates, returns[keep, :])
            corr = pearson_matrix(kept)
        yield start, end, prim_mst(to_distance(corr)), dropped


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
        series.window_starts.append(start)
        series.window_end_dates.append(panel.dates[end - 1])
        series.ntl.append(summary.ntl)
        series.mol_static.append(mean_occupation_layer(tree, static_center))
        series.mol_dynamic.append(summary.mol_dynamic)
        series.k_max.append(summary.superhub.k_max)
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

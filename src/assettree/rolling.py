"""Sliding-window pipeline: per-window trees, metrics, and transitions.

Each window of the return panel runs the full chain (correlation,
distance, Prim tree, metrics, phase label). Two occupation-layer series
come out: one measured from a fixed static center, one from each
window's own maximal-degree vertex. The transition report then locates
the global minima of tree length and dynamic occupation layer, lists
every phase change, and extracts maximal runs of the superhub phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date as Date

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
from .mst import prim_mst

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


def _window_panel(panel: ReturnPanel, start: int, end: int) -> ReturnPanel:
    return ReturnPanel(
        list(panel.tickers), list(panel.dates[start:end]), panel.returns[:, start:end]
    )


def evolve(
    panel: ReturnPanel,
    spec: WindowSpec,
    static_center: str,
    residual_threshold: float = DEFAULT_RESIDUAL_THRESHOLD,
    gap_ratio: float = DEFAULT_GAP_RATIO,
    hub_threshold: float = DEFAULT_HUB_THRESHOLD,
) -> MetricSeries:
    """Run the full pipeline over every window of the panel.

    A window where some company's returns have zero variance drops that
    company for that window only and records the drop. If the static
    center itself degenerates the window cannot honor the static series
    and a MissingVertexError is raised instead of silently moving on.
    """
    if static_center not in panel.tickers:
        raise MissingVertexError("static center %r not in panel" % static_center)
    series = MetricSeries([], [], [], [], [], [], [])
    for start, end in windows(panel, spec):
        sub = _window_panel(panel, start, end)
        dropped: tuple[str, ...] = ()
        try:
            corr = pearson_matrix(sub)
        except DegenerateSeriesError as err:
            if static_center in err.tickers:
                raise MissingVertexError(
                    "static center %r has zero variance in window [%d, %d)"
                    % (static_center, start, end)
                ) from err
            keep = [i for i, t in enumerate(sub.tickers) if t not in err.tickers]
            if len(keep) < 2:
                raise InsufficientDataError(
                    "window [%d, %d) has fewer than 2 usable companies" % (start, end)
                ) from err
            dropped = err.tickers
            sub = ReturnPanel(
                [sub.tickers[i] for i in keep],
                list(sub.dates),
                sub.returns[keep, :],
            )
            corr = pearson_matrix(sub)
        dist = to_distance(corr)
        tree = prim_mst(dist)
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
    intervals: list[tuple[int, int, str]] = []
    run_start = None
    for i in range(len(series) + 1):
        in_run = i < len(series) and series.phase[i] == PHASE_SUPERHUB
        if in_run and run_start is None:
            run_start = i
        elif not in_run and run_start is not None:
            centers = series.dynamic_center[run_start:i]
            tally: dict[str, int] = {}
            for c in centers:
                tally[c] = tally.get(c, 0) + 1
            hub = max(tally, key=lambda c: (tally[c], -centers.index(c)))
            intervals.append((run_start, i - 1, hub))
            run_start = None
    return TransitionReport(
        ntl_argmin=(i_ntl, series.window_end_dates[i_ntl]),
        mol_argmin=(i_mol, series.window_end_dates[i_mol]),
        phase_changes=changes,
        superhub_intervals=intervals,
    )

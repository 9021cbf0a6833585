"""Sliding-window pipeline: per-window trees, metrics, and transitions.

`window_trees` turns [start, end) column spans of the return panel into
trees (correlation, distance, Prim), a chunk of spans per batched Prim
call. `evolve` summarizes each chunk's trees into series rows (metrics,
phase label) from Prim's edge columns. Two occupation-layer series come
out: one measured from a fixed static center, one from each window's own
maximal-degree vertex. The transition report then locates the global
minima of tree length and dynamic occupation layer, lists every phase
change, and extracts maximal runs of the superhub phase.
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
from .metrics import PHASE_SUPERHUB, PhaseRule, summarize_batch
from .mst import Tree, _ticker_ranks, prim_batch

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


def _window_correlations(
    panel: ReturnPanel, start: int, end: int, out: np.ndarray
) -> tuple[np.ndarray, list[str], tuple[str, ...]]:
    """Correlations of columns [start, end), the tickers kept, and those left out.

    They go into `out` when every company is kept. A company whose
    returns are flat in the window is left out and named in `dropped`;
    fewer than 2 companies left is an error.
    """
    returns = panel.returns[:, start:end]
    tickers = panel.tickers
    try:
        return pearson_matrix(tickers, returns, panel.log_scale, out=out), tickers, ()
    except DegenerateSeriesError as err:
        keep = [k for k, t in enumerate(tickers) if t not in err.tickers]
        if len(keep) < 2:
            raise InsufficientDataError(
                "window [%d, %d) has fewer than 2 usable companies" % (start, end)
            ) from err
        tickers = [tickers[k] for k in keep]
        return pearson_matrix(tickers, returns[keep], panel.log_scale[keep]), tickers, err.tickers


def _chunks(panel: ReturnPanel, spans: list[tuple[int, int]], rank: np.ndarray):
    """Yield (rows, edges) per chunk of spans; see `window_trees`.

    Rows are (start, end, dropped, own). `own` is None for the next row of
    the chunk's `prim_batch` edges on the panel's tickers, whose ranks are
    `rank` (edges None if no span of the chunk has one); a span that
    leaves a company out has its own (tickers, rank, edges) of B = 1.
    """
    n, t = panel.returns.shape
    for start, end in spans:
        if not 0 <= start < end <= t:
            raise ConfigurationError("window [%d, %d) outside return columns [0, %d)" % (start, end, t))
    size = max(1, 2 * t // n)
    stack = np.empty((min(size, len(spans)), n, n))
    for first in range(0, len(spans), size):
        held = []
        filled = 0
        failure = None
        for start, end in spans[first : first + size]:
            try:
                rho, tickers, dropped = _window_correlations(panel, start, end, stack[filled])
            except InsufficientDataError as err:
                failure = err
                break
            d = to_distance(rho, out=rho)
            own = None
            if dropped:
                own_rank = _ticker_ranks(tickers)
                own = tickers, own_rank, prim_batch(d[None], own_rank)
            else:
                filled += 1
            held.append((start, end, dropped, own))
        yield held, prim_batch(stack[:filled], rank) if filled else None
        if failure is not None:
            raise failure


def window_trees(
    panel: ReturnPanel, spans: list[tuple[int, int]]
) -> Iterator[tuple[int, int, Tree, tuple[str, ...]]]:
    """Yield (start, end, tree, dropped) per [start, end) column span, in order.

    This is the only place columns of a panel become trees, rolling
    windows and the full period (0, T) alike. Any span outside 0 <= start
    < end <= T raises ConfigurationError before the first tree. Spans go
    in chunks of B = max(1, 2T // N) for N companies and T return columns,
    so a chunk's (B, N, N) distance stack holds at most twice as many
    values as the returns; each span's correlations and then distances
    are written in place into its slot. One `prim_batch` call builds a
    chunk's trees; a span that leaves a company out gets a `prim_batch`
    call of its own. A span that fails raises only after every span
    before it is yielded.
    """
    for held, edges in _chunks(panel, spans, _ticker_ranks(panel.tickers)):
        batched = zip(*edges) if edges else None
        for start, end, dropped, own in held:
            if own is None:
                tree = Tree.from_edges(panel.tickers, *next(batched))
            else:
                tree = Tree.from_edges(own[0], *(column[0] for column in own[2]))
            yield start, end, tree, dropped


def evolve(
    panel: ReturnPanel,
    spec: WindowSpec,
    static_center: str,
    rule: PhaseRule = PhaseRule(),
) -> MetricSeries:
    """Summarize every window tree of the panel into one series row.

    A chunk's full windows go through one `summarize_batch` call, and a
    window that leaves a company out through one of its own. A window
    that drops the static center cannot honor the static series, so it
    raises MissingVertexError instead of silently moving on.
    """
    if static_center not in panel.tickers:
        raise MissingVertexError("static center %r not in panel" % static_center)
    static = panel.tickers.index(static_center)
    rank = _ticker_ranks(panel.tickers)
    series = MetricSeries([], [], [], [], [], [], [])
    for held, edges in _chunks(panel, windows(panel, spec), rank):
        batched = iter(summarize_batch(panel.tickers, rank, *edges, static, rule) if edges else ())
        for start, end, dropped, own in held:
            if static_center in dropped:
                raise MissingVertexError(
                    "static center %r has zero variance in window [%d, %d)"
                    % (static_center, start, end)
                )
            if own is None:
                summary, mol_static = next(batched)
            else:
                tickers, own_rank, columns = own
                [(summary, mol_static)] = summarize_batch(
                    tickers, own_rank, *columns, tickers.index(static_center), rule
                )
            series.window_end_dates.append(panel.dates[end - 1])
            series.ntl.append(summary.ntl)
            series.mol_static.append(mol_static)
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

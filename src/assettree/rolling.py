"""Sliding-window pipeline: per-window trees, metrics, and transitions.

`window_trees` turns [start, end) column spans of the return panel into
trees (correlation, distance, Prim) chunk by chunk. A chunk has one ticker
set, one batched Prim call and one `summarize_batch` call in `evolve`: it
is up to B consecutive spans that keep every company, or one span that
leaves a company out. `evolve` gives each tree a series row (metrics,
phase label), with two occupation layers: from a fixed static center and
from the window's own maximal-degree vertex. The transition report finds
the minima of tree length and dynamic occupation layer, every phase
change, and the maximal runs of the superhub phase.
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


def _chunks(panel: ReturnPanel, spans: list[tuple[int, int]]):
    """Yield (tickers, rank, rows, (src, dst, w)) per chunk of spans; see `window_trees`.

    Row b of the `prim_batch` columns is the tree of rows[b] = (start, end, dropped).
    """
    n, t = panel.returns.shape
    for start, end in spans:
        if not 0 <= start < end <= t:
            raise ConfigurationError("window [%d, %d) outside return columns [0, %d)" % (start, end, t))
    size = max(1, 2 * t // n)
    rank = _ticker_ranks(panel.tickers)
    stack = np.empty((min(size, len(spans)), n, n))
    rows = []

    def flush():
        nonlocal rows
        if rows:
            yield panel.tickers, rank, rows, prim_batch(stack[: len(rows)], rank)
        rows = []

    for start, end in spans:
        try:
            rho, tickers, dropped = _window_correlations(panel, start, end, stack[len(rows)])
        except InsufficientDataError:
            yield from flush()
            raise
        d = to_distance(rho, out=rho)
        if dropped:
            yield from flush()
            own = _ticker_ranks(tickers)
            yield tickers, own, [(start, end, dropped)], prim_batch(d[None], own)
        else:
            rows.append((start, end, dropped))
            if len(rows) == size:
                yield from flush()
    yield from flush()


def window_trees(
    panel: ReturnPanel, spans: list[tuple[int, int]]
) -> Iterator[tuple[int, int, Tree, tuple[str, ...]]]:
    """Yield (start, end, tree, dropped) per [start, end) column span, in order.

    It serves callers that want the trees themselves, such as the CLI's
    full-period tree (0, T); `evolve` summarizes the same `_chunks` without
    building a `Tree`, and `analyze` builds its tree with `prim_mst`. Any
    span outside 0 <= start < end <= T raises ConfigurationError before the
    first tree. A chunk is up to B = max(1, 2T // N) consecutive spans that
    keep all N companies, so its (B, N, N) distance stack holds at most
    twice as many values as the T return columns; each span's correlations
    and then distances are written in place into its slot, and one
    `prim_batch` call builds the chunk's trees. A span that leaves a company
    out closes the running chunk and is a chunk of its own. A span that
    fails raises only after every span before it is yielded.
    """
    for tickers, _, rows, edges in _chunks(panel, spans):
        for (start, end, dropped), *columns in zip(rows, *edges):
            yield start, end, Tree.from_edges(tickers, *columns), dropped


def evolve(
    panel: ReturnPanel,
    spec: WindowSpec,
    static_center: str,
    rule: PhaseRule = PhaseRule(),
) -> MetricSeries:
    """Summarize every window tree of the panel into one series row.

    Each chunk of `window_trees` goes through one `summarize_batch` call.
    A window that drops the static center cannot honor the static series,
    so it raises MissingVertexError instead of silently moving on.
    """
    if static_center not in panel.tickers:
        raise MissingVertexError("static center %r not in panel" % static_center)
    series = MetricSeries([], [], [], [], [], [], [])
    for tickers, rank, rows, edges in _chunks(panel, windows(panel, spec)):
        if static_center not in tickers:
            raise MissingVertexError(
                "static center %r has zero variance in window [%d, %d)" % (static_center, *rows[0][:2])
            )
        summaries = summarize_batch(tickers, rank, *edges, tickers.index(static_center), rule)
        for (start, end, dropped), (summary, mol_static) in zip(rows, summaries):
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

"""File formats: edge lists, DOT graphs, price and metric CSVs, JSON reports.

Everything is plain UTF-8 text with explicit "\n" newlines, floats at 17
significant digits (round-trip exact), and deterministic ordering, so
repeated runs on identical inputs are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import date as Date

import numpy as np

from .errors import FormatError, InvariantError
from .ingestion import ASCII_WHITESPACE, BAD_TICKER, ascii_decimal, parse_iso_date
from .metrics import PHASE_MULTI_HUB, PHASE_POWER_LAW, PHASE_SUPERHUB
from .mst import Tree, check_tree
from .rolling import MetricSeries, TransitionReport

SERIES_COLUMNS = [
    "end_date",
    "ntl",
    "mol_static",
    "mol_dynamic",
    "k_max",
    "phase",
    "dynamic_center",
]


_FLOAT_FORMAT = "%.17g"


def fmt_float(x: float) -> str:
    return _FLOAT_FORMAT % x


def config_hash(config: dict) -> str:
    """Stable short digest of a flat key-value configuration."""
    blob = "".join(
        "%s=%s\n" % (k, config[k]) for k in sorted(config)
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def write_tree_edges(path, tree: Tree, meta: dict | None = None) -> None:
    """Line-oriented edge list with a commented header block."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# n_vertices: %d\n" % tree.n)
        for key in sorted(meta or {}):
            fh.write("# %s: %s\n" % (key, (meta or {})[key]))
        for i, j, w in zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()):
            fh.write("%s,%s,%s\n" % (tree.tickers[i], tree.tickers[j], fmt_float(w)))


def read_tree_edges(path) -> Tree:
    """Rebuild a Tree from an edge-list file written by write_tree_edges.

    Raises FormatError on a malformed line, weight or ticker (empty, or
    one `parse_price_table` rejects), or when a `# n_vertices:` header
    disagrees with the tickers the edges name, and InvariantError if the
    edges do not form a spanning tree on those tickers. A file without
    the header is accepted. A leading BOM is skipped, and each field is
    stripped of ASCII whitespace, as `parse_price_table` does.
    """
    names: list[str] = []
    weights: list[float] = []
    declared = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip(ASCII_WHITESPACE)
            if line.startswith("# n_vertices:"):
                declared = line.split(":", 1)[1].strip(ASCII_WHITESPACE)
            if not line or line.startswith("#"):
                continue
            parts = [field.strip(ASCII_WHITESPACE) for field in line.split(",")]
            if len(parts) != 3:
                raise FormatError("bad edge line %r" % line)
            try:
                weights.append(float(ascii_decimal(parts[2])))
            except ValueError:
                raise FormatError("bad edge weight in %r" % line) from None
            for ticker in parts[:2]:
                if not ticker or BAD_TICKER.search(ticker):
                    raise FormatError("bad ticker %r in %r" % (ticker, line))
            names += parts[:2]
    if not weights:
        raise FormatError("no edge lines")
    tickers = sorted(set(names))
    if declared is not None and declared != str(len(tickers)):
        raise FormatError(
            "n_vertices header %r, but the edges name %d tickers" % (declared, len(tickers))
        )
    index = {t: k for k, t in enumerate(tickers)}
    codes = [index[t] for t in names]
    tree = Tree.from_edges(tickers, codes[0::2], codes[1::2], weights)
    check_tree(tree)
    return tree


def write_dot(path, tree: Tree) -> None:
    """Undirected DOT graph with weight attributes at full precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("graph assettree {\n")
        for ticker in tree.tickers:
            fh.write('  "%s";\n' % ticker)
        for i, j, w in zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()):
            fh.write(
                '  "%s" -- "%s" [weight=%s];\n'
                % (tree.tickers[i], tree.tickers[j], fmt_float(w))
            )
        fh.write("}\n")


def write_metric_series_csv(path, series: MetricSeries) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SERIES_COLUMNS)
        for k in range(len(series)):
            writer.writerow(
                [
                    series.window_end_dates[k].isoformat(),
                    fmt_float(series.ntl[k]),
                    fmt_float(series.mol_static[k]),
                    fmt_float(series.mol_dynamic[k]),
                    series.k_max[k],
                    series.phase[k],
                    series.dynamic_center[k],
                ]
            )


def read_metric_series_csv(path) -> MetricSeries:
    """Read back a `series.csv`; FormatError names a bad header or row.

    A bad row has a field that does not parse, an unknown phase, a non-finite
    float, a k_max below 1, a center that is empty or that
    `parse_price_table` rejects as a ticker, or a value `evolve` cannot
    write: an NTL outside [0, 2], a MOL below 1/2, or an end date not after
    the previous row's. A leading BOM is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SERIES_COLUMNS:
            raise FormatError("unexpected series header %r" % (header,))
        series = MetricSeries([], [], [], [], [], [], [])
        for row in reader:
            try:
                day, ntl, mol_static, mol_dynamic, k_max, phase, center = row
                day, k_max = parse_iso_date(day), int(ascii_decimal(k_max))
                ntl, mol_static, mol_dynamic = (float(ascii_decimal(x)) for x in (ntl, mol_static, mol_dynamic))
                finite = all(map(math.isfinite, (ntl, mol_static, mol_dynamic)))
                if not finite or phase not in (PHASE_POWER_LAW, PHASE_SUPERHUB, PHASE_MULTI_HUB):
                    raise ValueError(row)
                if k_max < 1 or not center or BAD_TICKER.search(center):
                    raise ValueError(row)
                ordered = not series.window_end_dates or series.window_end_dates[-1] < day
                if not (ordered and 0 <= ntl <= 2 and min(mol_static, mol_dynamic) >= 0.5):
                    raise ValueError(row)
            except ValueError:
                raise FormatError("bad series row at line %d: %r" % (reader.line_num, row)) from None
            series.window_end_dates.append(day)
            series.ntl.append(ntl)
            series.mol_static.append(mol_static)
            series.mol_dynamic.append(mol_dynamic)
            series.k_max.append(k_max)
            series.phase.append(phase)
            series.dynamic_center.append(center)
    return series


def write_transition_report(path, report: TransitionReport, extra: dict | None = None) -> None:
    payload = {
        "ntl_argmin": {
            "index": report.ntl_argmin[0],
            "date": report.ntl_argmin[1].isoformat(),
        },
        "mol_argmin": {
            "index": report.mol_argmin[0],
            "date": report.mol_argmin[1].isoformat(),
        },
        "phase_changes": [
            {"index": i, "from": a, "to": b} for i, a, b in report.phase_changes
        ],
        "superhub_intervals": [
            {"start": s, "end": e, "hub": hub}
            for s, e, hub in report.superhub_intervals
        ],
    }
    payload.update(extra or {})
    write_json(path, payload)


def write_json(path, payload: dict) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_correlation_matrix(path, tickers: list[str], rho: np.ndarray) -> None:
    """Delimited dump: one header row of tickers, then N rows of values.

    `rho` must be exactly symmetric, as `pearson_matrix` makes it, else
    InvariantError: each value right of the diagonal is formatted once and
    kept for the row below the diagonal that repeats it.
    """
    bits = np.ascontiguousarray(rho, dtype=np.float64).view(np.uint64)
    if bits.ndim != 2 or not np.array_equal(bits, bits.T):
        raise InvariantError("correlation matrix is not exactly symmetric")
    n = len(rho)
    left: list[list[str]] = [[] for _ in range(n)]  # row i's cells before its diagonal
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(tickers) + "\n")
        for i in range(n):
            tail = ",".join([_FLOAT_FORMAT] * (n - i)) % tuple(rho[i, i:].tolist())
            row, left[i] = left[i], []
            row.append(tail)
            fh.write(",".join(row) + "\n")
            for cells, cell in zip(left[i + 1 :], tail.split(",")[1:]):
                cells.append(cell)


def write_price_csv(path, tickers: list[str], dates: list[Date], prices: np.ndarray) -> None:
    """Ingestion-compatible price table, written one date at a time, tickers in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,ticker,close\n")
        for t, day in enumerate(dates):
            stamp = day.isoformat()
            for ticker, price in zip(tickers, prices[:, t].tolist()):
                fh.write("%s,%s,%s\n" % (stamp, ticker, fmt_float(price)))

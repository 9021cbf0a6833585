"""File formats: edge lists, DOT graphs, price and metric CSVs, JSON reports.

Everything is plain UTF-8 text with explicit "\n" newlines, round-trip
exact floats and deterministic ordering, so repeated runs on identical
inputs are byte-identical. The CSV, edge-list and DOT writers print
floats at 17 significant digits (`%.17g`); the JSON reports are written
by `json.dump`, which prints Python's shortest round-trip `repr` (0.1,
not 0.10000000000000001).
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import date as Date

import numpy as np

from .errors import FormatError, InvariantError
from .ingestion import ASCII_WHITESPACE, BAD_TICKER, ascii_decimal
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
    one `parse_price_table` rejects), on a self-loop, or when a
    `# n_vertices:` header disagrees with the tickers the edges name, and
    InvariantError if the edges do not form a spanning tree on them. A
    file without the header is accepted. A leading BOM is skipped, and
    each field is stripped of ASCII whitespace, as `parse_price_table` does.
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
            if parts[0] == parts[1]:
                raise FormatError("self-loop in %r" % line)
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

"""File formats: edge lists, DOT graphs, price and metric CSVs, JSON reports.

Everything is plain UTF-8 text with explicit "\n" newlines, round-trip
exact floats and deterministic ordering, so repeated runs on identical
inputs are byte-identical. The CSV, edge-list and DOT writers print
floats at 17 significant digits (`%.17g`); `write_json` writes a report
that `cli` has built, by `json.dump`, which prints Python's shortest
round-trip `repr` (0.1, not 0.10000000000000001). `corr.csv` is formatted in
numpy a block of rows at a time, each block written as one buffer: a digit
core prints 1e-4 <= |x| < 1, printf the rest, and the bytes are `%.17g`'s.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import date as Date

import numpy as np

from .errors import InvariantError
from .ingestion import _product_error
from .mst import Tree
from .rolling import MetricSeries

SERIES_COLUMNS = [
    "end_date",
    "ntl",
    "mol_static",
    "mol_dynamic",
    "k_max",
    "phase",
    "dynamic_center",
]


def fmt_float(x: float) -> str:
    return "%.17g" % x


def config_hash(config: dict) -> str:
    """Stable short digest of a flat key-value configuration."""
    blob = "".join(
        "%s=%s\n" % (k, config[k]) for k in sorted(config)
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def write_tree_edges(path, tree: Tree, meta: dict) -> None:
    """Line-oriented edge list with a commented header block: n_vertices, then `meta` by key."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# n_vertices: %d\n" % tree.n)
        for key in sorted(meta):
            fh.write("# %s: %s\n" % (key, meta[key]))
        for i, j, w in zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()):
            fh.write("%s,%s,%s\n" % (tree.tickers[i], tree.tickers[j], fmt_float(w)))


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


def write_json(path, payload: dict) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# corr.csv's digit core takes |x| in bands 1..4, 10**e <= |x| < 10**(e + 1)
# for e = band - 5; band 0 holds smaller values and NaN, band 5 the rest.
# Each bound is its power of ten rounded up, so the bands split at the exact powers.
_BANDS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
_SCALE = np.array([1e17, 1e20, 1e19, 1e18, 1e17, 1e17])  # 10**(16 - e) by band, exact doubles
# "[-]0." and -e - 1 zeros, ending at byte 6 of a little-endian word, by band + 6 * sign.
_PREFIX = np.frombuffer(
    b"".join((b"-" * s + b"0." + b"0" * (4 - k)).rjust(7, b"\0") + b"\0" for s in (0, 1) for k in range(6)), "<u8"
)
_LOW_BYTES = np.array([0] * 128 + [(1 << 8 * n) - 1 for n in range(1, 9)], dtype=np.uint64)  # n low bytes at 127 + n
# Each lane of a word splits three times into its quotient, a multiply and a shift exact on the
# lane's range, and its remainder: (divisor, lane bits, multiplier, shift, quotient lanes).
_SWAR = ((10**4, 32, 3518437209, 45, 2**32 - 1), (100, 16, 10486, 20, 0x7F0000007F), (10, 8, 103, 10, 0xF000F000F000F))
_ROW_BLOCK_CELLS = 1 << 13


def _bands(a: np.ndarray) -> np.ndarray:
    """The band of each |x| in a, as uint8."""
    band = np.greater_equal(a, _BANDS[0]).view(np.uint8)
    for bound in _BANDS[1:]:
        band += a >= bound
    return band


def _cells(x: np.ndarray) -> np.ndarray:
    """Each value of x as `"%.17g" % value`, one row of uint8 each: a zero byte, then the text among zero bytes.

    printf formats the values of bands 0 and 5: the unit diagonal, +-1,
    |x| < 1e-4, +-0 and non-finite values, masked before any arithmetic.
    A value of bands 1..4 reads "[-]0.", -e - 1 zeros and its 17-digit D
    without trailing zeros. The scale 10**(16 - e) is an exact double, so
    Dekker's product gives |x| * scale exactly as hi + err; hi >= 2**53 is
    an even integer, so D = hi + rint(err), ties to even as printf rounds.
    """
    a = np.abs(x)
    band = _bands(a)
    printf = band - 1 > 3
    np.copyto(a, 0.5, where=printf)
    scale = _SCALE.take(band)
    hi = a * scale
    err = _product_error(a, scale, hi, a, np.empty((4, len(a))))
    d = hi.astype(np.int64).view(np.uint64)
    d += np.rint(err, out=err).astype(np.int64).view(np.uint64)
    del a, scale, hi, err
    top = d // 10**16
    d -= top * 10**16
    words = np.stack([d // 10**8, d])  # digits 2-9 and 10-17, each in a word of one digit (0..9) per byte
    words[1] -= words[0] * 10**8
    q = np.empty_like(words)
    for divisor, bits, multiplier, shift, lanes in _SWAR:
        np.multiply(words, multiplier, out=q)
        q >>= shift
        q &= lanes
        words <<= bits
        q *= (divisor << bits) - 1  # the lane becomes quotient + (remainder << bits), first digits lowest
        words -= q
    # The digits end at a word's highest nonzero byte. Bytes hold 0..9, so the word converts to a
    # double without rounding up to a power of two, whose (bits + 2**52) >> 55 is 127 + n for n bytes.
    n = (words.astype(np.float64).view(np.int64) + (1 << 52)) >> 55
    np.maximum(n[0], n[1] | 7, out=n[0])  # all 8 when the last word has a digit
    words += 0x3030303030303030
    words &= _LOW_BYTES.take(n)
    where = np.flatnonzero(printf)
    texts = [b"%.17g" % v for v in x[where].tolist()]
    width = max([3] + [len(t) // 8 + 1 for t in texts])  # words of a cell: a zero byte, then its text
    slots = np.empty((len(x), width), "<u8")
    slots[:, :-3] = 0
    np.bitwise_or(_PREFIX.take(np.signbit(x).view(np.uint8) * 6 + band), (top + 48) << 56, out=slots[:, -3])
    slots[:, -2:] = words.T
    cells = slots.view(np.uint8)
    text = np.frombuffer(b"".join(t.rjust(8 * width - 1, b"\0") for t in texts), np.uint8)
    cells[where, 1:] = text.reshape(len(texts), 8 * width - 1)
    return cells


def write_correlation_matrix(path, tickers: list[str], rho: np.ndarray) -> None:
    """Delimited dump: one header row of tickers, then N rows of values, in row blocks (see `_cells`).

    `rho` must be N x N for the N tickers and exactly symmetric, as
    `pearson_matrix` makes it, else InvariantError before the file opens.
    """
    n = len(tickers)
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    if rho.shape != (n, n):
        raise InvariantError("correlation matrix of shape %r for %d tickers" % (rho.shape, n))
    bits = rho.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        raise InvariantError("correlation matrix is not exactly symmetric")
    rows = max(1, _ROW_BLOCK_CELLS // max(n, 1))
    with open(path, "wb") as fh:
        fh.write(",".join(tickers).encode("utf-8"))
        for i in range(0, n, rows):
            cells = _cells(rho[i : i + rows].ravel())
            cells[:, 0] = ord(",")
            cells[::n, 0] = ord("\n")  # each row starts by ending the line above
            fh.write(cells[cells != 0])
        fh.write(b"\n")


def write_price_csv(path, tickers: list[str], dates: list[Date], prices: np.ndarray) -> None:
    """Ingestion-compatible price table, written one date at a time, tickers in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,ticker,close\n")
        for t, day in enumerate(dates):
            stamp = day.isoformat()
            for ticker, price in zip(tickers, prices[:, t].tolist()):
                fh.write("%s,%s,%s\n" % (stamp, ticker, fmt_float(price)))

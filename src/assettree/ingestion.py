"""Price table parsing, panel alignment, and log returns.

Input is CSV text with a header row and one record per line. The
header names the columns `date` (YYYY-MM-DD), `ticker` and `close`, in
any order; other columns are ignored. Fields and header names are
stripped of ASCII whitespace only. Records may arrive in any order;
they are read in blocks of lines into one ticker x date grid of prices,
NaN where a ticker has no record, and the grid and the rejected rows do
not depend on where the blocks split. A company enters an aligned panel
only if it has a price on every trading day of the requested period,
where the trading-day axis is the set of dates observed in that period.
"""

from __future__ import annotations

import csv
import io
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import DuplicateRecordError, FormatError, InsufficientDataError


COLUMNS = ("date", "ticker", "close")

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# Edge lists, DOT and corr.csv write tickers unquoted, so a ticker may not
# hold a field separator, a quote, an escape or an ASCII control character.
# `exports.read_tree_edges` holds the tickers it reads to the same rule.
BAD_TICKER = re.compile(r'[,"\\\x00-\x1f\x7f]')

# Stripped from each field and header name. ASCII only, like the date and
# price grammar: a non-ASCII space stays in the field and fails it.
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"

# Lines per block under the plain header. A block's strings are alive at
# once, and at 1,024 lines and up they pinned one more 1 MiB pymalloc arena
# for the life of the process; smaller blocks gave no speed.
BLOCK_LINES = 256

_PLAIN_HEADER = ",".join(COLUMNS)

# A block is plain when it is ASCII and holds none of these: no quoting, no
# whitespace to strip, no "_" for float() to take.
_NOT_PLAIN = ('"', "_", " ", "\t", "\r", "\x0b", "\x0c")

# A price made of these alone is parsed in bulk; any other goes through the
# per-row rules. "\n" ends a line; float() ignores it.
_BULK_PRICE_BYTES = b"0123456789.e+-\n"


@dataclass
class PricePanel:
    """Aligned close prices: N tickers by T trading days, no missing cells."""

    tickers: list[str]
    dates: list[Date]
    prices: np.ndarray

    def __post_init__(self):
        n, t = len(self.tickers), len(self.dates)
        if n < 2:
            raise InsufficientDataError("panel needs at least 2 companies")
        if t < 3:
            raise InsufficientDataError("panel needs at least 3 trading days")
        if len(set(self.tickers)) != n:
            raise FormatError("duplicate tickers in panel")
        if self.prices.shape != (n, t):
            raise FormatError(
                "price matrix shape %s does not match %d tickers x %d dates"
                % (self.prices.shape, n, t)
            )
        if not np.all(self.prices > 0):
            raise FormatError("panel contains non-positive prices")


@dataclass
class ReturnPanel:
    """Daily log returns: N tickers by T-1 days (one less than prices)."""

    tickers: list[str]
    dates: list[Date]
    returns: np.ndarray


@dataclass
class RejectedRow:
    """Row-level diagnostic for an input line that failed validation."""

    line_number: int
    reason: str
    raw: str


@dataclass
class ParseResult:
    """Accepted records as a grid: prices[i, j] is tickers[i] on dates[j], NaN if none.

    Tickers are in first-seen order; dates are sorted, each held by an accepted record.
    """

    tickers: list[str]
    dates: list[Date]
    prices: np.ndarray
    rejected: list[RejectedRow] = field(default_factory=list)


@dataclass
class AlignResult:
    panel: PricePanel
    dropped: list[str] = field(default_factory=list)


def parse_iso_date(text: str) -> Date:
    """Exactly YYYY-MM-DD in ASCII digits, a valid calendar date; else ValueError."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError("not YYYY-MM-DD: %r" % text)
    return Date(int(text[:4]), int(text[5:7]), int(text[8:]))


def _date_ordinal(text: str) -> int:
    """Proleptic Gregorian ordinal of a YYYY-MM-DD text; 0 if it is not one."""
    try:
        return parse_iso_date(text).toordinal()
    except ValueError:
        return 0


def parse_price_table(raw_text: str | Iterable[str]) -> ParseResult:
    """Parse CSV price records, a string or an iterable of lines, into a grid.

    The header row is required and must name the columns date, ticker
    and close once each; they are looked up by name, and other columns
    are ignored. Rows with unparseable dates, empty tickers or tickers
    holding `,`, `"`, `\\` or an ASCII control character, unparseable or
    non-positive prices, or a field count other than the header's are
    rejected with a diagnostic naming the line; a duplicate (ticker,
    date) pair is an error, not a rejection, naming the first line that
    repeats one.

    Under the header `date,ticker,close` the lines are read in blocks of
    BLOCK_LINES, and a plain block is parsed column-wise; any other
    header or block goes through csv.reader and the per-row rules. The
    result does not depend on how the lines fall into blocks.
    """
    lines = io.StringIO(raw_text) if isinstance(raw_text, str) else iter(raw_text)
    first = next(lines, None)
    if first is None:
        raise FormatError("missing header row")
    if first in (_PLAIN_HEADER, _PLAIN_HEADER + "\n"):
        reader, width, pick = None, len(COLUMNS), itemgetter(0, 1, 2)
    else:
        reader = csv.reader(chain([first], lines))
        try:
            header = next(reader)
        except csv.Error as err:
            raise FormatError("line 1: %s" % err) from None
        names = [h.strip(ASCII_WHITESPACE) for h in header]
        if any(names.count(c) != 1 for c in COLUMNS):
            raise FormatError("malformed header: expected date, ticker, close once each, got %r" % (header,))
        width, pick = len(header), itemgetter(*(names.index(c) for c in COLUMNS))

    code_of_ticker: dict[str, int] = {}  # accepted tickers, in first-seen order
    ordinal_of_text: dict[str, int] = {}  # each distinct date text parsed once; 0 if unparseable
    ticker_codes, ordinals, line_numbers, values = array("q"), array("q"), array("q"), array("d")
    rejected: list[RejectedRow] = []

    def reject(line_number: int, reason: str, row: list[str]) -> None:
        rejected.append(RejectedRow(line_number, reason, ",".join(row)))

    def take_row(line_number: int, row: list[str]) -> None:
        """The per-row rules: append the record or reject the row."""
        if not row:
            return
        if len(row) != width:
            reject(line_number, "expected %d fields, got %d" % (width, len(row)), row)
            return
        date_text, ticker, price_text = pick(row)
        date_text = date_text.strip(ASCII_WHITESPACE)
        ticker = ticker.strip(ASCII_WHITESPACE)
        price_text = price_text.strip(ASCII_WHITESPACE)
        ordinal = ordinal_of_text.get(date_text)
        if ordinal is None:
            ordinal = ordinal_of_text[date_text] = _date_ordinal(date_text)
        if not ordinal:
            reject(line_number, "unparseable date %r" % date_text, row)
            return
        code = code_of_ticker.get(ticker)
        if code is None and (not ticker or BAD_TICKER.search(ticker)):
            reason = "unparseable ticker %r" % ticker if ticker else "empty ticker"
            reject(line_number, reason, row)
            return
        try:
            # float() alone would also take "1_000" and non-ASCII digits.
            if "_" in price_text or not price_text.isascii():
                raise ValueError
            price = float(price_text)
        except ValueError:
            reject(line_number, "unparseable price %r" % price_text, row)
            return
        if not (price > 0 and math.isfinite(price)):
            reject(line_number, "non-positive price %s" % price_text, row)
            return
        if code is None:
            code = code_of_ticker[ticker] = len(code_of_ticker)
        ticker_codes.append(code)
        ordinals.append(ordinal)
        line_numbers.append(line_number)
        values.append(price)

    def take_rows(line_number: int, rows: Iterable[list[str]]) -> None:
        line = line_number - 1  # the last row read
        try:
            for line, row in enumerate(rows, start=line_number):
                take_row(line, row)
        except csv.Error as err:  # such as a field over csv.field_size_limit()
            raise FormatError("line %d: %s" % (line + 1, err)) from None

    def take_plain_block(line_number: int, block: list[str]) -> None:
        """Parse a plain block column-wise; rows that fail a rule go through take_row."""
        n = len(block)
        commas = np.fromiter(map(str.count, block, repeat(",")), np.int64, n)
        padded = list(block)
        for k in np.flatnonzero(commas != 2).tolist():
            padded[k] = ",,0"  # an empty date sends the row to take_row
        fields = ",".join(padded).split(",")
        dates, tickers, prices = fields[0::3], fields[1::3], fields[2::3]
        for text in set(dates).difference(ordinal_of_text):
            ordinal_of_text[text] = _date_ordinal(text)
        days = np.fromiter(map(ordinal_of_text.__getitem__, dates), np.int64, n)
        others = ",".join(prices).encode().translate(None, _BULK_PRICE_BYTES).split(b",")
        for k in compress(range(n), others):
            prices[k] = "0"  # "n/a", "nan", "1E5": parsed by take_row
        try:
            closes = np.fromiter(map(float, prices), np.float64, n)
        except ValueError:  # such as "1e" or an empty price
            take_rows(line_number, csv.reader(block))
            return
        fast = (days != 0) & (closes > 0) & np.isfinite(closes)
        bad = {t for t in set(tickers).difference(code_of_ticker) if not t or BAD_TICKER.search(t)}
        if bad:
            fast &= ~np.fromiter(map(bad.__contains__, tickers), bool, n)
        # Fast runs and the rows between them are taken in line order, so
        # tickers get codes in first-seen order and a duplicate names its line.
        slow = np.flatnonzero(~fast).tolist()
        start = 0
        for k, row in zip(slow + [n], chain(csv.reader([block[k] for k in slow]), [None])):
            if start < k:
                run = tickers[start:k]
                for ticker in sorted(set(run).difference(code_of_ticker), key=run.index):
                    code_of_ticker[ticker] = len(code_of_ticker)
                codes = np.fromiter(map(code_of_ticker.__getitem__, run), np.int64, k - start)
                ticker_codes.frombytes(codes.tobytes())
                ordinals.frombytes(days[start:k].tobytes())
                line_numbers.frombytes(np.arange(line_number + start, line_number + k).tobytes())
                values.frombytes(closes[start:k].tobytes())
            if row is not None:
                take_row(line_number + k, row)
            start = k + 1

    line_number = 2
    if reader is not None:
        take_rows(line_number, reader)
    else:
        while block := list(islice(lines, BLOCK_LINES)):
            text = "".join(block)
            if '"' in text:  # a quoted field can span lines: csv.reader reads the rest
                take_rows(line_number, csv.reader(chain(block, lines)))
                break
            # csv.reader raises on a field over its size limit; a plain block has none.
            limit = csv.field_size_limit()
            if (
                text.isascii()
                and not any(map(text.__contains__, _NOT_PLAIN))
                and (len(text) <= limit or max(map(len, block)) <= limit)
            ):
                take_plain_block(line_number, block)
            else:
                take_rows(line_number, csv.reader(block))
            line_number += len(block)

    tickers = list(code_of_ticker)
    axis, column = np.unique(np.asarray(ordinals), return_inverse=True)
    dates = [Date.fromordinal(day) for day in axis.tolist()]
    cell = np.asarray(ticker_codes) * len(dates) + column
    _, first_rows = np.unique(cell, return_index=True)
    if len(first_rows) < len(cell):
        again = np.ones(len(cell), dtype=bool)
        again[first_rows] = False
        k = int(np.argmax(again))
        raise DuplicateRecordError(
            "duplicate record for (%s, %s) at line %d"
            % (tickers[ticker_codes[k]], dates[column[k]], line_numbers[k])
        )
    prices = np.full((len(tickers), len(dates)), np.nan)
    prices.reshape(-1)[cell] = values
    return ParseResult(tickers, dates, prices, rejected)


def align_and_filter(parsed: ParseResult, period: tuple[Date, Date]) -> AlignResult:
    """Build an aligned panel of companies complete over the period.

    The trading-day axis is the parsed dates inside the inclusive period.
    Companies missing any axis date are dropped and reported in the result.
    """
    start, end = period
    if end < start:
        raise InsufficientDataError("period end %s before start %s" % (end, start))
    lo, hi = bisect_left(parsed.dates, start), bisect_right(parsed.dates, end)
    if lo == hi:
        raise InsufficientDataError("no observed trading days in period %s..%s" % (start, end))
    block = parsed.prices[:, lo:hi]
    complete = ~np.isnan(block).any(axis=1)
    kept = [t for t, ok in zip(parsed.tickers, complete) if ok]
    if len(kept) < 2:
        raise InsufficientDataError(
            "only %d of %d companies complete over %s..%s"
            % (len(kept), len(parsed.tickers), start, end)
        )
    dropped = [t for t, ok in zip(parsed.tickers, complete) if not ok]
    return AlignResult(PricePanel(kept, parsed.dates[lo:hi], block[complete]), dropped)


def log_returns(panel: PricePanel) -> ReturnPanel:
    """Daily log returns: r[i][t] = ln p[i][t+1] - ln p[i][t]."""
    returns = np.diff(np.log(panel.prices), axis=1)
    return ReturnPanel(list(panel.tickers), list(panel.dates[1:]), returns)

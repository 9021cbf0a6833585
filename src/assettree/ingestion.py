"""Price table parsing, panel alignment, and log returns.

Input is CSV text with a header row and one record per line. The
header names the columns `date` (YYYY-MM-DD), `ticker` and `close`, in
any order; other columns are ignored. Fields and header names are
stripped of ASCII whitespace only. Records may arrive in any order;
they are read line by line into one ticker x date grid of prices, NaN
where a ticker has no record. A company enters an aligned panel only if
it has a price on every trading day of the requested period, where the
trading-day axis is the set of dates observed in that period.
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
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import DuplicateRecordError, FormatError, InsufficientDataError


COLUMNS = ("date", "ticker", "close")

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# Stripped from each field and header name. ASCII only, like the date and
# price grammar: a non-ASCII space stays in the field and fails it.
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


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


def parse_price_table(raw_text: str | Iterable[str]) -> ParseResult:
    """Parse CSV price records, a string or an iterable of lines, into a grid.

    The header row is required and must name the columns date, ticker
    and close once each; they are looked up by name, and other columns
    are ignored. Rows with unparseable dates, unparseable or non-positive
    prices, or a field count other than the header's are rejected with a
    diagnostic naming the line; a duplicate (ticker, date) pair is an
    error, not a rejection, naming the first line that repeats one.
    """
    lines = io.StringIO(raw_text) if isinstance(raw_text, str) else raw_text
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("missing header row")
    names = [h.strip(_ASCII_WHITESPACE) for h in header]
    if any(names.count(c) != 1 for c in COLUMNS):
        raise FormatError("malformed header: expected date, ticker, close once each, got %r" % (header,))
    pick = itemgetter(*(names.index(c) for c in COLUMNS))
    width = len(header)

    code_of_ticker: dict[str, int] = {}  # in first-seen order
    ordinal_of_text: dict[str, int] = {}  # each distinct date text parsed once; 0 if unparseable
    ticker_codes, ordinals, line_numbers, values = array("q"), array("q"), array("q"), array("d")
    rejected: list[RejectedRow] = []

    def reject(line_number: int, reason: str, row: list[str]) -> None:
        rejected.append(RejectedRow(line_number, reason, ",".join(row)))

    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            reject(line_number, "expected %d fields, got %d" % (width, len(row)), row)
            continue
        date_text, ticker, price_text = pick(row)
        date_text = date_text.strip(_ASCII_WHITESPACE)
        ticker = ticker.strip(_ASCII_WHITESPACE)
        price_text = price_text.strip(_ASCII_WHITESPACE)
        ordinal = ordinal_of_text.get(date_text)
        if ordinal is None:
            try:
                ordinal = parse_iso_date(date_text).toordinal()
            except ValueError:
                ordinal = 0
            ordinal_of_text[date_text] = ordinal
        if not ordinal:
            reject(line_number, "unparseable date %r" % date_text, row)
            continue
        if not ticker:
            reject(line_number, "empty ticker", row)
            continue
        try:
            # float() alone would also take "1_000" and non-ASCII digits.
            if "_" in price_text or not price_text.isascii():
                raise ValueError
            price = float(price_text)
        except ValueError:
            reject(line_number, "unparseable price %r" % price_text, row)
            continue
        if not (price > 0 and math.isfinite(price)):
            reject(line_number, "non-positive price %s" % price_text, row)
            continue
        ticker_codes.append(code_of_ticker.setdefault(ticker, len(code_of_ticker)))
        ordinals.append(ordinal)
        line_numbers.append(line_number)
        values.append(price)

    tickers = list(code_of_ticker)
    axis, column = np.unique(np.asarray(ordinals), return_inverse=True)
    dates = [Date.fromordinal(day) for day in axis.tolist()]
    cell = np.asarray(ticker_codes) * len(dates) + column
    _, first = np.unique(cell, return_index=True)
    if len(first) < len(cell):
        repeat = np.ones(len(cell), dtype=bool)
        repeat[first] = False
        k = int(np.argmax(repeat))
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

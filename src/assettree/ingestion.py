"""Price table parsing, panel alignment, and log returns.

Input is delimited text with a header row and one record per line. The
header names the columns `date` (ISO-8601), `ticker` and `close`, in any
order; other columns are ignored. Records may arrive in any order;
series are assembled per ticker and sorted by date. A company enters an
aligned panel only if it has a price on every trading day of the
requested period, where the trading-day axis is the union of dates
observed in that period across all series.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date as Date
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateRecordError,
    FormatError,
    InsufficientDataError,
)


COLUMNS = ("date", "ticker", "close")


@dataclass(frozen=True)
class FormatSpec:
    """Shape of the delimited input: configurable delimiter."""

    delimiter: str = ","


@dataclass
class PriceSeries:
    """Closing prices of one company, strictly increasing in date."""

    ticker: str
    observations: list[tuple[Date, float]]

    def __post_init__(self):
        if not self.ticker:
            raise FormatError("empty ticker")
        for k in range(1, len(self.observations)):
            if self.observations[k][0] <= self.observations[k - 1][0]:
                raise FormatError(
                    "dates not strictly increasing for %s" % self.ticker
                )
        for _, price in self.observations:
            if not (price > 0):
                raise FormatError("non-positive price for %s" % self.ticker)


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
    series: list[PriceSeries]
    rejected: list[RejectedRow] = field(default_factory=list)


@dataclass
class AlignResult:
    panel: PricePanel
    dropped: list[str] = field(default_factory=list)


def parse_price_table(raw_text: str | Iterable[str], fmt: FormatSpec = FormatSpec()) -> ParseResult:
    """Parse delimited price records into per-ticker series.

    The header row is required and must name the columns date, ticker
    and close once each; they are looked up by name, and other columns
    are ignored. Rows with unparseable dates, unparseable or non-positive
    prices, or a field count other than the header's are rejected with a
    diagnostic naming the line; a duplicate (ticker, date) pair is an
    error, not a rejection.
    """
    if isinstance(raw_text, str):
        lines = io.StringIO(raw_text)
    else:
        lines = iter(raw_text)
    reader = csv.reader(lines, delimiter=fmt.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("missing header row")
    names = [h.strip() for h in header]
    if any(names.count(c) != 1 for c in COLUMNS):
        raise FormatError("malformed header: expected date, ticker, close once each, got %r" % (header,))
    columns = [names.index(c) for c in COLUMNS]
    width = len(header)

    observations: dict[str, dict[Date, float]] = {}
    order: list[str] = []
    rejected: list[RejectedRow] = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        raw = fmt.delimiter.join(row)
        if len(row) != width:
            reason = "expected %d fields, got %d" % (width, len(row))
            rejected.append(RejectedRow(line_number, reason, raw))
            continue
        date_text, ticker, price_text = (row[c].strip() for c in columns)
        try:
            day = Date.fromisoformat(date_text)
        except ValueError:
            rejected.append(RejectedRow(line_number, "unparseable date %r" % date_text, raw))
            continue
        if not ticker:
            rejected.append(RejectedRow(line_number, "empty ticker", raw))
            continue
        try:
            price = float(price_text)
        except ValueError:
            rejected.append(RejectedRow(line_number, "unparseable price %r" % price_text, raw))
            continue
        if not (price > 0 and math.isfinite(price)):
            rejected.append(RejectedRow(line_number, "non-positive price %s" % price_text, raw))
            continue
        per_ticker = observations.setdefault(ticker, {})
        if day in per_ticker:
            raise DuplicateRecordError(
                "duplicate record for (%s, %s) at line %d" % (ticker, day, line_number)
            )
        if not per_ticker:
            order.append(ticker)
        per_ticker[day] = price

    series = [
        PriceSeries(ticker, sorted(observations[ticker].items()))
        for ticker in order
    ]
    return ParseResult(series, rejected)


def align_and_filter(series: list[PriceSeries], period: tuple[Date, Date]) -> AlignResult:
    """Build an aligned panel of companies complete over the period.

    The trading-day axis is the union of dates observed inside the
    inclusive period across all series. Companies missing any axis date
    are dropped and reported in the result.
    """
    start, end = period
    if end < start:
        raise InsufficientDataError("period end %s before start %s" % (end, start))
    axis_set: set[Date] = set()
    for s in series:
        for day, _ in s.observations:
            if start <= day <= end:
                axis_set.add(day)
    if not axis_set:
        raise InsufficientDataError("no observed trading days in period %s..%s" % (start, end))
    axis = sorted(axis_set)

    kept: list[PriceSeries] = []
    dropped: list[str] = []
    for s in series:
        in_period = {day: price for day, price in s.observations if start <= day <= end}
        if all(day in in_period for day in axis):
            kept.append(PriceSeries(s.ticker, [(day, in_period[day]) for day in axis]))
        else:
            dropped.append(s.ticker)
    if len(kept) < 2:
        raise InsufficientDataError(
            "only %d of %d companies complete over %s..%s"
            % (len(kept), len(series), start, end)
        )

    prices = np.array([[price for _, price in s.observations] for s in kept], dtype=float)
    panel = PricePanel([s.ticker for s in kept], axis, prices)
    return AlignResult(panel, dropped)


def log_returns(panel: PricePanel) -> ReturnPanel:
    """Daily log returns: r[i][t] = ln p[i][t+1] - ln p[i][t]."""
    returns = np.diff(np.log(panel.prices), axis=1)
    return ReturnPanel(list(panel.tickers), list(panel.dates[1:]), returns)

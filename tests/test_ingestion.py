import math
from datetime import date

import numpy as np
import pytest

from assettree.errors import DuplicateRecordError, FormatError, InsufficientDataError
from assettree.ingestion import (
    PricePanel,
    align_and_filter,
    log_returns,
    parse_price_table,
)

HEADER = "date,ticker,close\n"


def test_parse_groups_rows_into_series():
    text = HEADER + (
        "2005-01-03,KGHM,31.5\n"
        "2005-01-04,KGHM,32.0\n"
        "2005-01-03,PKN,40.1\n"
    )
    result = parse_price_table(text)
    assert result.tickers == ["KGHM", "PKN"]
    assert result.dates == [date(2005, 1, 3), date(2005, 1, 4)]
    assert result.prices[0].tolist() == [31.5, 32.0]
    assert result.prices[1, 0] == 40.1 and math.isnan(result.prices[1, 1])
    assert result.rejected == []


def test_parse_empty_body_gives_empty_list():
    result = parse_price_table(HEADER)
    assert result.tickers == []
    assert result.dates == []
    assert result.prices.shape == (0, 0)
    assert result.rejected == []


def test_parse_rejects_nonpositive_price_with_row_diagnostic():
    text = HEADER + "2005-01-03,KGHM,-1.0\n2005-01-04,KGHM,30.0\n"
    result = parse_price_table(text)
    assert result.tickers == ["KGHM"]
    assert result.dates == [date(2005, 1, 4)]  # a date only a rejected row carried stays out
    assert result.prices.tolist() == [[30.0]]
    assert len(result.rejected) == 1
    assert result.rejected[0].line_number == 2
    assert "non-positive" in result.rejected[0].reason


def test_parse_rejects_bad_date_and_field_count():
    text = HEADER + (
        "not-a-date,KGHM,31.5\n"
        "2005-01-03,KGHM\n"
        "2005-01-04,KGHM,31.5\n"
        "2005-01-05, ,31.5\n"
    )
    result = parse_price_table(text)
    assert result.dates == [date(2005, 1, 4)]
    assert result.prices.tolist() == [[31.5]]
    assert [(r.line_number, r.reason, r.raw) for r in result.rejected] == [
        (2, "unparseable date 'not-a-date'", "not-a-date,KGHM,31.5"),
        (3, "expected 3 fields, got 2", "2005-01-03,KGHM"),
        (5, "empty ticker", "2005-01-05, ,31.5"),
    ]


@pytest.mark.parametrize(
    "text", ["20050103", "2005-W01-1", "2005-001", "2005-1-03", "\uff12005-01-03", "2005-02-30"]
)
def test_parse_accepts_only_yyyy_mm_dd_dates(text):
    result = parse_price_table(HEADER + "%s,KGHM,31.5\n2005-01-04,KGHM,32.0\n" % text)
    assert result.dates == [date(2005, 1, 4)]
    assert [(r.line_number, r.reason) for r in result.rejected] == [
        (2, "unparseable date %r" % text)
    ]


@pytest.mark.parametrize("text", ["1_000", "1_0.5", "\u0661\u0662\u0663", "\uff15", "5\u00b2"])
def test_parse_accepts_only_ascii_decimal_prices(text):
    result = parse_price_table(HEADER + "2005-01-03,KGHM,%s\n2005-01-04,KGHM,32.0\n" % text)
    assert result.dates == [date(2005, 1, 4)]
    assert [(r.line_number, r.reason) for r in result.rejected] == [
        (2, "unparseable price %r" % text)
    ]


@pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\u2003", "\x85"])
def test_parse_strips_ascii_whitespace_only(space):
    text = HEADER + (
        "2005-01-03 ,KGHM,5%s\n"
        "%s2005-01-04,KGHM,6\n"
        "2005-01-05,KGHM%s,7\n"
        " 2005-01-05\t,\x0bKGHM\x0c, 8 \n"
    ) % (space, space, space)
    result = parse_price_table(text)
    assert [(r.line_number, r.reason) for r in result.rejected] == [
        (2, "unparseable price %r" % ("5" + space)),
        (3, "unparseable date %r" % (space + "2005-01-04")),
    ]
    assert result.tickers == ["KGHM" + space, "KGHM"]
    assert result.dates == [date(2005, 1, 5)]
    assert result.prices.tolist() == [[7.0], [8.0]]
    with pytest.raises(FormatError, match="malformed header"):
        parse_price_table("date,ticker,close%s\n" % space)


@pytest.mark.parametrize(
    "field, ticker",
    [('"C,D"', "C,D"), ('"A""B"', 'A"B'), ("A\\B", "A\\B"), ("A\tB", "A\tB"), ("A\x1fB", "A\x1fB"), ("A\x7fB", "A\x7fB")],
)
def test_parse_rejects_tickers_the_output_formats_cannot_hold(field, ticker):
    # Edge lists, DOT and corr.csv write tickers unquoted.
    text = HEADER + (
        "2005-01-03,%s,5\n"
        "2005-01-04,%s,x\n"
        "2005-01-04,KGHM,6\n"
        "2005-01-05,%s,7\n"
    ) % (field, field, field)
    result = parse_price_table(text)
    assert [(r.line_number, r.reason) for r in result.rejected] == [
        (2, "unparseable ticker %r" % ticker),
        (3, "unparseable ticker %r" % ticker),
        (5, "unparseable ticker %r" % ticker),
    ]
    assert result.tickers == ["KGHM"]
    assert result.dates == [date(2005, 1, 4)]


@pytest.mark.parametrize("text, value", [("1e+20", 1e20), ("+5", 5.0), (".5", 0.5), ("2E-3", 0.002)])
def test_parse_keeps_signs_and_exponents_in_prices(text, value):
    result = parse_price_table(HEADER + "2005-01-03,KGHM,%s\n" % text)
    assert result.prices.tolist() == [[value]]
    assert result.rejected == []


def test_parse_sorts_out_of_order_dates():
    text = HEADER + (
        "2005-01-05,KGHM,33.0\n"
        "2005-01-03,KGHM,31.5\n"
        "2005-01-04,KGHM,32.0\n"
    )
    result = parse_price_table(text)
    assert result.dates == [date(2005, 1, 3), date(2005, 1, 4), date(2005, 1, 5)]
    assert result.prices.tolist() == [[31.5, 32.0, 33.0]]


def test_parse_malformed_header_raises():
    with pytest.raises(FormatError):
        parse_price_table("date,ticker\n")
    with pytest.raises(FormatError):
        parse_price_table("")


def test_parse_duplicate_record_raises():
    text = HEADER + "2005-01-03,KGHM,31.5\n2005-01-03,KGHM,31.6\n"
    with pytest.raises(DuplicateRecordError, match=r"^duplicate record for \(KGHM, 2005-01-03\) at line 3$"):
        parse_price_table(text)


def test_parse_duplicate_names_the_earliest_repeating_line():
    text = HEADER + (
        "2005-01-03,A,1.0\n"
        "2005-01-03,B,1.0\n"
        "2005-01-04,A,1.0\n"
        "2005-01-04,B,2.0\n"
        "2005-01-03,B,3.0\n"  # line 6 repeats line 3
        "2005-01-03,A,3.0\n"  # line 7 repeats line 2, a cell that sorts first
    )
    with pytest.raises(DuplicateRecordError, match=r"^duplicate record for \(B, 2005-01-03\) at line 6$"):
        parse_price_table(text)


def test_parse_reads_columns_by_header_name():
    text = "ticker,close,date\nKGHM,31.5,2005-01-03\nKGHM,32.0,2005-01-04\n"
    result = parse_price_table(text)
    assert result.rejected == []
    assert result.tickers == ["KGHM"]
    assert result.dates == [date(2005, 1, 3), date(2005, 1, 4)]
    assert result.prices.tolist() == [[31.5, 32.0]]


def test_parse_ignores_extra_columns_and_checks_the_header_width():
    text = (
        " date , ticker ,volume, close\n"
        "2005-01-03,KGHM,1200,31.5\n"
        "2005-01-04,KGHM,32.0\n"
        "2005-01-05,KGHM,900,33.0\n"
    )
    result = parse_price_table(text)
    assert result.dates == [date(2005, 1, 3), date(2005, 1, 5)]
    assert result.prices.tolist() == [[31.5, 33.0]]
    assert [(r.line_number, r.reason) for r in result.rejected] == [(3, "expected 4 fields, got 3")]


def _csv(quotes):
    """Price CSV text from {ticker: [days]}, one 10.0 close per quoted day."""
    return HEADER + "".join(
        "%s,%s,10.0\n" % (day.isoformat(), ticker)
        for ticker, days in quotes.items()
        for day in days
    )


def _parsed(quotes):
    return parse_price_table(_csv(quotes))


DAYS = [date(2005, 1, d) for d in (3, 4, 5, 6)]
GAPPY = [DAYS[0], DAYS[1], DAYS[3]]


def test_parse_grid_holds_nan_exactly_at_the_missing_date():
    result = _parsed({"A": DAYS, "C": GAPPY, "B": DAYS})
    assert result.tickers == ["A", "C", "B"]
    assert result.dates == DAYS
    assert np.argwhere(np.isnan(result.prices)).tolist() == [[1, 2]]
    assert np.all(result.prices[~np.isnan(result.prices)] == 10.0)


def test_parse_grid_matches_a_per_record_reference():
    rng = np.random.default_rng(5)
    records = [
        (date(2005, 1, 3 + d).isoformat(), "T%d" % t, "%.4f" % rng.uniform(1, 100))
        for t in range(6)
        for d in range(20)
        if rng.random() > 0.1
    ]
    records = [records[i] for i in rng.permutation(len(records))]
    result = parse_price_table(HEADER + "".join("%s,%s,%s\n" % r for r in records))
    reference: dict[str, dict[date, float]] = {}
    for day, ticker, price in records:
        reference.setdefault(ticker, {})[date.fromisoformat(day)] = float(price)
    assert result.tickers == list(reference)
    assert result.dates == sorted({d for quotes in reference.values() for d in quotes})
    for ticker, row in zip(result.tickers, result.prices):
        for day, price in zip(result.dates, row.tolist()):
            expected = reference[ticker].get(day)
            assert math.isnan(price) if expected is None else price == expected


def test_align_drops_company_missing_a_mid_period_day():
    result = align_and_filter(_parsed({"A": DAYS, "B": DAYS, "C": GAPPY}), (DAYS[0], DAYS[-1]))
    assert result.panel.tickers == ["A", "B"]
    assert result.dropped == ["C"]
    assert result.panel.dates == DAYS


def test_align_keeps_all_complete_companies():
    result = align_and_filter(_parsed({t: DAYS for t in ("A", "B", "C")}), (DAYS[0], DAYS[-1]))
    assert result.panel.tickers == ["A", "B", "C"]
    assert result.dropped == []


def test_align_empty_period_raises():
    with pytest.raises(InsufficientDataError):
        align_and_filter(_parsed({"A": DAYS}), (date(2010, 1, 1), date(2010, 2, 1)))


def test_align_fewer_than_two_survivors_raises():
    gappy = [DAYS[0], DAYS[2], DAYS[3]]
    with pytest.raises(InsufficientDataError):
        align_and_filter(_parsed({"A": DAYS, "B": gappy}), (DAYS[0], DAYS[-1]))


def test_align_is_idempotent():
    period = (DAYS[0], DAYS[-1])
    first = align_and_filter(_parsed({"A": DAYS, "B": DAYS, "C": GAPPY}), period)
    back = HEADER + "".join(
        "%s,%s,%r\n" % (day.isoformat(), ticker, float(price))
        for ticker, row in zip(first.panel.tickers, first.panel.prices)
        for day, price in zip(first.panel.dates, row)
    )
    second = align_and_filter(parse_price_table(back), period)
    assert second.panel.tickers == first.panel.tickers
    assert second.panel.dates == first.panel.dates
    assert np.array_equal(second.panel.prices, first.panel.prices)
    assert second.dropped == []


def test_align_output_has_full_observation_count():
    result = align_and_filter(_parsed({"A": DAYS, "B": DAYS, "C": GAPPY}), (DAYS[0], DAYS[-1]))
    assert result.panel.prices.shape == (2, len(DAYS))


def _panel(rows):
    rows = np.asarray(rows, dtype=float)
    days = [date(2005, 1, 3 + t) for t in range(rows.shape[1])]
    return PricePanel(["P%d" % i for i in range(rows.shape[0])], days, rows)


def test_log_returns_of_e_powers():
    panel = _panel([[1.0, math.e, math.e**2], [1.0, 1.0, 1.0]])
    returns = log_returns(panel)
    assert returns.returns[0] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert returns.returns[1] == pytest.approx([0.0, 0.0], abs=0.0)
    assert returns.dates == panel.dates[1:]


def test_log_returns_value_matches_log_ratio():
    panel = _panel([[100.0, 110.0, 121.0], [50.0, 50.0, 50.0]])
    returns = log_returns(panel)
    assert returns.returns[0][0] == pytest.approx(math.log(1.1), abs=1e-12)
    assert returns.returns[0][0] == pytest.approx(0.0953102, abs=1e-7)


def test_log_returns_scale_invariance():
    base = np.array([[10.0, 11.0, 12.5, 11.8], [3.0, 2.9, 3.3, 3.1]])
    r1 = log_returns(_panel(base)).returns
    r2 = log_returns(_panel(base * 7.3)).returns
    assert np.allclose(r1, r2, atol=1e-12)

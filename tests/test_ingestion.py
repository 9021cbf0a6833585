import math
from datetime import date

import numpy as np
import pytest

from assettree.errors import DuplicateRecordError, FormatError, InsufficientDataError
from assettree.ingestion import (
    FormatSpec,
    PricePanel,
    PriceSeries,
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
    assert [s.ticker for s in result.series] == ["KGHM", "PKN"]
    assert [len(s.observations) for s in result.series] == [2, 1]
    assert result.series[0].observations[0] == (date(2005, 1, 3), 31.5)
    assert result.rejected == []


def test_parse_empty_body_gives_empty_list():
    result = parse_price_table(HEADER)
    assert result.series == []
    assert result.rejected == []


def test_parse_rejects_nonpositive_price_with_row_diagnostic():
    text = HEADER + "2005-01-03,KGHM,-1.0\n2005-01-04,KGHM,30.0\n"
    result = parse_price_table(text)
    assert len(result.series) == 1
    assert len(result.series[0].observations) == 1
    assert len(result.rejected) == 1
    assert result.rejected[0].line_number == 2
    assert "non-positive" in result.rejected[0].reason


def test_parse_rejects_bad_date_and_field_count():
    text = HEADER + (
        "not-a-date,KGHM,31.5\n"
        "2005-01-03,KGHM\n"
        "2005-01-04,KGHM,31.5\n"
    )
    result = parse_price_table(text)
    assert len(result.series[0].observations) == 1
    reasons = [r.reason for r in result.rejected]
    assert any("date" in r for r in reasons)
    assert any("fields" in r for r in reasons)


def test_parse_sorts_out_of_order_dates():
    text = HEADER + (
        "2005-01-05,KGHM,33.0\n"
        "2005-01-03,KGHM,31.5\n"
        "2005-01-04,KGHM,32.0\n"
    )
    series = parse_price_table(text).series[0]
    assert [day for day, _ in series.observations] == [
        date(2005, 1, 3),
        date(2005, 1, 4),
        date(2005, 1, 5),
    ]


def test_parse_malformed_header_raises():
    with pytest.raises(FormatError):
        parse_price_table("date,ticker\n")
    with pytest.raises(FormatError):
        parse_price_table("")


def test_parse_duplicate_record_raises():
    text = HEADER + "2005-01-03,KGHM,31.5\n2005-01-03,KGHM,31.6\n"
    with pytest.raises(DuplicateRecordError):
        parse_price_table(text)


def test_parse_custom_delimiter():
    text = "date;ticker;close\n2005-01-03;KGHM;31.5\n"
    result = parse_price_table(text, FormatSpec(delimiter=";"))
    assert result.series[0].observations == [(date(2005, 1, 3), 31.5)]


def test_parse_reads_columns_by_header_name():
    text = "ticker,close,date\nKGHM,31.5,2005-01-03\nKGHM,32.0,2005-01-04\n"
    result = parse_price_table(text)
    assert result.rejected == []
    assert result.series[0].ticker == "KGHM"
    assert result.series[0].observations == [(date(2005, 1, 3), 31.5), (date(2005, 1, 4), 32.0)]


def test_parse_ignores_extra_columns_and_checks_the_header_width():
    text = (
        " date , ticker ,volume, close\n"
        "2005-01-03,KGHM,1200,31.5\n"
        "2005-01-04,KGHM,32.0\n"
        "2005-01-05,KGHM,900,33.0\n"
    )
    result = parse_price_table(text)
    assert result.series[0].observations == [(date(2005, 1, 3), 31.5), (date(2005, 1, 5), 33.0)]
    assert [(r.line_number, r.reason) for r in result.rejected] == [(3, "expected 4 fields, got 3")]


def _series(ticker, days, price=10.0):
    return PriceSeries(ticker, [(d, price) for d in days])


DAYS = [date(2005, 1, d) for d in (3, 4, 5, 6)]


def test_align_drops_company_missing_a_mid_period_day():
    full = DAYS
    gappy = [DAYS[0], DAYS[1], DAYS[3]]
    result = align_and_filter(
        [_series("A", full), _series("B", full), _series("C", gappy)],
        (DAYS[0], DAYS[-1]),
    )
    assert result.panel.tickers == ["A", "B"]
    assert result.dropped == ["C"]
    assert result.panel.dates == full


def test_align_keeps_all_complete_companies():
    result = align_and_filter(
        [_series(t, DAYS) for t in ("A", "B", "C")], (DAYS[0], DAYS[-1])
    )
    assert result.panel.tickers == ["A", "B", "C"]
    assert result.dropped == []


def test_align_empty_period_raises():
    with pytest.raises(InsufficientDataError):
        align_and_filter(
            [_series("A", DAYS)], (date(2010, 1, 1), date(2010, 2, 1))
        )


def test_align_fewer_than_two_survivors_raises():
    gappy = [DAYS[0], DAYS[2], DAYS[3]]
    with pytest.raises(InsufficientDataError):
        align_and_filter(
            [_series("A", DAYS), _series("B", gappy)], (DAYS[0], DAYS[-1])
        )


def test_align_is_idempotent():
    gappy = [DAYS[0], DAYS[1], DAYS[3]]
    period = (DAYS[0], DAYS[-1])
    first = align_and_filter(
        [_series("A", DAYS), _series("B", DAYS), _series("C", gappy)], period
    )
    back = [
        PriceSeries(t, list(zip(first.panel.dates, row)))
        for t, row in zip(first.panel.tickers, first.panel.prices)
    ]
    second = align_and_filter(back, period)
    assert second.panel.tickers == first.panel.tickers
    assert second.panel.dates == first.panel.dates
    assert np.array_equal(second.panel.prices, first.panel.prices)
    assert second.dropped == []


def test_align_output_has_full_observation_count():
    gappy = [DAYS[0], DAYS[1], DAYS[3]]
    result = align_and_filter(
        [_series("A", DAYS), _series("B", DAYS), _series("C", gappy)],
        (DAYS[0], DAYS[-1]),
    )
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

import csv
import io
import itertools
import math
import re
import tracemalloc
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest

from assettree import exports, ingestion
from assettree.errors import DuplicateRecordError, FormatError, InsufficientDataError
from assettree.ingestion import (
    ParseResult,
    align_and_filter,
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


@pytest.mark.parametrize(
    "text, reason",
    [
        ("nan", "non-finite price nan"),
        ("inf", "non-finite price inf"),
        ("-inf", "non-finite price -inf"),
        ("0", "non-positive price 0"),
        ("-1", "non-positive price -1"),
        ("1e-400", "price 1e-400 underflows to 0"),
        ("+0.5E-400", "price +0.5E-400 underflows to 0"),
        ("-1e-400", "non-positive price -1e-400"),
        ("0.0e-400", "non-positive price 0.0e-400"),
    ],
)
def test_parse_names_non_finite_and_non_positive_prices_apart(monkeypatch, text, reason):
    for chunk_bytes in CHUNK_SIZES:
        monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
        result = parse_price_table(HEADER + "2005-01-03,KGHM,%s\n2005-01-04,KGHM,32.0\n" % text)
        assert result.dates == [date(2005, 1, 4)]
        assert [(r.line_number, r.reason) for r in result.rejected] == [(2, reason)]


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
    [
        ('"C,D"', "C,D"), ('"A""B"', 'A"B'), ("A\\B", "A\\B"),
        ("A\tB", "A\tB"), ("A\x1fB", "A\x1fB"), ("A\x7fB", "A\x7fB"), ("#A", "#A"),
    ],
)
def test_parse_rejects_tickers_the_output_formats_cannot_hold(field, ticker):
    # Edge lists, DOT and corr.csv write tickers unquoted, and "#" opens an edge list's comment line.
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


# csv.reader reads the same three names from this header, but it is not the
# plain `date,ticker,close` line, so the whole file takes the csv.reader loop
# with the same rows and line numbers: the reference for the chunk path.
REFERENCE_HEADER = '"date",ticker,close\n'

# Chunk sizes in bytes: a chunk of 1 byte holds at most one line, and 256
# bytes hold a few; the 1, 2, 7 and 256 cases keep the test ids of the
# line-block parser these tests were written for.
CHUNK_SIZES = [1, 2, 7, 97, 256, ingestion.CHUNK_BYTES]

# One of each rejection, a blank line, and prices outside the bulk grammar.
ODD_ROWS = [
    "2005-02-30,T00,5\n",
    "2005-01-03,T01\n",
    "2005-01-03,T01,5,6\n",
    "2005-01-04,,5\n",
    "2005-01-04,A\\B,5\n",
    "2005-01-05,T02,n/a\n",
    "2005-01-05,T02,nan\n",
    "2005-01-05,T02,inf\n",
    "2005-01-05,T02,0\n",
    "2005-01-05,T02,-1\n",
    "2005-01-05,T02,1e999\n",
    "2005-01-05,T03,1e\n",
    "2005-01-05,T03,\n",
    "\n",
]


def _messy_body(seed):
    """Shuffled rows with holes and every rejection; no final newline.

    LATE's first row is rejected and its next one is accepted by the per-row
    rules (`2E1`), ahead of EARLY's first row, which the bulk path takes.
    """
    rng = np.random.default_rng(seed)
    days = [date(2005, 1, 3) + timedelta(days=d) for d in range(30)]
    # Log-uniform prices, as in the benchmark's inputs: most print with an
    # exponent, and the fixed ones with up to four leading zeros.
    formats = ["%.17g", "%r", "%.6e"]
    rows = [
        "%s,T%02d,%s\n" % (day.isoformat(), t, formats[rng.integers(3)] % 10 ** rng.uniform(-80, 55))
        for t in range(12)
        for day in days
        if rng.random() > 0.1
    ]
    rows += ODD_ROWS + ["2005-01-05,LATE,7\n"]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    head = "2005-01-03,LATE,-1\n2005-01-04,LATE,2E1\n2005-01-03,EARLY,3\n"
    return (head + "".join(rows))[:-1]


def _assert_same_parse(result, reference):
    assert all(type(r.line_number) is int for r in result.rejected)
    assert result.tickers == reference.tickers
    assert result.dates == reference.dates
    assert result.prices.tobytes() == reference.prices.tobytes()
    assert [(r.line_number, r.reason, r.raw) for r in result.rejected] == [
        (r.line_number, r.reason, r.raw) for r in reference.rejected
    ]


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_parse_matches_the_csv_reader_loop(monkeypatch, seed, chunk_bytes):
    body = _messy_body(seed)
    reference = parse_price_table(REFERENCE_HEADER + body)
    assert len(reference.rejected) == len(ODD_ROWS)  # the blank line is skipped, LATE's -1 is not
    assert reference.tickers[:2] == ["LATE", "EARLY"]
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    _assert_same_parse(parse_price_table(HEADER + body), reference)


@pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 4, 7, 97, 256, ingestion.CHUNK_BYTES])
def test_parse_duplicate_across_blocks_names_the_first_repeating_line(monkeypatch, chunk_bytes):
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    # The prices of lines 3, 6 and 7; a padded one takes the per-row rules. At
    # the smallest sizes line 6 sits in a later chunk than line 3, at the
    # largest in the same chunk, after lines parsed column-wise.
    for line_3, line_6, line_7 in [("1.0", "3E0", "3.0"), ("1.0", " 3", "3.0"), (" 1", "3.0", " 3")]:
        text = HEADER + (
            "2005-01-03,A,1.0\n"
            "2005-01-03,B,%s\n"
            "2005-01-04,A,1.0\n"
            "2005-01-04,B,2.0\n"
            "2005-01-03,B,%s\n"  # line 6 repeats line 3
            "2005-01-03,A,%s\n"  # line 7 repeats line 2, a cell that sorts first
        ) % (line_3, line_6, line_7)
        with pytest.raises(DuplicateRecordError, match=r"^duplicate record for \(B, 2005-01-03\) at line 6$"):
            parse_price_table(text)


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_parse_orders_tickers_by_first_accepted_line_and_dates_by_day(monkeypatch, chunk_bytes):
    # AAA's first line is rejected, so its first accepted line comes after
    # those of ZZZ and of MMM (whose padded price takes the per-row rules),
    # though its name sorts first; the dates arrive newest first.
    days = [date(2005, 1, 3) + timedelta(days=d) for d in range(20)]
    body = "%s,AAA,n/a\n%s,ZZZ,1\n%s,MMM, 2\n%s,AAA,3\n" % ((days[-1],) * 4)
    body += "".join("%s,ZZZ,1\n%s,MMM,2\n%s,AAA,3\n" % (day, day, day) for day in days[-2::-1])
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    result = parse_price_table(HEADER + body)
    _assert_same_parse(result, parse_price_table(REFERENCE_HEADER + body))
    assert result.tickers == ["ZZZ", "MMM", "AAA"]
    assert result.dates == days
    assert result.prices.tolist() == [[1.0] * 20, [2.0] * 20, [3.0] * 20]
    assert [(r.line_number, r.reason) for r in result.rejected] == [(2, "unparseable price 'n/a'")]


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_parse_repeat_at_an_equal_price_is_a_duplicate(monkeypatch, chunk_bytes):
    # Every repeat holds the price of the record it repeats, so only the cell tells them apart.
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    filler = "".join("2005-01-03,F%05d,1\n" % i for i in range(chunk_bytes // 19 + 1))  # over a chunk
    cases = [
        ("2005-01-03,A,1.5\n2005-01-04,A,2.5\n2005-01-03,A,1.5\n", 4),  # two lines in one chunk
        ("2005-01-03,A,1.5\n" + filler + "2005-01-03,A,1.5\n", 3 + filler.count("\n")),  # across a boundary
        ("2005-01-03,A,1.5\n2005-01-03,A,1.5\n2005-01-03,A,1.5\n", 3),  # three lines on one cell
    ]
    for body, line in cases:
        with pytest.raises(DuplicateRecordError, match=r"^duplicate record for \(A, 2005-01-03\) at line %d$" % line):
            parse_price_table(HEADER + body)


def _run_bodies(seed):
    """One seeded grid rendered ticker-major and date-major, with runs of dates and tickers to cut.

    Its days cross a month end; company C misses one day and ONE has one
    line; the tickers hold 1-16 bytes. Inside each run of valid dates (and
    of tickers, date-major) sit a 2005-13-01, a 2005-02-30 and an "n/a" line.
    """
    rng = np.random.default_rng(seed)
    tickers = ["A", "LONGNAME9", "C", "SIXTEEN_BYTES_XY", "ONE", "BB"]
    days = [date(2005, 1, 20) + timedelta(days=d) for d in range(20)]
    cells = {
        (ticker, day): ["%.17g", "%r", "%.6e"][rng.integers(3)] % 10 ** rng.uniform(-5, 5)
        for ticker in tickers
        for day in (days[5:6] if ticker == "ONE" else days)
        if (ticker, day) != ("C", days[12])
    }
    odd = ["2005-13-01,%s,1\n", "2005-02-30,%s,1\n", "%s,%%s,n/a\n" % days[7]]
    ticker_major, date_major = [], []
    for ticker in tickers:
        ticker_major += ["%s,%s,%s\n" % (day, ticker, cells[ticker, day]) for day in days if (ticker, day) in cells]
        ticker_major.insert(len(ticker_major) - 4, odd[len(ticker_major) % 3] % ticker)
    for day in days:
        date_major += ["%s,%s,%s\n" % (day, ticker, cells[ticker, day]) for ticker in tickers if (ticker, day) in cells]
        if day.day % 4 == 0:
            date_major.insert(len(date_major) - 2, odd[day.day % 3] % tickers[day.day % len(tickers)])
    return "".join(ticker_major), "".join(date_major)


@pytest.mark.parametrize("seed", [0, 1])
def test_parse_runs_of_dates_and_tickers_match_the_csv_reader(monkeypatch, seed):
    bodies = _run_bodies(seed)
    references = [parse_price_table(REFERENCE_HEADER + body) for body in bodies]
    assert [len(reference.rejected) for reference in references] == [6, 5]
    for chunk_bytes in CHUNK_SIZES:
        monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
        grids = []
        for body, reference in zip(bodies, references):
            result = parse_price_table(HEADER + body)
            _assert_same_parse(result, reference)
            grids.append(result.prices[np.argsort(result.tickers)])  # dates come sorted
        assert grids[0].tobytes() == grids[1].tobytes()
        assert np.isnan(grids[0]).sum() == 19 + 1  # ONE's other days and C's hole


def test_parse_memory_follows_the_records_not_the_calendar():
    # Four records 9,999 years apart: the parse holds the grid, grown by
    # doubling to under 4 times the result's cells, the result, and one
    # chunk's arrays, which stay under 64 bytes per chunk byte (about 28 on a
    # chunk of the shortest lines a chunk parses column-wise, 15 bytes each).
    # A date axis over the calendar span would hold 3.65 million columns.
    text = HEADER + "0001-01-01,A,1\n9999-12-31,A,2\n0001-01-01,B,3\n9999-12-31,B,4\n"
    tracemalloc.start()
    try:
        result = parse_price_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.prices.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert peak < 5 * result.prices.nbytes + 64 * ingestion.CHUNK_BYTES


@pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 7, 97, ingestion.CHUNK_BYTES])
def test_parse_quoted_field_across_a_block_boundary(monkeypatch, chunk_bytes):
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    body = '2005-01-03,A,1\n2005-01-04,"A\nB",2\n2005-01-05,A,3\n2005-01-06,"A",4\n'
    result = parse_price_table(HEADER + body)
    _assert_same_parse(result, parse_price_table(REFERENCE_HEADER + body))
    assert [(r.line_number, r.reason) for r in result.rejected] == [(3, "unparseable ticker 'A\\nB'")]
    assert result.prices.tolist() == [[1.0, 3.0, 4.0]]


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_parse_names_the_line_a_record_starts_on_after_a_record_that_spans_two(monkeypatch, chunk_bytes):
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    body = '2005-01-03,"A\nB",1.0\n2005-01-03,C,1.0\n2005-01-04,C,bad\n2005-01-04,C,2.0\n'
    for header in (HEADER, REFERENCE_HEADER):
        result = parse_price_table(header + body)
        assert [(r.line_number, r.reason) for r in result.rejected] == [
            (2, "unparseable ticker 'A\\nB'"),
            (5, "unparseable price 'bad'"),
        ]
        assert result.prices.tolist() == [[1.0, 2.0]]
        with pytest.raises(DuplicateRecordError, match=r"^duplicate record for \(C, 2005-01-04\) at line 7$"):
            parse_price_table(header + body + "2005-01-04,C,3.0\n")


@pytest.mark.parametrize("odd", ["2005-01-05\t,A,2\n", "2005-01-05,A,2\u3000\n", "2005-01-05,A,1_000\n"])
def test_parse_non_plain_block_between_plain_ones(monkeypatch, odd):
    body = "2005-01-03,A,1\n2005-01-04,A,2\n" + odd + "2005-01-06,A,4\n2005-01-07,A,5\n2005-01-08,A,6\n"
    reference = parse_price_table(REFERENCE_HEADER + body)
    assert len(reference.dates) + len(reference.rejected) == 6
    for chunk_bytes in CHUNK_SIZES:
        monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
        _assert_same_parse(parse_price_table(HEADER + body), reference)


def test_parse_line_over_the_csv_field_limit_takes_the_csv_reader(monkeypatch):
    limit = csv.field_size_limit(20)
    try:
        # A 21-byte ticker, and a 21-byte price of a ticker seen before: a
        # price that short is otherwise parsed column-wise.
        bodies = ["2005-01-03,A,1\n2005-01-04,%s,2\n" % ("B" * 21), "2005-01-03,A,1\n2005-01-04,A,%s\n" % ("1" * 21)]
        for header, body, chunk_bytes in itertools.product((HEADER, REFERENCE_HEADER), bodies, CHUNK_SIZES):
            monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
            with pytest.raises(FormatError, match="^line 3: field larger than field limit"):
                parse_price_table(header + body)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_parse_field_over_the_csv_limit_names_its_line(monkeypatch, chunk_bytes):
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    long = "B" * (csv.field_size_limit() + 1)
    body = "2005-01-03,A,1\n2005-01-04,A,2\n2005-01-05,A,3\n2005-01-05,%s,4\n2005-01-06,A,5\n" % long
    for text in (HEADER + body, REFERENCE_HEADER + body):
        with pytest.raises(FormatError, match="^line 5: field larger than field limit"):
            parse_price_table(text)
    with pytest.raises(FormatError, match="^line 1: field larger than field limit"):
        parse_price_table(HEADER.rstrip("\n") + ",%s\n" % long + body)


BOM = "\ufeff"


def test_parse_skips_a_leading_byte_order_mark():
    body = "2005-01-03,A,1\n2005-01-04,\ufeffB,2\n"
    expected = parse_price_table(HEADER + body)
    assert expected.tickers == ["A", "\ufeffB"]  # only the mark that opens the file is skipped
    sources = [BOM + HEADER + body, io.BytesIO((BOM + HEADER + body).encode()), BOM + REFERENCE_HEADER + body]
    for source in sources:
        _assert_same_parse(parse_price_table(source), expected)
    with pytest.raises(FormatError, match="^missing header row$"):
        parse_price_table(BOM)


@pytest.mark.parametrize(
    "text", ["date,ticker,close", "date,ticker,close\r\n", BOM + "date,ticker,close\r", '"date",ticker,close']
)
def test_parse_header_only_file_gives_an_empty_grid(text):
    result = parse_price_table(text)
    assert (result.tickers, result.dates, result.prices.shape, result.rejected) == ([], [], (0, 0), [])


def test_parse_calendar_matches_the_per_row_rules():
    rng = np.random.default_rng(9)
    days = [date.fromordinal(int(d) + 1).isoformat() for d in rng.choice(date.max.toordinal(), 2000, replace=False)]
    days += ["1900-02-29", "2000-02-29", "2004-02-29", "2005-02-29", "0001-01-01", "9999-12-31", "0000-06-15"]
    days += ["2005-13-01", "2005-00-10", "2005-04-31", "2005-04-00", "2005-12-32", "2005/01/03", "2005-01-3a"]
    days += ["2005-01-031", "2005-01-03T", "205-01-03"]
    body = "".join("%s,A,1\n" % day for day in days)
    result = parse_price_table(HEADER + body)
    _assert_same_parse(result, parse_price_table(REFERENCE_HEADER + body))
    assert len(result.rejected) == 13


# Tickers of 1-8, 9-16 and 17 bytes, with "_", a non-ASCII letter, a space,
# a control byte, and an empty one.
FUZZ_TICKERS = [
    "A", "KGHM", "A_B", "LONGNAME9", "SIXTEEN_BYTES_XY", "SEVENTEEN_BYTES_X", "\u00dcnic", " PAD", "T\x7f", ""
]
FUZZ_DATES = ["2005-02-30", "20050103", "2005-1-03", "0000-01-01", " 2005-01-03", "2005-01-0\u0663", "2005-01-031"]
FUZZ_PRICES = [
    "n/a", "1_000", "1_0.5", "1e", "-1", "0", "inf", "nan", "1e999", "+5", ".5", "2E-3", "", " 7", "\u0661"
]
NEWLINES = ["\n", "\r\n", "\r"]


def _fuzz_lines(rng):
    """Price lines with every kind of rejection, duplicates and quotes now and then."""
    days = [(date(2005, 1, 3) + timedelta(days=d)).isoformat() for d in range(30)]
    cells = rng.choice(len(days) * len(FUZZ_TICKERS), size=rng.integers(0, 150), replace=False)
    lines = []
    for cell in cells.tolist():
        day, ticker = days[cell // len(FUZZ_TICKERS)], FUZZ_TICKERS[cell % len(FUZZ_TICKERS)]
        price = ["%.17g", "%.4f", "%r"][rng.integers(3)] % rng.uniform(0.01, 1e4)
        roll = rng.random()
        if roll < 0.05:
            day = FUZZ_DATES[rng.integers(len(FUZZ_DATES))]
        elif roll < 0.12:
            price = FUZZ_PRICES[rng.integers(len(FUZZ_PRICES))]
        elif roll < 0.13:
            price = "1" * 40  # longer than a column-wise price
        elif roll < 0.15:
            price += ",1"
        lines.append("" if roll > 0.98 else ",".join([day, ticker, price]))
    for _ in range(rng.integers(2) if lines else 0):  # a duplicate record
        lines.append(lines[rng.integers(len(lines))])
    if lines and rng.random() < 0.15:  # a quote, after which csv.reader reads the rest
        lines.insert(rng.integers(len(lines)), '"%s",A,1' % days[-1])
    return lines


def _outcome(source):
    """What parsing gives: the grid and rejections, or the error."""
    try:
        r = parse_price_table(source)
    except UnicodeDecodeError as err:
        return "UnicodeDecodeError", err.reason
    except (FormatError, DuplicateRecordError) as err:
        return type(err).__name__, str(err)
    assert all(type(x.line_number) is int for x in r.rejected)
    return r.tickers, r.dates, r.prices.tobytes(), [(x.line_number, x.reason, x.raw) for x in r.rejected]


@pytest.mark.parametrize("seed", range(40))
def test_chunk_parse_matches_the_csv_reader_reference(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    lines = _fuzz_lines(rng)
    if rng.random() < 0.2:  # each line ends in any of the three newlines
        ends = [NEWLINES[k] for k in rng.integers(3, size=len(lines) + 1)]
    else:
        ends = [NEWLINES[rng.integers(3)] if rng.random() < 0.3 else "\n"] * (len(lines) + 1)
    if rng.random() < 0.3:
        ends[-1] = ""  # no final newline
    bom = BOM if rng.random() < 0.2 else ""
    body = "".join(line + end for line, end in zip(lines, ends[1:])).encode()
    if lines and rng.random() < 0.1:
        cut = max(body.find(b"\n", rng.integers(len(body))), 0)
        body = body[:cut] + b"\xff" + body[cut:]  # invalid UTF-8
    plain = (bom + HEADER.rstrip("\n") + ends[0]).encode() + body
    reference = (bom + REFERENCE_HEADER.rstrip("\n") + ends[0]).encode() + body
    limit = csv.field_size_limit(16 if seed % 8 == 7 else csv.field_size_limit())  # below a price's length
    try:
        expected = _outcome(io.BytesIO(reference))
        for chunk_bytes in CHUNK_SIZES:
            monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
            assert _outcome(io.BytesIO(plain)) == expected, chunk_bytes
        if b"\xff" not in plain:  # a str is read as its UTF-8 bytes
            assert _outcome(plain.decode()) == expected
    finally:
        csv.field_size_limit(limit)


def _convert(fields):
    """The column-wise conversion of price fields of up to 24 bytes, read as take_chunk reads them."""
    raw = np.frombuffer(b",T0123,2005-01-03," * 2, np.uint8)[:24]  # what precedes a field on its line
    tails = np.tile(raw, (len(fields), 1))
    for row, field in zip(tails, fields):
        row[24 - len(field) :] = np.frombuffer(field.encode(), np.uint8)
    work = np.empty((ingestion._WORK_ROWS, len(fields)), np.uint64)
    values, exact = ingestion._decimal_values(tails.view("<u8").T, np.array([len(f) for f in fields]), work)
    return values.copy(), exact


def _midpoint(x):
    """The exact decimal halfway between the double x > 0 and the next one up, written out in full."""
    half = Fraction(x) + Fraction(math.ulp(x)) / 2
    if half.denominator == 1:
        return str(half.numerator)
    digits = len(str(half.denominator))  # a power of two 2**k needs k fraction digits, k < 4 * digits
    scaled = half * 10 ** (4 * digits)
    text = str(scaled.numerator // scaled.denominator).rjust(4 * digits + 1, "0")
    return (text[: -4 * digits] + "." + text[-4 * digits :]).rstrip("0")


def _price_corpus(rng):
    """Price fields for the conversion: random doubles printed four ways, exact
    midpoints between doubles, 2**53 +- 1, 19- and 20-digit mantissas, leading
    zeros, subnormals, forms float() reads and forms it does not."""
    fields = []
    for x in np.ldexp(rng.uniform(1, 2, 1500), rng.integers(-930, 998, 1500)).tolist():  # 1e-280 to 1e300
        fields += [repr(x), "%.17g" % x, "%.6e" % x, "%E" % x]
    for e in range(53, 64):  # midpoints that are integers of up to 19 digits, and their neighbours
        x = float(np.ldexp(rng.uniform(1, 2), e))
        mid = _midpoint(x)
        fields += [mid, str(int(mid) - 1), str(int(mid) + 1), mid[0] + "." + mid[1:] + "e%d" % (len(mid) - 1)]
    fields += [_midpoint(x) for x in np.ldexp(rng.uniform(1, 2, 20), rng.integers(-60, 60, 20)).tolist()]
    fields += ["9007199254740991", "9007199254740993", "9.007199254740993e15", "900719925474099.3E1"]
    for _ in range(30):
        d = str(int(rng.integers(10**18, 10**19, dtype=np.uint64)))
        fields += [d, d[0] + "." + d[1:] + "e-%d" % rng.integers(1, 250), d + "0", d[:12] + "." + d[12:] + "1"]
    for zeros in range(22):  # up to 22 fraction digits
        digits = str(int(rng.integers(10**15, 10**16)))[: max(1, 21 - zeros)]
        fields += ["0." + "0" * zeros + digits, "0" * 3 + "." + "0" * zeros + digits + "e3"]
    fields += [repr(x) for x in (rng.uniform(0, 1, 20) * 2.0**-1022).tolist()]  # subnormals
    fields += ["5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e-290", "1e288", "1e289"]
    fields += ["+5", ".5", "5.", "1e0001", "5E+3", "0", "00", "0.0", "0e5", "1e", "e5", ".", "1.2.3", "1e5.5"]
    fields += ["1e+-5", "1-", "1e-", "-5", "1_0", "nan", "inf", "1ee5", "1e5e5", "+.5", "5.e3", ".5e-3"]
    return fields


def test_product_error_is_exact_across_the_exponent_range():
    # The price conversion multiplies digits D < 2**64 by the table's powers of ten and
    # corr.csv's digit core |rho| by _SCALE; both take a * b = hi + err from one helper.
    rng = np.random.default_rng(31)
    n = 20_000
    e_a = rng.integers(-990, 991, n)
    e_b = rng.integers(np.maximum(-990, -900 - e_a), np.minimum(990, 900 - e_a) + 1)  # a normal product
    table = ingestion._powers_of_ten()[0]
    scale = np.tile(exports._SCALE, 500)
    a = np.concatenate(
        [
            np.ldexp(rng.uniform(1, 2, n) * rng.choice([-1.0, 1.0], n), e_a),
            np.floor(np.ldexp(rng.uniform(1, 2, len(table)), rng.integers(0, 64, len(table)))),
            rng.uniform(1e-4, 1.0, len(scale)),
        ]
    )
    b = np.concatenate([np.ldexp(rng.uniform(1, 2, n), e_b), table, scale])
    hi = a * b
    err = ingestion._product_error(a, b, hi, np.empty_like(a), np.empty((4, len(a))))
    wrong = [
        (x, y) for x, y, h, e in zip(a.tolist(), b.tolist(), hi.tolist(), err.tolist())
        if Fraction(h) + Fraction(e) != Fraction(x) * Fraction(y)
    ]
    assert wrong == []
    # corr.csv's writer takes the error into a itself.
    into_a = a.copy()
    ingestion._product_error(into_a, b, hi, into_a, np.empty((4, len(a))))
    assert np.array_equal(into_a.view(np.uint64), err.view(np.uint64))


def test_price_conversion_matches_float_wherever_it_certifies():
    fields = [f for f in _price_corpus(np.random.default_rng(24)) if len(f) <= ingestion._PRICE_BYTES]
    values, exact = _convert(fields)
    taken = [f for f, ok in zip(fields, exact.tolist()) if ok]
    assert len(taken) > 6000
    assert values[exact].view(np.uint64).tolist() == np.array([float(f) for f in taken]).view(np.uint64).tolist()
    refused = set(fields) - set(taken)
    assert {"9007199254740991", ".5", "5.", "1e0001", "5E+3", "5.e3", ".5e-3", "1e-290", "1e288"} <= set(taken)
    assert {"9007199254740993", "9.007199254740993e15"} <= refused  # exact midpoints: the per-row rules round them
    assert {"+5", "0", "1e", "e5", ".", "1e5.5", "1e+-5", "1ee5", "5e-324", "1e289", "-5", "1_0"} <= refused
    assert not any(len(f.lower().lstrip("0.").partition("e")[0].replace(".", "")) > 19 for f in taken)


def _in_band(field):
    """Whether the decimal field lies within 2**-96 times its double of a point halfway to a neighbouring double."""
    exact, x = Fraction(field), float(field)
    halves = [(Fraction(x) + Fraction(math.nextafter(x, s))) / 2 for s in (0, math.inf)]
    return min(abs(exact - h) for h in halves) < Fraction(x) * Fraction(2) ** -96


def test_price_conversion_takes_every_shortest_and_17_digit_field_in_its_range():
    # A field the conversion refuses takes the per-row rules and is only slower, so
    # pin the coverage: every repr and %.17g field of a normal double whose decimal
    # exponent lies in the table, which 1e-270 to 1e280 keeps, unless its rounding
    # sits in the band the error bound leaves undecided.
    x = np.ldexp(np.random.default_rng(7).uniform(1, 2, 4000), np.random.default_rng(8).integers(-896, 931, 4000))
    fields = [f for v in x.tolist() for f in (repr(v), "%.17g" % v)]
    _, exact = _convert(fields)
    assert [f for f, ok in zip(fields, exact.tolist()) if not ok and not _in_band(f)] == []


@pytest.mark.parametrize("chunk_bytes", [97, ingestion.CHUNK_BYTES])
def test_chunk_parse_reads_the_price_corpus_like_the_csv_reader(monkeypatch, chunk_bytes):
    fields = _price_corpus(np.random.default_rng(25))
    body = "".join(
        "%s,T%d,%s\n" % (date(2005, 1, 3) + timedelta(days=i // 50), i % 50, field) for i, field in enumerate(fields)
    )
    reference = parse_price_table(REFERENCE_HEADER + body)
    assert len(reference.rejected) > 10  # the corpus holds forms float() does not read
    monkeypatch.setattr(ingestion, "CHUNK_BYTES", chunk_bytes)
    _assert_same_parse(parse_price_table(HEADER + body), reference)


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
    assert result.tickers == ["A", "B"]
    assert result.dropped == ["C"]
    assert result.dates == DAYS[1:]


def test_align_keeps_all_complete_companies():
    result = align_and_filter(_parsed({t: DAYS for t in ("A", "B", "C")}), (DAYS[0], DAYS[-1]))
    assert result.tickers == ["A", "B", "C"]
    assert result.dropped == []


@pytest.mark.parametrize(
    "tickers, prices, error, message",
    [
        (["A"], [[1.0, 2.0, 3.0]], InsufficientDataError, "only 1 of 1 companies complete over 2005-01-03..2005-01-05"),
        (["A", "A"], [[1.0, 2.0, 3.0]] * 2, FormatError, "duplicate tickers in panel"),
        (["A", "B"], [[1.0, 2.0, 3.0, 4.0]] * 2, FormatError, "price matrix shape (2, 4) does not match 2 tickers x 3 dates"),
        (["A", "B"], [[1.0, 2.0, 3.0], [1.0, 0.0, 3.0]], FormatError, "panel contains non-positive prices"),
    ],
)
def test_price_panel_rejects_a_malformed_panel(tickers, prices, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        align_and_filter(ParseResult(tickers, DAYS[:3], np.array(prices)), (DAYS[0], DAYS[2]))


def test_align_empty_period_raises():
    with pytest.raises(InsufficientDataError):
        align_and_filter(_parsed({"A": DAYS}), (date(2010, 1, 1), date(2010, 2, 1)))


def test_align_fewer_than_two_survivors_raises():
    gappy = [DAYS[0], DAYS[2], DAYS[3]]
    with pytest.raises(InsufficientDataError):
        align_and_filter(_parsed({"A": DAYS, "B": gappy}), (DAYS[0], DAYS[-1]))


def test_align_is_idempotent():
    period = (DAYS[0], DAYS[-1])
    parsed = _parsed({"A": DAYS, "B": DAYS, "C": GAPPY})
    first = align_and_filter(parsed, period)
    back = HEADER + "".join(
        "%s,%s,%r\n" % (day.isoformat(), ticker, float(price))
        for ticker, row in zip(parsed.tickers, parsed.prices)
        if ticker in first.tickers
        for day, price in zip(parsed.dates, row)
    )
    second = align_and_filter(parse_price_table(back), period)
    assert second.tickers == first.tickers
    assert second.dates == first.dates
    assert np.array_equal(second.returns, first.returns)
    assert np.array_equal(second.log_scale, first.log_scale)
    assert second.dropped == []


def test_align_output_has_full_observation_count():
    result = align_and_filter(_parsed({"A": DAYS, "B": DAYS, "C": GAPPY}), (DAYS[0], DAYS[-1]))
    assert result.returns.shape == (2, len(DAYS) - 1)


def test_align_returns_are_the_log_differences_of_the_complete_rows(rng):
    days = [date(2005, 1, 3) + timedelta(days=t) for t in range(30)]
    scale = np.array([[1.0], [1e-3], [7.0], [1e4], [2.0]])
    prices = scale * np.exp(0.02 * rng.standard_normal((5, 30)).cumsum(axis=1))
    prices[2, 17] = np.nan
    parsed = ParseResult(["E", "A", "H", "C", "B"], days, prices)
    for (lo, hi), dropped in (((0, 30), ["H"]), ((3, 17), [])):
        result = align_and_filter(parsed, (days[lo], days[hi - 1]))
        kept = [k for k, t in enumerate(parsed.tickers) if t not in dropped]
        logs = np.log(prices[kept, lo:hi])
        assert result.tickers == [parsed.tickers[k] for k in kept]
        assert result.dropped == dropped
        assert result.dates == days[lo + 1 : hi]
        assert np.array_equal(result.returns, np.diff(logs, axis=1))
        assert np.array_equal(result.log_scale, np.abs(logs).max(axis=1))


def _returns(rows):
    rows = np.asarray(rows, dtype=float)
    days = [date(2005, 1, 3 + t) for t in range(rows.shape[1])]
    parsed = ParseResult(["P%d" % i for i in range(rows.shape[0])], days, rows)
    return align_and_filter(parsed, (days[0], days[-1]))


def test_log_returns_of_e_powers():
    returns = _returns([[1.0, math.e, math.e**2], [1.0, 1.0, 1.0]])
    assert returns.returns[0] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert returns.returns[1] == pytest.approx([0.0, 0.0], abs=0.0)
    assert returns.dates == [date(2005, 1, 4), date(2005, 1, 5)]


def test_log_returns_value_matches_log_ratio():
    returns = _returns([[100.0, 110.0, 121.0], [50.0, 50.0, 50.0]])
    assert returns.returns[0][0] == pytest.approx(math.log(1.1), abs=1e-12)
    assert returns.returns[0][0] == pytest.approx(0.0953102, abs=1e-7)


def test_log_returns_scale_invariance():
    base = np.array([[10.0, 11.0, 12.5, 11.8], [3.0, 2.9, 3.3, 3.1]])
    r1 = _returns(base).returns
    r2 = _returns(base * 7.3).returns
    assert np.allclose(r1, r2, atol=1e-12)

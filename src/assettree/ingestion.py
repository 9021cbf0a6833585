"""Price table parsing, panel alignment, and log returns.

Input is UTF-8 CSV with a header row and one record per line. The header
names the columns `date` (YYYY-MM-DD), `ticker` and `close`, in any
order; other columns are ignored. Fields and header names are stripped
of ASCII whitespace only. A leading byte-order mark is skipped, and
"\\r\\n" and a lone "\\r" end a line like "\\n". The file is read as bytes,
CHUNK_BYTES at a time, and each chunk's records land in one ticker x date
grid of prices, NaN where a ticker has no record; the grid and the rejected
rows do not depend on where the chunks split. A company enters an aligned
panel only if it has a price on every trading day of the requested period,
where the trading-day axis is the set of dates observed in that period.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DuplicateRecordError, FormatError, InsufficientDataError


COLUMNS = ("date", "ticker", "close")

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# Edge lists, DOT and corr.csv write tickers unquoted, so a ticker may not
# hold a field separator, a quote, an escape or an ASCII control character,
# nor begin with "#", which starts an edge list's comment lines.
BAD_TICKER = re.compile(r'^#|[,"\\\x00-\x1f\x7f]')

# Stripped from each field and header name. ASCII only, like the date and
# price grammar: a non-ASCII space stays in the field and fails it.
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"

# Bytes read at a time. A chunk's arrays are alive at once: the CLI's own
# peak RSS on an 800 x 1500 analyze run read 63.0 MB with 256 KiB chunks
# and 65.9 MB with 1 MiB.
CHUNK_BYTES = 1 << 18

_PLAIN_HEADER = b"date,ticker,close"
_BOM = b"\xef\xbb\xbf"

# The longest price a chunk parses column-wise, in bytes, and the longest
# ticker is 16; longer ones go through the per-row rules. A chunk's buffer
# holds _PAD bytes to spare on both sides, so that the 24 bytes before every
# line end and the 32 bytes after every line start can be read as words.
_PRICE_BYTES = 24
_PAD = 32

# _KEEP[L] keeps the first L bytes of a little-endian word.
_KEEP = np.array([(1 << 8 * length) - 1 for length in range(9)], np.uint64)
# _KEEP_TAIL[:, L] keeps the last L bytes of 24, as 3 little-endian words.
_KEEP_TAIL = np.where(np.arange(24) >= 24 - np.arange(25)[:, None], 255, 0).astype(np.uint8).view("<u8").T.copy()

# The decimal exponents q of the powers of ten the price conversion holds.
# Above 10**-290 the rounding error of the low part stays below 2**-106 of
# 10**q, and below 10**288 a mantissa under 2**64 cannot overflow.
_Q_MIN, _Q_MAX = -290, 288
_VELTKAMP = 2.0**27 + 1  # splits a double into two halves of at most 26 bits
# A conversion r + e within 2**-102 * r of the exact value rounds to r when
# |e| < h * _MARGIN, h being the power of two at or below r: the half gaps
# around r are h * 2**-53 (the one below a power of two is half of it).
_MARGIN = 2.0**-53 - 2.0**-97
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)
_WORK_ROWS = 19  # rows of _decimal_values' working array

# Days before month m (1-12) in a common year, and the month's length; 0 and
# 13 stand for every out-of-range month and give it no valid day.
_DAYS_BEFORE = np.array([0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 0])
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
# Days before January 1 of each year 0-9999 (the ordinal of its December 31
# before), and which years are leap years.
_YEARS = np.arange(10000)
_DAYS_BEFORE_YEAR = (_YEARS - 1) * 365 + (_YEARS - 1) // 4 - (_YEARS - 1) // 100 + (_YEARS - 1) // 400
_LEAP = (_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))
# XOR with "YYYY-MM-" read as a little-endian word leaves each digit's value
# in the digit bytes and 0 in the dash bytes (4 and 7) of a date.
_DATE_WORD = int.from_bytes(b"0000-00-", "little")
_DASH_BYTES = 0xFF0000FF00000000
_HIGH_NIBBLES = 0xF0F0F0F0F0F0F0F0
_ONES, _HIGH_BITS = 0x0101010101010101, 0x8080808080808080  # a 1 and a high bit in each byte
# The day less one of "DD" from the 16-bit little-endian word "DD" - "00",
# clipped to the last entry: 255 where DD is no day of a month.
_DAY_LESS_ONE = np.full(0x0A0A, 255, np.uint8)
_DAY_LESS_ONE[np.arange(1, 32) // 10 + np.arange(1, 32) % 10 * 256] = np.arange(31)


@dataclass
class ReturnPanel:
    """Daily log returns: N tickers by T-1 days (one less than prices).

    log_scale[k] is the largest |ln p| of row k's prices, which the rounding
    of its returns scales with; zeros when no prices are known. `dropped`
    names the companies that alignment left out.
    """

    tickers: list[str]
    dates: list[Date]
    returns: np.ndarray
    log_scale: np.ndarray | None = None
    dropped: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.log_scale is None:
            self.log_scale = np.zeros(len(self.tickers))


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


def parse_iso_date(text: str) -> Date:
    """Exactly YYYY-MM-DD in ASCII digits, a valid calendar date; else ValueError."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError("not YYYY-MM-DD: %r" % text)
    return Date(int(text[:4]), int(text[5:7]), int(text[8:]))


def _chunks(stream: BinaryIO) -> Iterator[tuple[bytearray, int, int]]:
    """The stream's bytes in chunks of whole lines, each line ending in "\\n": buffer[start:stop].

    Reads CHUNK_BYTES at a time into one reused buffer, with _PAD bytes
    to spare before start and _PAD + 1 after stop, and carries a
    cut line to the front of the next chunk. A chunk is valid until the next
    one is read. "\\r\\n" and a lone "\\r" become "\\n". A last line with no
    final newline comes last, as it is.
    """
    start = _PAD
    buf, stop = bytearray(start + CHUNK_BYTES + start + 1), start  # buf[start:stop] is carried
    while True:
        if len(buf) < stop + CHUNK_BYTES + start + 1:  # a line longer than a chunk
            buf = buf[:stop] + bytes(max(len(buf), CHUNK_BYTES + start + 1))
        with memoryview(buf) as view:
            got = stream.readinto(view[stop : stop + CHUNK_BYTES])
        if not got:
            break
        end = stop + got
        if buf.find(b"\r", stop, end) >= 0:
            data = bytes(buf[stop:end])
            while data.endswith(b"\r") and (more := stream.read(1)):  # "\r" | "\n" is one newline
                data += more
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            buf, end = buf[:stop] + data + bytes(start + 1), stop + len(data)
        cut = buf.rfind(b"\n", stop, end) + 1
        stop = end
        if cut:
            yield buf, start, cut
            buf[start : start + stop - cut] = buf[cut:stop]
            stop = start + stop - cut
    if stop > start:
        yield buf, start, stop


def _bytes_below(x: np.ndarray, byte: int) -> np.ndarray:
    """The high bit of each byte of x below `byte` <= 128, and maybe of bytes above such a byte."""
    return (x - byte * _ONES) & ~x & _HIGH_BITS


def _bytes_above(x: np.ndarray, byte: int) -> np.ndarray:
    """The high bit of each byte of x above `byte` < 128, and maybe of bytes above such a byte."""
    return ((x + (127 - byte) * _ONES) | x) & _HIGH_BITS


def _bytes_equal(x: np.ndarray, byte: int) -> np.ndarray:
    """The high bit of each byte of x equal to `byte`, and maybe of bytes above such a byte."""
    return _bytes_below(x ^ byte * _ONES, 1)


def _first_byte(x: np.ndarray, byte: int) -> np.ndarray:
    """The place 0-7 of the first byte equal to `byte` in each little-endian word of x; 8 where none is."""
    flags = _bytes_equal(x, byte)
    flags &= -flags  # the first one's high bit
    flags -= 1
    return np.bitwise_count(flags) >> 3


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Where each run of equal items of x, or of equal rows of a 2-d x, starts."""
    differs = x[1:] != x[:-1]
    if x.ndim > 1:
        differs = differs.any(axis=1)
    return np.flatnonzero(np.concatenate(([len(x) > 0], differs)))


def _expand(values: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """The value (or row) of each run, whose starts are given, on each of the n items."""
    return values if len(starts) == n else np.repeat(values, np.diff(starts, append=n), axis=0)


def _ordinals(date: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordinals of YYYY-MM-DD dates, and which are dates, from the 2 little-endian words at their byte 0.

    The year and month are read once per run of equal "YYYY-MM-" words, the day on every row.
    """
    ymd = date[:, 0]
    starts = _run_starts(ymd)
    x = ymd[starts] ^ _DATE_WORD
    # A byte holds a digit's value when it and it + 6 are both below 16.
    ok = ((x | x + 0x0606060606060606) & _HIGH_NIBBLES | x & _DASH_BYTES) == 0
    pairs = x * 10 + (x >> 8)  # two-digit values in bytes 0 and 2 (the year) and 5 (the month)
    year = np.minimum((pairs & 0xFF) * 100 + (pairs >> 16 & 0xFF), 9999).view(np.int64)
    month = np.minimum(pairs >> 40 & 0xFF, 13).view(np.int64)
    leap = _LEAP.take(year)
    before = _DAYS_BEFORE_YEAR.take(year) + _DAYS_BEFORE.take(month) + (leap & (month > 2)) + 1
    days = (_MONTH_DAYS.take(month) + (leap & (month == 2))) * (ok & (year >= 1))  # 0: no day is valid
    day = _DAY_LESS_ONE.take(date.view("<u2")[:, 4] - 0x3030, mode="clip")  # "DD", bytes 8-9
    n = len(ymd)
    return _expand(before, starts, n) + day, day < _expand(days.astype(np.uint8), starts, n)


@cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**q for q from _Q_MIN to _Q_MAX as hi + lo: the double nearest to it and the double nearest to the rest.

    Built from Python integers, whose true division rounds correctly, on first use.
    """
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    return np.array(hi), np.array(lo)


def _halves(x: np.ndarray, high: np.ndarray, low: np.ndarray) -> None:
    """Veltkamp's split into high and low: x = high + low exactly, each of at most 26 significant bits."""
    np.multiply(x, _VELTKAMP, out=high)
    np.subtract(high, x, out=low)
    high -= low
    np.subtract(x, high, out=low)


def _product_error(a: np.ndarray, b: np.ndarray, hi: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Dekker's product: a * b - hi exactly, into out, when hi = fl(a * b) and nothing leaves the normal range.

    Sums the products of the Veltkamp halves of a and b, largest first
    (numpy has no fused multiply-add), in scratch: four arrays shaped like
    a, apart from a, b and hi. out may be a or b.
    """
    ah, al, bh, bl = scratch
    _halves(a, ah, al)
    _halves(b, bh, bl)
    np.multiply(ah, bh, out=out)
    out -= hi
    ah *= bl
    out += ah
    bh *= al
    out += bh
    al *= bl
    out += al
    return out


def _decimal_values(tails: np.ndarray, length: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Price fields as doubles, and where each is certainly the double float() gives.

    tails[:, i] holds the 24 bytes that end field i as 3 little-endian words,
    and length[i] <= 24 is its length. A field is certified when it reads
    [digits][.digits][(e|E)[+|-]digits], with at least one digit before the
    exponent, at most 19 significant digits, its exponent part within its
    last 8 bytes, its value D * 10**q (D the digits as an integer) with q
    from _Q_MIN to _Q_MAX, and a rounding the error bound below decides.

    work is a uint64 array of _WORK_ROWS rows and at least len(length)
    columns that the conversion computes in; the values returned are a
    view into it. One serves every chunk: when each chunk allocated its
    own working arrays, the allocator gave their pages back to the system
    after every chunk and faulted them in again (about 50 thousand page
    faults in parsing 1.2M fields, a tenth of a second of system time).
    """
    u8, u56, u64 = np.uint64(8), np.uint64(56), np.uint64(64)
    w = work[:, : len(length)]
    fields, dot, digits, rows = w[0:3], w[3:6], w[6:9], w[9:13]
    e, from_e, after_e, minus, signs, before_e = w[13:19]

    np.take(_KEEP_TAIL, length, axis=1, out=dot, mode="clip")
    np.bitwise_and(tails, dot, out=fields)
    b = fields.view(np.uint8)
    # Bytes of the last word: its first e or E, the bytes from it on, and a sign right after it.
    b2 = b[2]
    np.bitwise_or(b2, np.uint8(32), out=minus.view(np.uint8))
    np.equal(minus.view(np.uint8), 101, out=e.view(np.bool_))
    np.negative(e, out=from_e)
    np.bitwise_and(e, from_e, out=after_e)
    after_e <<= u8
    np.equal(b2, 45, out=minus.view(np.bool_))
    minus &= after_e
    np.equal(b2, 43, out=signs.view(np.bool_))
    signs &= after_e
    signs |= minus
    np.invert(from_e, out=before_e)
    np.equal(b, 46, out=dot.view(np.bool_))
    np.subtract(b, np.uint8(48), out=digits.view(np.uint8))
    digit = np.less(digits.view(np.uint8), 10, out=rows[:3].view(np.bool_))
    n_digits = np.bitwise_count(rows[:3])
    np.multiply(digits.view(np.uint8), digit.view(np.uint8), out=digits.view(np.uint8))  # 0 in every other byte

    # The mantissa's bytes from its first dot on, none without one: -dot across the 3 words.
    from_dot = np.invert(dot, out=fields)
    from_dot[0] += np.uint64(1)
    carry = dot[0] == 0
    from_dot[1] += carry
    carry &= dot[1] == 0
    from_dot[2] += carry
    from_dot[2] &= before_e
    n_from_dot = np.bitwise_count(from_dot)
    n_from_dot = (n_from_dot[0] + n_from_dot[1] + n_from_dot[2]) >> 3  # the dot and the fraction digits
    n_dot = n_from_dot != 0
    n_exponent = np.bitwise_count(from_e) >> 3
    n_e, n_sign = (n_exponent != 0).view(np.uint8), np.bitwise_count(signs)
    n_shift = n_exponent + n_dot
    length = length.astype(np.uint8)
    ok = n_digits[0] + n_digits[1] + n_digits[2] + n_dot + n_e + n_sign == length  # no other byte
    ok &= (length > n_shift) & (n_shift <= 8) & (n_exponent >= 2 * n_e + n_sign)  # digits on both sides of e

    # Rows 0-2: the mantissa digits without the dot, ending at the last byte; row 3: the exponent digits.
    np.bitwise_and(digits[2], from_e, out=rows[3])
    digits[2] &= before_e
    # The fraction moves down one byte, over the dot, then the whole mantissa up past the exponent part.
    fraction = np.bitwise_and(digits, from_dot, out=dot)
    digits ^= fraction
    np.left_shift(fraction[1:], u56, out=fields[:2])
    digits[:2] |= fields[:2]
    fraction >>= u8
    digits |= fraction
    shift = np.left_shift(n_shift, np.uint8(3), out=e)
    np.left_shift(digits, shift, out=rows[:3])
    np.subtract(u64, shift, out=shift)
    np.right_shift(digits[:2], shift, out=fields[:2])
    rows[1:3] |= fields[:2]
    # Eight digits per word, the first in the lowest byte, to an integer.
    low = w[0:4]
    np.right_shift(rows, u8, out=low)
    rows *= np.uint64(10)
    rows += low
    np.right_shift(rows, np.uint64(16), out=low)
    low &= np.uint64(0x000000FF000000FF)
    low *= np.uint64(1 + (10000 << 32))
    rows &= np.uint64(0x000000FF000000FF)
    rows *= np.uint64(100 + (1000000 << 32))
    rows += low
    rows >>= np.uint64(32)
    d = np.multiply(rows[0], np.uint64(10**8), out=w[4])
    d += rows[1]
    d *= np.uint64(10**8)
    d += rows[2]
    d *= rows[0] < 1000  # over 19 significant digits: 0, which is not certified
    q = rows[3].view(np.int64)
    np.negative(q, out=q, where=minus != 0)
    q += n_dot
    q -= n_from_dot
    q -= _Q_MIN
    ok &= q.view(np.uint64) <= _Q_MAX - _Q_MIN

    # D = dh + dl with dl the rounding error of dh, and 10**q = ph + pl to
    # within 2**-106 of it. lo sums dl * ph and dh * pl, each below 2**-53 hi,
    # then the error of hi = dh * ph, which Dekker's product finds exactly.
    # Dropping dl * pl and the table's error, and rounding the two products,
    # each err by under 2**-106 hi, and the two sums by 2 and 3 times that:
    # 9 * 2**-106 < 2**-102 of r in all. Products below the normal range err
    # by under 2**-1074, less than 2**-111 of 10**_Q_MIN. r = hi + lo
    # rounded, and err its exact error.
    ph, pl, dh, lo, hi, t, r, err, h = (  # rows 4 (D) and 12 (q) are still in use
        w[i].view(np.float64) for i in (0, 1, 2, 3, 5, 10, 13, 14, 15)
    )
    table_hi, table_lo = _powers_of_ten()
    np.take(table_hi, q, mode="clip", out=ph)
    np.take(table_lo, q, mode="clip", out=pl)
    dh[...] = d
    t.view(np.uint64)[...] = dh
    d -= t.view(np.uint64)
    lo[...] = d.view(np.int64)
    lo *= ph
    pl *= dh
    lo += pl
    np.multiply(dh, ph, out=hi)
    lo += _product_error(dh, ph, hi, t, w[6:10].view(np.float64))
    np.add(hi, lo, out=r)
    np.subtract(r, hi, out=err)
    np.subtract(lo, err, out=err)
    np.bitwise_and(r.view(np.uint64), _EXPONENT_BITS, out=h.view(np.uint64))
    ok &= (r > h) | (err >= 0)  # below a power of two the half gap is smaller
    np.abs(err, out=err)
    h *= _MARGIN
    ok &= err < h  # D = 0 gives h = 0
    return r, ok


def ascii_decimal(text: str) -> str:
    """text if it has no "_" and is ASCII, else ValueError: float() and int() alone take "1_0" and non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError("not an ASCII decimal number: %r" % text)
    return text


def parse_price_table(source: str | BinaryIO) -> ParseResult:
    """Parse CSV price records, a string or a binary file, into a grid.

    The header row is required and must name the columns date, ticker
    and close once each; they are looked up by name, and other columns
    are ignored. Rows with unparseable dates, empty tickers, tickers that
    begin with `#` or hold `,`, `"`, `\\` or an ASCII control character,
    unparseable, non-finite or non-positive prices, positive prices that
    underflow to 0, or a field count other than the header's are rejected
    with a diagnostic naming the line the record starts on; a duplicate
    (ticker, date) pair is an error, not a rejection, naming the first
    line that repeats one. Invalid UTF-8 raises UnicodeDecodeError.

    A string is read as its UTF-8 bytes. Under the header
    `date,ticker,close` the bytes are read in chunks of whole lines; a
    line of printable ASCII with a YYYY-MM-DD date, a ticker of up to 16
    bytes and a price of up to 24 is parsed column-wise. Its price is
    converted in numpy to the double float() gives, bit for bit, when it
    reads [digits][.digits][(e|E)[+|-]digits] with at most 19 significant
    digits and a decimal exponent the conversion's table holds (see
    _decimal_values). Every other line, and every line whose price the
    conversion does not certify, goes through csv.reader and the per-row
    rules, in line order. Any other header, or a `"` in a chunk, sends the
    rest through csv.reader. The result does not depend on where the
    chunks split.
    """
    code_of_ticker: dict[str, int] = {}  # accepted tickers, a grid row each, in the order first met
    first_lines: list[int] = []  # each landed row's first accepted line
    known_keys = np.empty(0, "S16")  # take_chunk's ticker keys so far, sorted, and their codes
    known_codes = np.empty(0, np.int64)
    days = np.empty(0, np.int64)  # the accepted dates' ordinals, a grid column each, in the order first met
    by_day = sorted_days = days  # the columns in date order, and their dates
    ordinal_of_text: dict[str, int] = {}  # each distinct date text parsed once; 0 if unparseable
    grid = np.empty((0, 0))  # prices by row and column, NaN where no record; grown by doubling
    staged: list[tuple[int, int, int, float]] = []  # take_row's records: row, ordinal, line and price
    duplicate = ""  # the error that names the first record that repeats one
    rejected: list[RejectedRow] = []
    work = np.empty((_WORK_ROWS, 0), np.uint64)

    def reject(line_number: int, reason: str, row: list[str]) -> None:
        rejected.append(RejectedRow(line_number, reason, ",".join(row)))

    def take_row(line_number: int, row: list[str]) -> None:
        """The per-row rules: stage the record or reject the row."""
        if not row:
            return
        if len(row) != width:
            reject(line_number, "expected %d fields, got %d" % (width, len(row)), row)
            return
        date_text, ticker, price_text = (field.strip(ASCII_WHITESPACE) for field in pick(row))
        ordinal = ordinal_of_text.get(date_text)
        if ordinal is None:
            try:
                ordinal = parse_iso_date(date_text).toordinal()
            except ValueError:
                ordinal = 0
            ordinal_of_text[date_text] = ordinal
        if not ordinal:
            reject(line_number, "unparseable date %r" % date_text, row)
            return
        code = code_of_ticker.get(ticker)
        if code is None and (not ticker or BAD_TICKER.search(ticker)):
            reason = "unparseable ticker %r" % ticker if ticker else "empty ticker"
            reject(line_number, reason, row)
            return
        try:
            price = float(ascii_decimal(price_text))
        except ValueError:
            reject(line_number, "unparseable price %r" % price_text, row)
            return
        if not (price > 0 and math.isfinite(price)):
            if not math.isfinite(price):
                reason = "non-finite price %s"
            elif price == 0 and math.copysign(1, price) > 0 and price_text.lower().partition("e")[0].strip("+.0"):
                reason = "price %s underflows to 0"  # a positive value below the smallest double
            else:
                reason = "non-positive price %s"
            reject(line_number, reason % price_text, row)
            return
        if code is None:
            code = code_of_ticker[ticker] = len(code_of_ticker)
        staged.append((code, ordinal, line_number, price))

    def take_rows(reader, lines: Sequence[int]) -> None:
        """take_row on each record of a csv.reader whose k-th line read, from 0, is line lines[k] of the file."""
        read = reader.line_num  # the lines read so far: the next record starts on lines[read]
        try:
            for row in reader:
                take_row(lines[read], row)
                read = reader.line_num
        except csv.Error as err:  # such as a field over csv.field_size_limit()
            raise FormatError("line %d: %s" % (lines[read], err)) from None

    def add_days(new: np.ndarray) -> None:
        """New grid columns for the given dates, which are sorted and new."""
        nonlocal days, by_day, sorted_days
        days = np.concatenate([days, new])
        by_day = np.argsort(days)
        sorted_days = days[by_day]

    def columns_of(ordinals: np.ndarray) -> np.ndarray:
        """The grid column of each date, adding columns for dates not met before."""
        starts = _run_starts(ordinals)  # a lookup per run of equal dates
        distinct = ordinals[starts]
        at = np.searchsorted(sorted_days, distinct)
        seen = sorted_days.take(at, mode="clip") == distinct if len(days) else np.zeros(len(at), bool)
        if not seen.all():
            new = np.sort(distinct[~seen])  # not np.unique, which imports numpy.ma (~1.5 MB of resident memory)
            add_days(new[_run_starts(new)])
            at = np.searchsorted(sorted_days, distinct)
        return _expand(by_day[at], starts, len(ordinals))

    def land(codes=None, ordinals=None, lines=None, prices=None) -> None:
        """Write the staged rows and the given column-wise ones into the grid, unless one repeats a record.

        The given rows are in line order, and so are the staged ones; only
        when both are there are they merged by line.
        """
        nonlocal grid, duplicate
        if staged:
            dtypes = (np.int64, np.int64, np.int64, np.float64)
            slow = [np.array(column, dtype) for column, dtype in zip(zip(*staged), dtypes)]
            staged.clear()
            if codes is None:
                codes, ordinals, lines, prices = slow
            else:  # the column-wise rows and take_row's, merged
                merged = [np.concatenate(pair) for pair in zip((codes, ordinals, lines, prices), slow)]
                by_line = np.argsort(merged[2], kind="stable")
                codes, ordinals, lines, prices = (column[by_line] for column in merged)
        if codes is None or not len(codes) or duplicate:
            return
        known = len(first_lines)
        if len(code_of_ticker) > known:  # new tickers, each with a record here: their first lines
            new = codes >= known
            first = np.full(len(code_of_ticker) - known, lines[-1])
            np.minimum.at(first, codes[new] - known, lines[new])
            first_lines.extend(first.tolist())
        columns = columns_of(ordinals)
        need = (len(code_of_ticker), len(days))
        grow = [0 if n <= size else max(n - size, size) for n, size in zip(need, grid.shape)]  # doubling
        if any(grow):
            grid = np.pad(grid, [(0, extra) for extra in grow], constant_values=np.nan)
        cells = codes * grid.shape[1] + columns
        repeats = ~np.isnan(grid.take(cells))  # filled by earlier landings, which hold earlier lines
        if not repeats.any():
            # Each record puts its position into its cell and reads the cell back:
            # one that reads another position shares its cell with that record.
            positions = np.arange(len(cells), dtype=np.float64)
            grid.put(cells, positions)
            if np.array_equal(grid.take(cells), positions):
                grid.put(cells, prices)
                return
        order = np.argsort(cells, kind="stable")  # each cell's lines in line order
        repeats[order[1:][cells[order[1:]] == cells[order[:-1]]]] = True  # or by an earlier line here
        k = int(np.argmax(repeats))
        ticker, day = list(code_of_ticker)[codes[k]], Date.fromordinal(int(ordinals[k]))
        duplicate = "duplicate record for (%s, %s) at line %d" % (ticker, day, lines[k])

    def text_lines(chunks: Iterable[tuple[bytearray, int, int]]) -> Iterator[str]:
        """The chunks' lines as strict UTF-8 text, each with its "\\n"; lands the staged rows before each chunk."""
        for buf, lo, hi in chunks:
            land()
            for line in buf[lo:hi].splitlines(keepends=True):  # "\n" is the only line end left
                yield line.decode("utf-8")

    def codes_of(keys: np.ndarray) -> np.ndarray:
        """The codes of take_chunk's sorted ticker keys; the keys no earlier chunk met are decoded and coded."""
        nonlocal known_keys, known_codes
        at = np.searchsorted(known_keys, keys)
        if len(known_keys):
            near = np.minimum(at, len(known_keys) - 1)
            codes, new = known_codes[near], known_keys[near] != keys
        else:
            codes, new = np.zeros(len(keys), np.int64), np.ones(len(keys), bool)
        if new.any():
            halves = keys[new].view(">u8").reshape(-1, 2).tolist()
            names = [(low.to_bytes(8, "little") + high.to_bytes(8, "little")).rstrip(b"\0") for high, low in halves]
            codes[new] = [code_of_ticker.setdefault(name.decode(), len(code_of_ticker)) for name in names]
            known_keys = np.insert(known_keys, at[new], keys[new])
            known_codes = np.insert(known_codes, at[new], codes[new])
        return codes

    def take_chunk(line_number: int, buf: bytearray, lo: int, hi: int) -> int:
        """Parse buf[lo:hi]: plain lines column-wise, the rest with take_row; land them. The next line number."""
        nonlocal work
        if buf[hi - 1] != 10:
            buf[hi] = 10  # the last line of a file with no final newline
            hi += 1
        size = hi - lo
        a = np.frombuffer(buf, np.uint8, size + _PAD, lo)
        body = a[:size]
        words = np.ndarray((size + 24,), "<u8", buf, lo, (1,))  # the 8 bytes from each byte on
        pairs = np.ndarray((size + 16,), "V16", buf, lo, (1,))  # the 16 bytes from each byte on
        tails = np.ndarray((size,), "V24", buf, lo - 24, (1,))  # the 24 bytes before each byte
        ends = np.flatnonzero(body == 10)  # each line's newline
        n = len(ends)
        starts = np.empty_like(ends)
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        # A plain line is YYYY-MM-DD,ticker,price. Its date's bytes are checked
        # with their value and its price's by the conversion. Its ticker holds
        # 1-16 bytes, none of them a comma, below "!", above "~" or "\\", and
        # does not begin with "#". Line bytes 8-10 end the date with a comma, and
        # a ticker's bytes 0-7 and 8-15 start at line bytes 11 and 19; the
        # second word is read only on lines with no comma in the first.
        date = pairs[starts].view("<u8").reshape(-1, 2)
        odd_bytes = body.max() > 126 or buf.find(b"\\", lo, hi) >= 0

        def ticker_word(word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The bytes before the word's first comma, kept in place, and how many; nonzero where one is bad."""
            length = _first_byte(word, 44)
            bad = _bytes_below(word, 33)
            if odd_bytes:
                bad |= _bytes_above(word, 126) | _bytes_equal(word, 92)
            keep = _KEEP.take(length)
            bad &= keep
            word &= keep
            return length, bad

        low = words[starts + 11]
        ticker_len, bad = ticker_word(low)
        high = np.zeros(n, np.uint64)
        longer = np.flatnonzero(ticker_len == 8)
        if len(longer):
            at = starts[longer] + 19
            second = words[at]
            second_len, second_bad = ticker_word(second)
            second_bad |= (second_len == 8) & (a[at + 8] != 44)  # 16 bytes and no comma after them
            ticker_len[longer] += second_len
            bad[longer] |= second_bad
            high[longer] = second
        price_len = ends - starts
        price_len -= 12
        price_len -= ticker_len
        plain = (bad == 0) & (ticker_len != 0) & (date[:, 1] & 0xFF0000 == 0x2C0000) & (low & 0xFF != ord("#"))
        plain &= (price_len >= 1) & (price_len <= _PRICE_BYTES)
        if csv.field_size_limit() < size:
            plain &= ends - starts <= csv.field_size_limit()

        # Every line is converted, and the lines the checks pass are kept.
        ordinals, ok = _ordinals(date)
        if n > work.shape[1]:
            work = np.empty((_WORK_ROWS, n), np.uint64)
        closes, exact = _decimal_values(tails[ends].view("<u8").reshape(-1, 3).T, price_len, work)
        ok &= plain
        ok &= exact  # the per-row rules judge the rest, such as "n/a", "0" or "1e999"
        if ok.all():
            k = np.arange(n)
        else:  # one csv.reader over the other lines, each a record: the chunk holds no quote
            k = np.flatnonzero(ok)
            low, high, ordinals, closes = (column.take(k) for column in (low, high, ordinals, closes))
            rest = np.flatnonzero(~ok)
            spans = zip((starts[rest] + lo).tolist(), (ends[rest] + lo + 1).tolist())
            texts = (buf[start:stop].decode("utf-8") for start, stop in spans)  # decoded as the reader reads
            take_rows(csv.reader(texts), (rest + line_number).tolist())

        # Keys hold a ticker's bytes 8-15 and 0-7 as big-endian words, in that
        # order, so that they sort as bytes 0-7 alone when no ticker is longer.
        if high.any():
            keys = np.stack([high, low], axis=1)
            runs = _run_starts(keys)  # a lookup per run of equal tickers
            keys, tickers = np.unique(keys[runs].astype(">u8").view("S16").ravel(), return_inverse=True)
        else:
            runs = _run_starts(low)
            keys, tickers = np.unique(low[runs], return_inverse=True)
            keys = np.stack([np.zeros_like(keys), keys], axis=1).astype(">u8").view("S16").ravel()
        land(_expand(codes_of(keys)[tickers], runs, len(k)), ordinals, k + line_number, closes)
        return line_number + n

    chunks = _chunks(io.BytesIO(source.encode("utf-8")) if isinstance(source, str) else source)
    buf, lo, hi = next(chunks, (b"", 0, 0))
    if buf.startswith(_BOM, lo, hi):
        lo += len(_BOM)
    if lo == hi:
        raise FormatError("missing header row")
    cut = buf.find(b"\n", lo, hi) + 1 or hi
    if buf[lo:cut] in (_PLAIN_HEADER, _PLAIN_HEADER + b"\n"):
        width, pick = len(COLUMNS), itemgetter(0, 1, 2)
        chunks = chain([(buf, cut, hi)], chunks)
    else:
        reader = csv.reader(text_lines(chain([(buf, lo, hi)], chunks)))
        try:
            header = next(reader)
        except csv.Error as err:
            raise FormatError("line 1: %s" % err) from None
        names = [h.strip(ASCII_WHITESPACE) for h in header]
        if any(names.count(c) != 1 for c in COLUMNS):
            raise FormatError("malformed header: expected date, ticker, close once each, got %r" % (header,))
        width, pick = len(header), itemgetter(*(names.index(c) for c in COLUMNS))
        take_rows(reader, range(1, sys.maxsize))  # which reads every chunk

    line_number = 2
    for buf, lo, hi in chunks:
        if buf.find(b'"', lo, hi) >= 0:  # a quoted field can span lines: csv.reader reads the rest
            take_rows(csv.reader(text_lines(chain([(buf, lo, hi)], chunks))), range(line_number, sys.maxsize))
            break
        if lo < hi:
            line_number = take_chunk(line_number, buf, lo, hi)
    land()
    del work  # before the result, which with the grid sets the parse's peak memory

    if duplicate:
        raise DuplicateRecordError(duplicate)
    rows = np.argsort(first_lines)  # tickers by first accepted line
    prices = grid[np.ix_(rows, by_day)]
    tickers = sorted(code_of_ticker, key=lambda ticker: first_lines[code_of_ticker[ticker]])
    dates = [Date.fromordinal(day) for day in sorted_days.tolist()]
    return ParseResult(tickers, dates, prices, rejected)


def align_and_filter(parsed: ParseResult, period: tuple[Date, Date]) -> ReturnPanel:
    """Daily log returns of the companies complete over the period.

    The trading-day axis is the parsed dates inside the inclusive period.
    Companies missing any axis date are left out and named in `dropped`.
    r[i][t] = ln p[i][t+1] - ln p[i][t], dated by day t+1.
    """
    shape = (len(parsed.tickers), len(parsed.dates))
    if parsed.prices.shape != shape:
        raise FormatError("price matrix shape %s does not match %d tickers x %d dates" % (parsed.prices.shape, *shape))
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
    if hi - lo < 3:
        raise InsufficientDataError("panel needs at least 3 trading days")
    if len(set(kept)) != len(kept):
        raise FormatError("duplicate tickers in panel")
    logs = block[complete]  # a copy, which becomes the logs in place
    if not np.all(logs > 0):
        raise FormatError("panel contains non-positive prices")
    np.log(logs, out=logs)
    log_scale = np.abs(logs).max(axis=1)
    dropped = [t for t, ok in zip(parsed.tickers, complete) if not ok]
    return ReturnPanel(kept, parsed.dates[lo + 1 : hi], np.diff(logs, axis=1), log_scale, dropped)

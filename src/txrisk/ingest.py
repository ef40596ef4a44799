"""Residential service operation dataset: CSV ingestion and a seeded
synthetic generator for desk-scale studies.

File formats (UTF-8, comma separated, header row mandatory, ISO dates):

* ``weather.csv``  -- ``date,hour,temp_c`` with hour 0..23
* ``meter.csv``    -- ``service_id,date,hour,kw`` (interval meters)
* ``calendar.csv`` -- ``date,is_weekday,is_holiday`` with Y/N values

Metered kW is treated as kVA at unity power factor. :func:`load_dataset`
returns the days as one record table: a numpy structured array with a row
per (service, date) and a field per column, the service and the date as
integer codes into sorted tables; the weather is kept once per date, and
each meter day's 24 loads once, as a row of the meter grid.

Every input table (these three files and the query file of
:func:`txrisk.estimation.read_query_csv`) is read by :func:`read_columns`,
with one ``(scan, complaint)`` rule per kind of column: date codes,
service-id codes, hours, numbers within a range and Y/N flags. The scan,
the one converter of its kind, reads a column whole and marks the fields
it refuses, which ``complaint`` words from their text. It reads what
``int`` (hours) or ``float`` (numbers) reads: common spellings as arrays
(see :func:`_numbers`), others by the builtin, a field at a time. A file
is read once, as bytes, 256 KiB of whole lines at a time, and a block's
fields found from the positions of commas and line feeds. A block that
holds a quote, a carriage return not before a line feed, a NUL, a line
without the header's column count or longer than the csv field limit, or a
field that a scan refuses goes to the per-row code, as does a header line
not spelled exactly; UTF-8 text outside ASCII does not. The per-row code
reads the rows with the csv module, lays each column out for the same
scans, and reports the first fault with its row and column; the scan takes
over again at the first block end where a row ends. Checks across rows (a
third reading of an hour, a calendar date listed twice) run over whole
columns. :func:`load_dataset` gives each date one code in all three files
and joins the days on integer codes.

Every CSV table the package writes goes through :func:`write_table` (of
:mod:`txrisk.tables`), which takes columns of numbers and text.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataGapWarning,
    EmptyIntersectionError,
    MissingProfileError,
    ParseError,
    ShortCoverageWarning,
)
from .tables import write_table

WEATHER_HEADER = ["date", "hour", "temp_c"]
METER_HOURLY_HEADER = ["service_id", "date", "hour", "kw"]
# A revenue meter's daily energy, refused: clustering needs 24-hour profiles.
METER_ENERGY_HEADER = ["service_id", "date", "energy_kwh"]
CALENDAR_HEADER = ["date", "is_weekday", "is_holiday"]

TEMP_MIN_C, TEMP_MAX_C = -60.0, 60.0
# The most a meter reading (kW, taken as kVA) or a query's mean load may
# be: far past any residential service, which draws tens of kW at most,
# and far inside the float range for any sum or mean of readings.
LOAD_MAX_KW = 1e6
# Days missing at most this many hourly readings are linearly interpolated;
# days missing more are dropped with a warning.
MAX_INTERPOLATED_HOURS = 2


@dataclass
class Dataset:
    """The record table of :func:`load_dataset`: its sorted service ids and
    ISO dates, which the table's ``service`` and ``day`` fields index, the
    ``(len(dates), 24)`` hourly ambient temperatures of each date, and the
    ``(meter days, 24)`` hourly loads (kVA) of the meter days, which the
    table's ``load_row`` field indexes."""

    records: np.ndarray
    services: tuple[str, ...]
    dates: tuple[str, ...]
    ambient: np.ndarray
    load: np.ndarray


def iso_date(text: str) -> dt.date:
    """The date spelled ``YYYY-MM-DD``, and only that spelling: Python
    3.11's ``date.fromisoformat`` also takes ``20150103`` and ``2015-W02-1``.

    Raises:
        ValueError: any other text.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


# The block scan reads a file this many bytes at a time, cut at a line
# end. On a 40 x 730 input (a 17 MB meter file), load_dataset took a best
# of 0.19 s at 256 KiB against 0.22 s at 64 KiB and 0.21 s at 1 MiB, with
# tracemalloc peaks of 14.5, 14.6 and 22.8 MiB (VmHWM 49.9, 49.9 and
# 58.8 MB); a 20,000-row query file read in a median 26 ms against 32 ms
# at 64 KiB (2-CPU Xeon, Python 3.11, numpy 2.4).
_BLOCK_BYTES = 1 << 18


def _open(path):
    """The file ``path`` opened to read bytes."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot open file: {exc}", path=path) from exc


def _byte_blocks(fh):
    """The rest of the binary file ``fh`` in blocks of whole lines, each
    block ending in a line feed, or a carriage return not before one, but
    the last, which ends where the file does."""
    carry = b""
    while chunk := fh.read(_BLOCK_BYTES):
        data = carry + chunk
        lf = data.rfind(b"\n")
        # A last byte \r may be the first of a \r\n.
        cut = max(lf, data.rfind(b"\r", lf + 1, -1)) + 1
        if cut:
            yield data[:cut]
        carry = data[cut:]
    if carry:
        yield carry


def _block_fields(block, width):
    """A block of lines as a ``uint8`` array of its bytes and the start and
    length of each field, two ``(width, lines)`` int32 arrays, or None
    unless the csv module would read each line as its split at commas: the
    block holds a quote, a NUL (csv before Python 3.11 refuses it) or a
    carriage return not before a line feed, or a line without ``width``
    fields or longer than the csv field limit, or the block is 2 GiB or
    longer (one long line). A line feed ends the last line too; carriage
    returns before line feeds are dropped. UTF-8 never places a comma or
    line-feed byte inside a character, so other text splits the same way;
    each column rule declines a field that is not UTF-8."""
    if b'"' in block or b"\0" in block or len(block) >= 1 << 31:
        return None
    if not block.endswith(b"\n"):
        block += b"\n"
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):
            return None
        block = block.replace(b"\r\n", b"\n")
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    n = len(ends)
    if len(commas) != (width - 1) * n:
        return None
    commas = commas.reshape(n, width - 1)
    starts = np.empty((width, n), np.int32)
    starts[0, 0] = 0
    starts[0, 1:] = ends[:-1] + 1
    # Both positions are sorted, so with the count right, a line with its
    # first comma after its start and its last before its end has exactly
    # width - 1 of them.
    if ((commas[:, 0] < starts[0]).any() or (commas[:, -1] > ends).any()
            or (ends - starts[0]).max() > csv.field_size_limit()):
        return None
    starts[1:] = commas.T + 1
    lens = np.empty_like(starts)
    lens[:-1] = commas.T - starts[:-1]
    lens[-1] = ends - starts[-1]
    return buf, starts, lens


def _records(path, data, blocks, first):
    """The csv records of ``data``, whole lines of the file ``path`` from
    its row ``first``, as ``(row, fields)``: to the end of ``data`` or, while
    a record is open there (a quoted line feed), of each next block of
    ``blocks``. Each line is decoded when the csv reader reaches it; text
    that is not UTF-8, or that csv refuses, is a ParseError naming its row."""
    end = 0  # the lines handed to the csv reader so far

    def text():
        nonlocal end
        for block in chain((data,), blocks):
            lines = block.splitlines(keepends=True)
            end += len(lines)
            yield from map(bytes.decode, lines)

    reader = csv.reader(text())
    row = first - 1  # the last row read
    try:
        for row, fields in enumerate(reader, first):
            yield row, fields
            if reader.line_num == end:
                return
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable CSV text: {exc}", path=path,
                         row=row + 1) from None


def _header(records, headers, path):
    """The first of ``records``, a header, which must be one of ``headers``."""
    _, header = next(records, (1, None))
    if header not in headers:
        raise ParseError(f"unexpected header {header!r}; expected one of "
                         f"{[','.join(h) for h in headers]}", path=path, row=1)
    return header


# Column scans. Each takes a ``uint8`` array of bytes and one column's
# field starts and lengths in it, each field followed by a byte, and gives
# the column's values and a mask of the fields it refuses.
def _fixed(buf, starts, length):
    """The ``length``-byte fields at ``starts`` as an ``S{length}`` array."""
    return np.ndarray((len(buf) - length + 1,), f"S{length}", buf, 0,
                      (1,))[starts]


def _by_length(lens):
    """``(length, rows)`` for each nonzero field length in ``lens``.
    (``np.unique`` would import ``numpy.ma`` on its first call, 15 ms.)"""
    if lens.min() == lens.max():
        return [(int(lens[0]), slice(None))] if lens[0] else []
    return [(length, np.flatnonzero(lens == length))
            for length in np.flatnonzero(np.bincount(lens)).tolist() if length]


def _builtin(convert, raw, refused):
    """``convert`` (``int`` or ``float``) of the UTF-8 text of the field
    bytes ``raw``, or ``refused`` where the decoding or ``convert`` refuses
    it."""
    try:
        return convert(str(raw, "utf-8"))
    except ValueError:  # UnicodeDecodeError is one
        return refused


def _hours(buf, starts, lens):
    """Each field's hour as ``int`` reads it, refused unless in 0..23: one
    or two ASCII digits as arrays, any other spelling (``005``, `` 5``,
    ``+5``, ``١``) by ``int``, a field at a time."""
    two = lens == 2
    # Bytes below "0" wrap above 9; an empty last field has no next byte.
    first = buf[starts] - ord("0")
    second = np.take(buf, starts + 1, mode="clip") - ord("0")
    hours = np.where(two, 10 * first.astype(np.int64) + second, first)
    for i in np.flatnonzero(~(two | (lens == 1)) | (first > 9)
                            | (two & (second > 9))).tolist():
        hour = _builtin(int, buf[starts[i]:starts[i] + lens[i]], -1)
        hours[i] = hour if 0 <= hour <= 23 else -1
    return hours, (hours < 0) | (hours > 23)


def _hour_complaint(text):
    hour = _builtin(int, text.encode(), None)
    return (f"bad hour {text!r}" if hour is None
            else f"hour {hour} outside 0..23")


# 10.0 ** i for the exponents of the exact decimal path: each is a double
# exactly, as is every integer up to 2 ** 53.
_POW10 = [float(10 ** i) for i in range(23)]


def _numbers(buf, starts, lens):
    """Each field's value as ``float`` reads it, NaN where it refuses one.

    Fields of one length spelled ``[-]digits[.digits]``, with the dot (if
    any) at one place in all of them, are read exactly: the digits give an
    integer mantissa ``m`` and the dot the power of ten ``10 ** f``; with
    ``m <= 2 ** 53`` and ``f <= 22`` both are doubles exactly, so the one
    correctly rounded division ``m / 10 ** f`` is ``float``'s value (the
    fast path of Clinger's 1990 algorithm). A ``-`` negates it, so ``-0.0``
    keeps its sign. The fields of any other length go to an ``S``-array's
    ``astype``, which reads ASCII text as ``float`` does. A field that
    ``astype`` cannot read, one with a byte outside ASCII (``float`` also
    reads ``١``) or a NUL (which an ``S`` array drops at a field's end),
    goes to ``float`` alone, and the rest of its length are read as above;
    where ``astype`` refuses one of those, each goes to ``float``.
    """
    values = np.full(len(starts), math.nan)
    for length, rows in _by_length(lens):
        values[rows] = _of_length(buf, starts[rows], length)
    return values


def _of_length(buf, starts, length):
    """The values of :func:`_numbers` for the ``length``-byte fields at
    ``starts``."""
    exact = _decimals(buf, starts, length)
    if exact is not None:
        return exact
    texts = _fixed(buf, starts, length)
    codes = texts.view(np.uint8).reshape(len(starts), length)
    odd = ((codes == 0) | (codes > 127)).any(axis=1)
    if odd.any() and not odd.all():  # each part read on its own
        exact = np.empty(len(starts))
        for part in (odd, ~odd):
            exact[part] = _of_length(buf, starts[part], length)
        return exact
    if not odd.any():
        try:
            return texts.astype(np.float64)
        except ValueError:
            pass
    return [_builtin(float, buf[start:start + length], math.nan)
            for start in starts.tolist()]


def _decimals(buf, starts, length):
    """The ``length``-byte fields at ``starts`` read exactly, as
    :func:`_numbers` describes, or None unless each is spelled
    ``[-]digits[.digits]``, with its dot where the first field has it, its
    mantissa at most ``2 ** 53`` and at most 22 digits after the dot."""
    first = starts[0]
    dot = buf[first:first + length].tobytes().find(b".")
    places = length - (dot >= 0)  # digits, or a sign and digits
    if not places or (dot >= 0 and length - 1 - dot > 22):
        return None
    lead = buf[starts]
    negative = lead == ord("-")
    signed = negative.any()
    if signed and places == 1:  # "-" or "-."
        return None
    mantissa = np.zeros(len(starts), np.int64)
    for j in range(length):
        if j == dot:
            if (buf[starts + j] != ord(".")).any():
                return None
            continue
        # Below 2 ** 53, ten times a mantissa and a digit fit an int64.
        if j >= 16 and mantissa.max() > 1 << 53:
            return None
        digits = (lead if j == 0 else buf[starts + j]) - ord("0")
        if j == 0 and signed:
            digits[negative] = 0
        if (digits > 9).any():  # bytes below "0" wrap above 9
            return None
        mantissa *= 10
        mantissa += digits
    if mantissa.max() > 1 << 53:
        return None
    values = mantissa / _POW10[length - 1 - dot if dot >= 0 else 0]
    if signed:
        np.negative(values, out=values, where=negative)
    return values


def _flags(buf, starts, lens):
    """``Y``/``N`` flags as a boolean column (``Y`` true); others refused."""
    codes = buf[starts]
    flags = codes == ord("Y")
    return flags, (lens != 1) | ~flags & (codes != ord("N"))


def run_heads(values):
    """The index of the first value of each run of equal values in the
    non-empty 1-D array ``values``."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _ranks(keys):
    """Each key's count of equal keys before it in the non-empty 1-D array
    ``keys``: its rank in a stable sort, less its run's first rank."""
    order = np.argsort(keys, kind="stable")
    heads = run_heads(keys[order])
    ranks = np.empty(len(keys), np.int64)
    ranks[order] = np.arange(len(keys)) - np.repeat(
        heads, np.diff(heads, append=len(keys)))
    return ranks


# Column rules: per kind of field, a ``(scan, complaint)`` pair. ``scan``
# is a column scan as above; ``complaint(text)`` is the message of the
# ParseError that reports a refused field, from its text.
def _code_rule(new, complaint):
    """The rule of a column of codes: ``new(text)`` gives the code of field
    bytes ``text`` not seen before, or -1 for a field refused with
    ``complaint`` (formatted with the field's text). A run of equal fields
    is looked up once, by its bytes as a ``V`` array, which keeps a NUL at
    the end that an ``S`` array drops."""
    table = {}  # field bytes -> code, -1 if refused

    def scan(buf, starts, lens):
        codes = np.full(len(starts), -1, np.int64)
        for length, rows in _by_length(lens):
            texts = _fixed(buf, starts[rows], length)
            heads = run_heads(texts)  # equal as S iff equal as V
            runs = texts[heads].view(f"V{length}").tolist()
            run_codes = list(map(table.get, runs))
            if None in run_codes:  # texts not seen before
                for text in runs:
                    if text not in table:
                        table[text] = new(text)
                run_codes = list(map(table.get, runs))
            codes[rows] = np.repeat(run_codes,
                                    np.diff(heads, append=len(texts)))
        return codes, codes < 0

    return scan, complaint.format


def date_rule(dates):
    """The rule of a date column: each field's code in ``dates``, a dict of
    ``datetime.date`` -> code that new dates join in the order read, so
    ``list(dates)`` gives the dates by code. Each spelling is read once."""
    def new(text):
        try:
            return dates.setdefault(iso_date(text.decode()), len(dates))
        except ValueError:
            return -1

    return _code_rule(new, "bad date {!r}")


def _service_rule(names):
    """The rule of a service-id column, codes in ``names`` as
    :func:`date_rule` gives them: any text but an empty or all-blank one
    (by ``str.strip``, which also strips ``\\x1c``..``\\x1f``), or one
    that is not UTF-8, which the per-row code reports at its row."""
    def new(text):
        try:
            name = text.decode()
        except UnicodeDecodeError:
            return -1
        return names.setdefault(name, len(names)) if name.strip() else -1

    return _code_rule(new, "blank service id {!r}")


def number_rule(lo=-math.inf, hi=math.inf, complaint="", above=None):
    """The rule of a column of finite numbers, read as ``float`` reads
    them, within ``[lo, hi]``; ``complaint`` (formatted with the value)
    reports one outside, or ``above``, if given, one above ``hi``."""
    def scan(buf, starts, lens):
        values = _numbers(buf, starts, lens)
        return values, ~(np.isfinite(values) & (lo <= values) & (values <= hi))

    def complain(text):
        value = _builtin(float, text.encode(), math.nan)
        if not math.isfinite(value):  # nan and inf are bad numbers too
            return f"bad number {text!r}"
        return (above if value > hi and above else complaint).format(value)

    return scan, complain


_HOUR_RULE = (_hours, _hour_complaint)
FLAG_RULE = (_flags, "flag must be Y or N, got {!r}".format)


def read_columns(path, header, rules):
    """The data rows of the CSV file ``path`` with header ``header`` as
    ``(first_row, columns)`` chunks of consecutive rows, one array per
    column as its entry of ``rules`` reads it.

    The file is read once, a block of :func:`_byte_blocks` at a time. A
    block whose fields :func:`_block_fields` finds and no column's scan
    refuses is a chunk; any other, and a header line not spelled exactly,
    goes to the per-row code, :func:`_row_columns`.
    """
    spelled = ",".join(header).encode()
    with _open(path) as fh:
        line = fh.readline(len(spelled) + 2)
        blocks = _byte_blocks(fh)
        first = 2
        if line not in (spelled, spelled + b"\n", spelled + b"\r\n"):
            first = yield from _row_columns(path, header, rules, 1, line
                                            + next(blocks, b""), blocks)
        for block in blocks:
            fields = _block_fields(block, len(header))
            # Starts made intp once: a scan indexes by them many times, and
            # an int32 index array is converted at every use.
            columns = fields and [scan(fields[0], starts.astype(np.intp), lens)
                                  for (scan, _), starts, lens in zip(
                                      rules, *fields[1:])]
            if columns and not any(refused.any() for _, refused in columns):
                columns = [values for values, _ in columns]  # masks freed
                yield first, columns
                first += len(columns[0])
                continue
            first = yield from _row_columns(path, header, rules, first, block,
                                            blocks)


def _laid_out(texts):
    """Field texts as a column scan takes them: their UTF-8 bytes, each
    followed by a line feed, and the start and length of each."""
    raw = [text.encode() for text in texts]
    lens = np.fromiter(map(len, raw), np.intp, len(raw))
    return (np.frombuffer(b"\n".join(raw) + b"\n", np.uint8),
            np.cumsum(lens + 1) - lens - 1, lens)


def _row_columns(path, header, rules, first, data, blocks):
    """The per-row code of :func:`read_columns`: the rows that
    :func:`_records` reads from ``data``, file row ``first`` (1: the header)
    on, as one chunk, each column read by its rule's scan. It alone reports
    a malformed row or field: at the first, by row and within a row the
    date before the other fields, it yields the rows before it, then
    raises, so that a caller's check across rows reports an earlier row
    first. Returns the number of the next row."""
    records = _records(path, data, blocks, first)
    if first == 1:
        _header(records, [header], path)
        first = 2
    rows, fault = [], None
    try:
        for i, fields in records:
            if len(fields) != len(header):
                raise ParseError(f"expected {len(header)} columns, got "
                                 f"{len(fields)}", path=path, row=i)
            rows.append(fields)
    except ParseError as exc:
        fault = exc
    texts = list(zip(*rows))
    columns = [scan(*_laid_out(column))
               for (scan, _), column in zip(rules, texts)]
    refusals = [(int(refused.argmax()), name != "date", j)
                for j, (name, (_, refused)) in enumerate(zip(header, columns))
                if refused.any()]
    end, _, j = min(refusals, default=(len(rows), False, None))
    if j is not None:
        fault = ParseError(rules[j][1](texts[j][end]), path=path,
                           row=first + end, column=header[j])
    if end:
        yield first, [values[:end] for values, _ in columns]
    if fault is not None:
        raise fault
    return first + end


# Per reading column: the hourly file, the plausible range of a reading
# and the complaints about one outside it and, if another, one above it
# (see number_rule).
_HOURLY_FILES = {
    "temp_c": ("weather", TEMP_MIN_C, TEMP_MAX_C,
               ("temperature {} outside plausible range",)),
    "kw": ("meter", 0.0, LOAD_MAX_KW,
           ("negative demand {}",
            f"demand {{}} kW above the {LOAD_MAX_KW:g} kW ceiling")),
}
# A meter day's code keeps its date code in these bits (see _load_hourly).
_DATE_MASK = 0xFFFFFFFF


class _DayRows:
    """Grid rows of day codes, each new code numbered as it first appears.

    The codes seen are held in sorted arrays with their rows, each at
    least twice as long as the next; a new array that breaks this is
    merged into the one before. A lookup is a binary search in each of at
    most ``log2(days)`` arrays, and each code is merged at most that often.
    (A dict holds a Python int key and value per day: 5.7 MiB at its peak
    on a 20 x 730 meter file, for a 2.8 MiB grid.)
    """

    def __init__(self):
        self.levels = []  # (sorted codes, their rows), longest first
        self.count = 0

    def rows(self, codes):
        """The grid row of each of the 1-D array ``codes``, numbering the
        codes not seen before from ``count`` in order of first appearance."""
        order = np.argsort(codes, kind="stable")
        heads = run_heads(codes[order])
        first = order[heads]  # each distinct code's first index
        distinct = codes[first]
        rows = np.full(len(distinct), -1)
        for known, known_rows in self.levels:
            at = np.minimum(np.searchsorted(known, distinct), len(known) - 1)
            hit = known[at] == distinct
            rows[hit] = known_rows[at[hit]]
        new = np.flatnonzero(rows < 0)
        if len(new):
            rows[new[np.argsort(first[new])]] = np.arange(
                self.count, self.count + len(new))
            self.count += len(new)
            self._add(distinct[new], rows[new])
        result = np.empty(len(codes), np.int64)
        result[order] = np.repeat(rows, np.diff(heads, append=len(codes)))
        return result

    def _add(self, codes, rows):
        levels = self.levels
        levels.append((codes, rows))
        while len(levels) > 1 and 2 * len(levels[-1][0]) > len(levels[-2][0]):
            (codes_a, rows_a), (codes_b, rows_b) = levels[-2:]
            at = np.searchsorted(codes_a, codes_b)
            levels[-2:] = [(np.insert(codes_a, at, codes_b),
                            np.insert(rows_a, at, rows_b))]

    def codes(self):
        """The code of each row."""
        codes = np.empty(self.count, np.int64)
        for known, known_rows in self.levels:
            codes[known_rows] = known
        return codes


def _load_hourly(path, header, dates, names):
    """An hourly file (weather or interval meter) with header ``header`` as
    day codes, a ``(days, 24)`` grid of readings and a per-day flag.

    Dates are coded in ``dates`` and, for a meter, service ids in ``names``,
    as :func:`date_rule` codes them. A day's code is its date code for
    weather and ``service code << 32 | date code`` for a meter; days keep
    their first-seen order. A second reading for an hour (DST fall-back) is
    dropped and flags its day; a third is a ParseError. Days missing at most
    ``MAX_INTERPOLATED_HOURS`` readings are linearly interpolated and
    flagged, and days missing more are dropped. One DataGapWarning per kind
    (duplicate readings, interpolated days, dropped days) gives the count
    and the first day affected.
    """
    kind, lo, hi, complaints = _HOURLY_FILES[header[-1]]
    meter = len(header) == 4
    rules = [date_rule(dates), _HOUR_RULE, number_rule(lo, hi, *complaints)]
    if meter:
        rules.insert(0, _service_rule(names))
    index = _DayRows()
    duplicated = []  # the day of each second reading, in file order
    # Grown in place, NaN until its hour is read (readings are finite);
    # numpy writes through a view made per chunk, as a buffer cannot grow
    # while it is viewed.
    grid = array("d")
    reads = bytearray()  # readings seen per cell, 0..2
    for first, columns in read_columns(path, header, rules):
        *ids, days, hours, values = columns
        if ids:
            days = days | ids[0] << 32
        # Day codes to grid rows, new days numbered as they first appear.
        heads = run_heads(days)
        days = np.repeat(index.rows(days[heads]),
                         np.diff(heads, append=len(days)))
        more = 24 * index.count - len(grid)
        grid.extend(array("d", [math.nan]) * more)
        reads.extend(bytes(more))
        seen = np.frombuffer(reads, np.uint8)
        # Each row's reading number in its cell, from 0.
        cells = 24 * days + hours
        numbers = seen[cells]
        # Cells that strictly rise (a sorted file) repeat none: ranks 0.
        if not (cells[1:] > cells[:-1]).all():
            numbers = numbers + _ranks(cells)
        third = np.flatnonzero(numbers > 1)
        if len(third):
            row = int(third[0])
            raise ParseError(f"hour {hours[row]} appears more than twice",
                             path=path, row=first + row, column="hour")
        kept, again = numbers == 0, numbers == 1
        np.frombuffer(grid)[cells[kept]] = values[kept]
        seen[cells[kept]] = 1
        seen[cells[again]] = 2
        del seen
        duplicated += days[again].tolist()
    codes = index.codes()
    grid = np.frombuffer(grid).reshape(-1, 24)
    missing = np.isnan(grid)
    counts = missing.sum(axis=1)
    kept = counts <= MAX_INTERPOLATED_HOURS
    interpolated = np.flatnonzero(kept & (counts > 0)).tolist()
    for day in interpolated:
        present = np.flatnonzero(~missing[day])
        grid[day] = np.interp(np.arange(24), present, grid[day, present])
    for days, what in (
            (duplicated, "duplicate hourly readings (DST fall-back?), the "
             "first of each kept"),
            (interpolated, f"days missing at most {MAX_INTERPOLATED_HOURS} "
             "hours interpolated"),
            (np.flatnonzero(~kept).tolist(), "days missing more than "
             f"{MAX_INTERPOLATED_HOURS} hours dropped")):
        if days:
            code = int(codes[days[0]])
            day = str(list(dates)[code & _DATE_MASK])
            if meter:
                day = f"{list(names)[code >> 32]} {day}"
            warnings.warn(  # attributed to the caller of load_dataset
                f"{kind}: {len(days)} {what}; first {day}",
                DataGapWarning, stacklevel=3)
    flagged = np.zeros(len(codes), bool)
    flagged[duplicated + interpolated] = True
    if kept.all():  # the grid is not copied again
        return codes, grid, flagged
    return codes[kept], grid[kept], flagged[kept]


def _load_calendar(path, dates):
    """The calendar file's dates, coded in ``dates`` as :func:`date_rule`
    codes them, as two boolean arrays over every code of ``dates``: whether
    the file lists the date, and whether it is an effective weekday
    (holidays count as non-weekdays)."""
    listed = np.zeros(0, bool)  # per date code
    weekdays = np.zeros(0, bool)
    for first, (codes, weekday, holiday) in read_columns(
            path, CALENDAR_HEADER, [date_rule(dates), FLAG_RULE, FLAG_RULE]):
        days = list(dates)
        listed = _grown(listed, len(days))
        weekdays = _grown(weekdays, len(days))
        repeated = listed[codes] | (_ranks(codes) > 0)
        workday = np.array([day.weekday() < 5 for day in days])[codes]
        bad = repeated | (~holiday & (weekday != workday))
        if bad.any():
            row = int(bad.argmax())
            date = days[codes[row]]
            if repeated[row]:
                raise ParseError(f"duplicate calendar entry for {date}",
                                 path=path, row=first + row)
            raise ParseError(
                f"is_weekday={'Y' if weekday[row] else 'N'} inconsistent "
                f"with {date} ({date.strftime('%A')}) and no holiday override",
                path=path, row=first + row, column="is_weekday")
        listed[codes] = True
        weekdays[codes] = weekday & ~holiday
    return _grown(listed, len(dates)), _grown(weekdays, len(dates))


def _grown(flags, n):
    """The boolean array ``flags`` extended with False to length ``n``."""
    return np.concatenate([flags, np.zeros(n - len(flags), bool)])


def _sorted_used(values, codes):
    """The indices into the list ``values`` that are among ``codes``, in the
    order of their items, and an array of each index's place in that order
    (0 for the others)."""
    used = np.zeros(len(values), bool)
    used[codes] = True
    order = sorted(np.flatnonzero(used).tolist(), key=values.__getitem__)
    places = np.zeros(len(values), np.int64)
    places[order] = np.arange(len(order))
    return order, places


def _day_stats(hours):
    """Each row's sum, maximum and minimum as Python's ``sum``, ``max`` and
    ``min`` take them over the day's list: the sum added hour by hour from
    0.0 (numpy's pairwise ``sum`` rounds differently), the first maximum
    and the first minimum (so a tie of 0.0 and -0.0 keeps its sign)."""
    total = np.zeros(len(hours))
    for column in hours.T:
        total += column
    rows = np.arange(len(hours))
    return (total, hours[rows, hours.argmax(axis=1)],
            hours[rows, hours.argmin(axis=1)])


# The record table's fields (see load_dataset).
RECORD_DTYPE = np.dtype([
    ("service", np.int64), ("day", np.int64),
    *((name, np.float64) for name in ("t_max_c", "t_min_c", "t_avg_c",
                                      "l_avg_kva", "l_max_kva", "l_min_kva")),
    ("weekday", "U1"), ("load_row", np.int64), ("interpolated", bool)])
# load_dataset takes the load features from the meter grid this many
# records at a time, so that no second copy of the whole grid is made.
_GATHER_ROWS = 1024


def _join(meter_days, covered, ids, days):
    """The meter days (codes as :func:`_load_hourly` gives them) of dates
    that ``covered`` marks (per date code), in table order: services
    sorted, then dates. Returns their rows in ``meter_days``, their
    service and day codes, and the sorted tables these codes index, as
    indices into the lists ``ids`` and ``days`` of all ids and dates. Its
    per-day arrays are freed on return, before the table is made."""
    day_dates = meter_days & _DATE_MASK
    joined = np.flatnonzero(covered[day_dates])
    if not len(joined):
        raise EmptyIntersectionError(
            "weather, meter, and calendar files share no (service, date) coverage")
    service_codes, date_codes = meter_days[joined] >> 32, day_dates[joined]
    id_order, service_place = _sorted_used(ids, service_codes)
    day_order, date_place = _sorted_used(days, date_codes)
    service, day = service_place[service_codes], date_place[date_codes]
    # Each (service, date) is one meter day.
    order = np.lexsort((day, service))
    return joined[order], service[order], day[order], id_order, day_order


def load_dataset(weather_path, meter_path, calendar_path) -> Dataset:
    """Assemble the per-service per-day record table from the three CSV
    files.

    One row is produced per (service, date) in the intersection of
    weather, meter, and calendar coverage, services sorted and then dates.
    Its fields (:data:`RECORD_DTYPE`): ``service`` and ``day``, the codes
    of its service id in ``Dataset.services`` and of its date in
    ``Dataset.dates`` (both sorted, and holding only the ids and dates of
    records); the daily features ``t_max_c``, ``t_min_c``, ``t_avg_c``
    from the weather day and ``l_avg_kva``, ``l_max_kva``, ``l_min_kva``
    from the meter day (each mean is the day's sum over 24.0); ``weekday``
    "Y"/"N" from the calendar (statutory holidays count as non-weekdays);
    ``load_row``, the meter day's row of ``Dataset.load``, its raw 24-hour
    load profile for cluster-profile extraction; and ``interpolated``, set
    where the weather or meter day had a gap filled or a duplicate reading.
    The 24-hour ambient profiles are kept once per date, as
    ``Dataset.ambient`` row ``day``; the meter grid ``Dataset.load`` holds
    each meter day read once, joined or not.

    Raises:
        MissingProfileError: the meter file holds daily energy only
            (``service_id,date,energy_kwh``), refused on its header before
            any row is parsed.
        ParseError: malformed file content (row and column reported).
        EmptyIntersectionError: no common coverage at all.
    """
    with _open(meter_path) as fh:
        header = _header(_records(meter_path, b"", _byte_blocks(fh), 1), [
            METER_HOURLY_HEADER, METER_ENERGY_HEADER], meter_path)
    if header == METER_ENERGY_HEADER:
        raise MissingProfileError(
            f"{meter_path} has energy-only metering: the meter file holds "
            "daily energy only, no 24-hour profiles to cluster")
    dates, names = {}, {}  # date and service id -> code, in every file
    weather_days, ambient_days, weather_flags = _load_hourly(
        weather_path, WEATHER_HEADER, dates, {})
    meter_days, load_days, meter_flags = _load_hourly(
        meter_path, METER_HOURLY_HEADER, dates, names)
    listed, workday = _load_calendar(calendar_path, dates)

    weather_row = np.full(len(dates), -1)  # per date code
    weather_row[weather_days] = np.arange(len(weather_days))
    ids, days = list(names), list(dates)
    meter_rows, service, day, id_order, day_order = _join(
        meter_days, (weather_row >= 0) & listed, ids, days)
    # Per date of the table, in date order.
    weather_rows = weather_row[day_order]
    ambient = ambient_days[weather_rows]
    t_sum, t_max, t_min = _day_stats(ambient)

    records = np.empty(len(meter_rows), RECORD_DTYPE)
    records["service"] = service
    records["day"] = day
    records["t_max_c"] = t_max[day]
    records["t_min_c"] = t_min[day]
    records["t_avg_c"] = (t_sum / 24.0)[day]
    records["weekday"] = np.where(workday[day_order], "Y", "N")[day]
    records["interpolated"] = (weather_flags[weather_rows][day]
                               | meter_flags[meter_rows])
    records["load_row"] = meter_rows
    for start in range(0, len(records), _GATHER_ROWS):
        part = records[start:start + _GATHER_ROWS]
        l_sum, part["l_max_kva"], part["l_min_kva"] = _day_stats(
            load_days[part["load_row"]])
        part["l_avg_kva"] = l_sum / 24.0

    first, last = days[day_order[0]], days[day_order[-1]]
    span_days = (last - first).days + 1
    if span_days < 730:
        warnings.warn(
            f"dataset spans only {span_days} days; multiple years of data "
            "are recommended", ShortCoverageWarning, stacklevel=2)
    return Dataset(records=records, services=tuple(ids[i] for i in id_order),
                   dates=tuple(days[i].isoformat() for i in day_order),
                   ambient=ambient, load=load_days)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the deterministic synthetic dataset generator.

    The command line (``cli.OPTIONS``) takes each in a range where it means
    what it says: ``temp_mean_c``, ``heating_ref_c`` and ``cooling_ref_c``
    in ``TEMP_MIN_C``..``TEMP_MAX_C`` (-60..60); the temperature amplitudes
    and ``temp_noise_sd_c`` in 0..120; ``coldest_day_of_year`` in 1..366;
    ``weekend_uplift`` at least -1 and the other load knobs at least 0;
    ``holidays`` as days of the calendar (29 February included). The loads
    they give are checked whole by :func:`synth_dataset`.
    """

    temp_mean_c: float = 4.0
    temp_seasonal_amp_c: float = 17.0
    temp_diurnal_amp_c: float = 5.5
    temp_noise_sd_c: float = 1.8
    coldest_day_of_year: int = 15
    base_load_kw: float = 0.9
    diurnal_load_amp: float = 0.5
    weekend_uplift: float = 0.15
    heating_coeff_kw_per_c: float = 0.035
    heating_ref_c: float = 14.0
    cooling_coeff_kw_per_c: float = 0.05
    cooling_ref_c: float = 22.0
    load_noise_sd_kw: float = 0.08
    service_spread: float = 0.25
    holidays: tuple[tuple[int, int], ...] = ((1, 1), (7, 1), (12, 25))


def synth_dataset(seed: int, services: int, start_date: dt.date, days: int,
                  config: SynthConfig | None = None, out_dir=".") -> dict[str, Path]:
    """Generate weather/meter/calendar CSVs for a synthetic study area.

    Weather follows a seasonal plus diurnal sinusoid with seeded noise; load
    couples a base diurnal shape with heating below ``heating_ref_c``,
    cooling above ``cooling_ref_c``, a weekend/holiday uplift, per-service
    scale variation, and seeded noise. The same seed always yields
    byte-identical files. A load that is not finite or is above
    ``LOAD_MAX_KW``, which the meter file may not hold, is a ConfigError,
    raised before anything is written.
    """
    if services <= 0 or days <= 0:
        raise ValueError("services and days must be > 0")
    cfg = config or SynthConfig()
    rng = np.random.default_rng(seed)

    dates = [start_date + dt.timedelta(days=i) for i in range(days)]
    hours = np.arange(24)

    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    seasonal = cfg.temp_mean_c - cfg.temp_seasonal_amp_c * np.cos(
        2.0 * math.pi * (doy - cfg.coldest_day_of_year) / 365.25)
    diurnal = -cfg.temp_diurnal_amp_c * np.cos(2.0 * math.pi * (hours - 14.0) / 24.0)
    temps = seasonal[:, None] + diurnal[None, :]
    temps += rng.normal(0.0, cfg.temp_noise_sd_c, size=temps.shape) \
        if cfg.temp_noise_sd_c > 0 else 0.0
    temps = np.clip(temps, TEMP_MIN_C, TEMP_MAX_C)

    multipliers = (np.exp(rng.normal(0.0, cfg.service_spread, size=services))
                   if cfg.service_spread > 0 else np.ones(services))

    # Relative residential demand shape: evening peak, morning bump.
    shape = cfg.diurnal_load_amp * (0.6 * np.exp(-((hours - 19.0) ** 2) / 8.0)
                                    + 0.4 * np.exp(-((hours - 7.5) ** 2) / 5.0))
    heating = cfg.heating_coeff_kw_per_c * np.maximum(0.0, cfg.heating_ref_c - temps)
    cooling = cfg.cooling_coeff_kw_per_c * np.maximum(0.0, temps - cfg.cooling_ref_c)
    offday = np.array(
        [d.weekday() >= 5 or (d.month, d.day) in cfg.holidays for d in dates])
    daytype = np.where(offday, 1.0 + cfg.weekend_uplift, 1.0)

    base = cfg.base_load_kw * (1.0 + shape)[None, :] * daytype[:, None]
    loads = multipliers[:, None, None] * (base + heating + cooling)[None, :, :]
    if cfg.load_noise_sd_kw > 0:
        loads = loads + rng.normal(0.0, cfg.load_noise_sd_kw, size=loads.shape)
    loads = np.maximum(loads, 0.0)
    peak = loads.max()
    if not peak <= LOAD_MAX_KW:  # NaN too
        raise ConfigError(f"synth config gives loads up to {peak:g} kW; the "
                          f"meter file takes at most {LOAD_MAX_KW:g} kW")
    return _write_synth(Path(out_dir), dates, temps, loads, cfg.holidays)


def _write_synth(out_dir, dates, temps, loads, holidays) -> dict[str, Path]:
    """Write the files of :func:`synth_dataset` to ``out_dir``: the
    ``(days, 24)`` temperatures ``temps`` and the ``(services, days, 24)``
    loads ``loads`` of the days ``dates``, ``holidays`` month-day pairs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    isos = np.array([date.isoformat() for date in dates])
    paths = {name: out_dir / f"{name}.csv"
             for name in ("weather", "meter", "calendar")}
    # The date and hour columns of 24 rows per date.
    days = [np.repeat(isos, 24), np.tile(np.arange(24), len(isos))]
    write_table(paths["weather"], WEATHER_HEADER,
                [[*days, (temps.ravel(), 2)]])
    write_table(paths["meter"], METER_HOURLY_HEADER, (
        [np.full(len(days[0]), f"S{si + 1:03d}"), *days,
         (loads[si].ravel(), 3)] for si in range(len(loads))))
    flags = np.array([[date.weekday() < 5, (date.month, date.day) in holidays]
                      for date in dates])
    write_table(paths["calendar"], CALENDAR_HEADER,
                [[isos, np.where(flags, "Y", "N")]])
    return paths

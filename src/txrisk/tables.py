"""CSV table output: :func:`write_table`, the one writer of every table the
package writes (``ingest.write_table`` is the same function).

Callers pass columns, not text. Each chunk of rows is laid out as one
``(rows, width)`` byte matrix with a keep mask: every column has fixed
slots, numbers right-aligned and text left-aligned, filled a decimal place
(or a text column) at a time, and the chunk is written with one boolean
compress and one ``write``. The digits are those ``%``-format gives (see
:func:`_number_cells`), from int64 arithmetic, shifts and a lookup table:
numpy kernels the other stages already use, so that a run pages in no
more of numpy's code. Kept apart from :mod:`txrisk.ingest`, which reads
tables: each CLI run compiles its modules unless bytecode is cached, and
one module as large as both peaks higher while it compiles.
"""

from __future__ import annotations

import numpy as np

# write_table formats this many rows at a time: only one chunk's bytes
# are held at once.
_WRITE_ROWS = 4096
# The text of each decimal digit, and of a minus sign at index 10.
_FIGURES = np.frombuffer(b"0123456789-", np.uint8)
# The fraction bits of a double, and the least int64.
_FRACTION = (1 << 52) - 1
_INT64_MIN = -1 << 63


def write_table(path, header, parts) -> None:
    """Write a CSV table: its ``header`` fields joined by commas, then the
    rows of each of ``parts``, a list of columns over a run of rows.

    A column is a numpy array of integers, written as ``%d`` writes them;
    a ``(values, places)`` pair of floats and 0..4 places, written as
    ``%.{places}f`` writes them (see :func:`_number_cells`); or text, a
    numpy ``str`` array or a list of ``str``, written as UTF-8. A 2-D
    column (for text, a list of lists) is a block of table columns. No text
    holds a comma, a quote or a line end (names and labels are refused with
    them), so no field needs quoting. Rows are formatted ``_WRITE_ROWS`` at
    a time, each chunk as one byte matrix (:func:`_row_bytes`) and written
    with one ``write``."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for columns in parts:
            first = columns[0]
            rows = len(first[0] if isinstance(first, tuple) else first)
            for start in range(0, rows, _WRITE_ROWS):
                chunk = slice(start, start + _WRITE_ROWS)
                fh.write(_row_bytes(min(rows - start, _WRITE_ROWS),
                                    [_cells(column, chunk)
                                     for column in columns]))


def _row_bytes(rows, cells):
    """The bytes of ``rows`` table rows whose columns are ``cells``, each
    ``(n, width, fill)`` as :func:`_cells` gives them: a ``(rows, total)``
    byte matrix and a keep mask, each column's ``n`` slots of ``width``
    bytes followed by a comma (the row's last by a line feed), filled by
    its ``fill`` and compressed by the mask."""
    total = sum(n * (width + 1) for n, width, _ in cells)
    text = np.empty((rows, total), np.uint8)
    keep = np.empty((rows, total), bool)
    at = 0
    for n, width, fill in cells:
        slots = slice(at, at + n * (width + 1))
        text_slots = text[:, slots].reshape(rows, n, width + 1)
        keep_slots = keep[:, slots].reshape(rows, n, width + 1)
        text_slots[..., width] = ord(",")
        keep_slots[..., width] = True
        fill(text_slots[..., :width], keep_slots[..., :width])
        at = slots.stop
    text[:, -1] = ord("\n")
    return text[keep]


def _cells(column, rows):
    """The rows ``rows`` of a :func:`write_table` column as ``(n, width,
    fill)``: ``n`` table columns of cells ``width`` bytes wide, which
    ``fill(text, keep)`` writes into ``(rows, n, width)`` slots of a byte
    matrix and marks in a keep mask."""
    if isinstance(column, tuple):
        values, places = column
        values = np.asarray(values[rows], np.float64)
        return _number_cells(values.reshape(len(values), -1), places)
    values = column[rows]
    if isinstance(values, list) or values.dtype.kind == "U":
        return _text_cells(values)
    values = np.asarray(values, np.int64).reshape(len(values), -1)
    # -2 ** 63 has no int64 magnitude; % writes it.
    slow = values == _INT64_MIN
    return _digit_cells(np.where(values < 0, 0 - values, values),
                        values >> 63, 0, slow,
                        ["%d" % value for value in values[slow]])


def _number_cells(values, places):
    """The cells of ``%.{places}f`` of each float of the 2-D ``values``, as
    :func:`_cells` gives them, for ``places`` 0..4.

    Where ``|x| < 2 ** (52 - places)``, ``x`` is ``M * 2 ** E`` with ``M``
    (below ``2 ** 53``) and ``E`` read from its bits, so ``10 ** places *
    |x|`` is ``M * 5 ** places`` (below ``2 ** 63``) shifted right by
    ``s = -(E + places) >= 1`` bits, and its digits are that quotient
    rounded half to even, as ``%`` rounds the exact binary value; past 63
    bits the value is below one half and its digits are 0. The sign is the
    sign bit, so -0.001 gives ``-0.00`` as ``%`` does. Any other value
    (nan, inf, or one as large) is formatted by ``%``, one cell at a time.
    Only int64 arithmetic is used.
    """
    bits = values.view(np.int64)
    field = (bits >> 52) & 0x7FF  # the biased exponent; 0 if subnormal
    slow = field >= 1075 - places
    mantissa = bits & _FRACTION | np.minimum(field, 1) << 52
    mantissa[slow] = 0
    # E is field - 1075, or -1074 for a subnormal.
    shift = np.maximum(1075 - places - np.maximum(field, 1), 1)
    scaled = mantissa * 5 ** places
    scaled[shift > 63] = 0
    shift = np.minimum(shift, 63, out=shift)
    digits = scaled >> shift
    # Up where the remainder r exceeds half, or equals it and the quotient
    # is odd: where half - r - (quotient & 1) is negative.
    remainder = scaled - (digits << shift)
    digits += ((1 << (shift - 1)) - remainder - (digits & 1)) >> 63 & 1
    texts = ["%.*f" % (places, value) for value in values[slow].tolist()]
    return _digit_cells(digits, bits >> 63, places, slow, texts)


def _digit_cells(magnitude, sign, places, slow=None, texts=()):
    """The cells of the 2-D non-negative int64 ``magnitude`` written in
    decimal with ``places`` digits after a point, and a ``-`` where
    ``sign`` (0 or -1 per cell) is -1, as :func:`_cells` gives them,
    right-aligned and laid out a place at a time. The cells that ``slow``
    marks hold ``texts`` (in the order of ``np.nonzero(slow)``) instead,
    placed with one masked assignment."""
    figures = max(len(str(int(magnitude.max(initial=0)))), places + 1)
    # Each cell's length: its digits (at least places + 1), the point and
    # the sign. (m - 10 ** d) >> 63 is -1 where m has no digit at place d.
    lengths = np.full(magnitude.shape, figures + (places > 0))
    for place in range(places + 1, figures):
        lengths += (magnitude - 10 ** place) >> 63
    lengths -= sign
    signed = bool(sign.any())
    texts = [text.encode() for text in texts]
    width = max([figures + (places > 0) + signed, *map(len, texts)])
    # The slow cells right-aligned, NUL on the left (no % text holds one).
    slow_cells = np.frombuffer(b"".join(text.rjust(width, b"\0")
                                        for text in texts),
                               np.uint8).reshape(len(texts), width)

    def fill(text, keep):
        rest, at = magnitude, width - 1
        for place in range(figures):
            if place == places and places:
                text[..., at] = ord(".")
                keep[..., at] = True
                at -= 1
            higher = rest // 10
            digit = rest - higher * 10
            if place > places and signed:  # a '-' left of the digits
                digit = np.where(rest == 0, 10, digit)
            text[..., at] = _FIGURES[digit]
            keep[..., at] = (True if place <= places
                             else lengths > width - 1 - at)
            rest = higher
            at -= 1
        text[..., :at + 1] = ord("-")
        for left in range(at + 1):
            keep[..., left] = lengths > width - 1 - left
        if texts:
            text[slow] = slow_cells
            keep[slow] = slow_cells != 0

    return magnitude.shape[1], width, fill


def _text_cells(texts):
    """The cells of text, a numpy ``str`` array (1-D or 2-D) or a list of
    ``str`` or of lists of ``str``, each its UTF-8 bytes, left-aligned, as
    :func:`_cells` gives them. An ASCII array is taken whole, a byte per
    character; numpy keeps no NUL at the end of a string, so its text ends
    at its last nonzero byte."""
    if isinstance(texts, np.ndarray):
        size = texts.itemsize // 4
        texts = np.ascontiguousarray(texts, f"<U{size}")  # UTF-32LE
        if texts.view(np.uint32).max(initial=0) < 128:
            # ASCII: each character's low byte.
            chars = texts.view(np.uint8).reshape(len(texts), -1, size,
                                                 4)[..., 0]
            ends = (True if chars.min(initial=1) else
                    np.logical_or.accumulate(chars[..., ::-1] != 0,
                                             axis=-1)[..., ::-1])
            return _filled(chars, ends)
        texts = texts.tolist()
    rows = [[text] if isinstance(text, str) else text for text in texts]
    encoded = [text.encode() for row in rows for text in row]
    width = max(map(len, encoded), default=0)
    shape = (len(rows), len(rows[0]))
    cells = np.frombuffer(b"".join(text.ljust(width, b"\0")
                                   for text in encoded), np.uint8)
    lengths = np.array(list(map(len, encoded))).reshape(shape)
    return _filled(cells.reshape(*shape, width),
                   np.arange(width) < lengths[..., None])


def _filled(cells, keep):
    """The :func:`_cells` of the ``(rows, n, width)`` bytes ``cells`` and
    their keep mask ``keep``."""
    def fill(text, kept):
        text[...] = cells
        kept[...] = keep

    return cells.shape[1], cells.shape[2], fill

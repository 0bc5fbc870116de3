"""Column-at-a-time reading and writing of CSV tables.

Every loader checks and converts whole columns with numpy instead of
walking the rows in Python.  A Table knows each row's width and hands out
columns: floats(ks, rows) parses fields ks of the given rows as float() does,
one field's column after another, and intern(ks, rows) gives each distinct
stripped label among fields ks of those rows a code, in order of first
appearance row after row, so that Python code runs once per distinct label
rather than once per row.  Both tables intern the fields as they are;
str.strip then runs once per distinct field, and fields that strip to one
label share its code.

read_table reads a file's bytes once, into a buffer with room for a
ByteTable's padding, so that they are never held twice.  When the only
special bytes in them are ',' and '\\n' (no '"', '\\r' or NUL), a ByteTable
splits them with numpy, a block at a time, in two passes: the first counts
each block's separators, so that the second writes every field's end into
one array, and no mask is longer than a block.  It keeps each field as a
(begin, end) span into the buffer, with no Python object per field.  Spans
and row starts are int32 when the padded buffer is under 2 GiB, so that they
index every byte of it, and int64 otherwise; sums over spans are int64.  It
interns fields by a 64-bit key, gathered in one read per field: a field of
up to 8 bytes is its own key, and a longer one is keyed by a hash of its
bytes and checked byte for byte against the first field with its key; the
few that differ (hash collisions) are interned through a dict.  It parses numbers
a chunk of fields at a time.  A plain decimal (an optional sign, then 1 to
19 digits and at most one dot) takes the word path: its bytes are gathered
as three little-endian words, checked and converted eight digits per word
with byte-parallel masks and multiplies, and its integer m over 10^f rounded
exactly, by one float64 division when m <= 2^53 (Clinger's fast path) and
otherwise by integer long division of m by 5^f.  Every other field takes
numpy's bytes to float64 cast, which calls float() without making a str per
field: the chunk's other fields are gathered as items of one width, the
bytes past each field multiplied by zero, and a field the cast rejects sends
only its chunk's cast fields through float() of each str.  Both give
float()'s value bit for bit.
A file with a quote, CR or NUL, and every in-memory record sequence
(load_graph of records), goes through csv.reader instead, into a RowTable
that keeps the fields as Python objects in one flat list.  Both read text
as Python's default csv dialect does, with the same tables.

Text that is not UTF-8 raises ParseError naming its first undecodable line,
and so does a field longer than csv.field_size_limit(), as csv reports it.
A loader states each of its rules once, as a mask over the columns and the
message of a row that breaks it, and refuse raises the message of the first
rule that the first broken row breaks.  Row numbers count from 1, blank rows
included.

write_table writes every file cloudcut writes, and read_table reads each back.
It checks a column of labels with one regex over its joined text, and quotes
field by field only a column that the regex hits.
"""

from __future__ import annotations

import csv
import io
import os
import re
from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParseError

_COMMA = ord(",")
_NEWLINE = ord("\n")
# _MASK[r] keeps the first r bytes of a little-endian word
_MASK = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)
# longer number fields are parsed one at a time, so that no column is
# copied into an array as wide as its longest field
_FLOAT_WIDTH = 32
# number fields read at a time, so that a chunk's words and masks stay small.
# The plain decimals among them take the word path; the rest (exponents,
# space, underscores, non-ASCII digits, inf and nan, 20 digits or more, junk)
# take the cast, and a field the cast rejects costs the chunk's cast fields a
# parse field by field
_FLOAT_CHUNK = 1 << 14
# the word path reads a field's first 24 bytes as three little-endian words
_STEPS = np.array([0, 8, 16])
_HI = np.uint64(0x8080808080808080)  # the top bit of each byte
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_ONES = np.uint64(0x0101010101010101)
_ZEROS = np.uint64(0x3030303030303030)  # b"0" in each byte
_DOTS = np.uint64(0x2E2E2E2E2E2E2E2E)  # b"." in each byte
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_POW10F = _POW10.astype(np.float64)
_POW5 = np.array([5 ** k for k in range(20)], dtype=np.uint64)
_SHIFT = np.array([8 * (8 - r) for r in range(9)], dtype=np.uint64)  # r digits to the top
# the characters that make write_table quote a str field
_SPECIAL = re.compile(r'[,"\r\n]')
_BLOCK = 1 << 16  # rows write_table renders at a time, so no file's whole text is kept
# a ByteTable whose padded buffer is shorter than this keeps its spans and row
# starts as int32, which index every byte of it; a longer one as int64
_INT32_SPANS = 1 << 31
_SPLIT = 1 << 20  # bytes ByteTable splits at a time, so that no mask is as long as the file


class Table:
    """Each row's width, and the flat index of each row's first field."""

    def __init__(self, widths, dtype=np.int64):
        self.widths = np.asarray(widths, dtype=np.int64)
        self._row_first = np.cumsum(self.widths, dtype=dtype)
        self._row_first -= self.widths

    @property
    def n_rows(self):
        return int(self.widths.size)

    def prefix(self, *allowed):
        """Number of leading rows whose width is one of allowed."""
        return first(~np.isin(self.widths, allowed))

    def row(self, i):
        """Fields of row i, as csv.reader gives them."""
        start = int(self._row_first[i])
        return [self._field(f) for f in range(start, start + int(self.widths[i]))]

    def ids(self, k, rows, lookup):
        """lookup(labels) -> int64 ids, applied to the distinct stripped
        labels of field k of rows and spread back over those rows."""
        codes, labels = self.intern((k,), rows)
        return lookup(labels)[codes]

    def intern(self, ks, rows):
        """(int64 code of each of fields ks of rows, row after row; the
        distinct stripped labels in order of first appearance).  A field that
        is not a str reads as the label None."""
        codes, labels = self._distinct(ks, rows)
        texts = stripped(labels)
        if texts == labels:
            return codes, labels
        # labels that strip to one text share its code; the raw labels come
        # in order of first appearance, so their texts do too
        ids = _Interner()
        remap = np.fromiter(map(ids.__getitem__, texts), dtype=np.int64, count=len(texts))
        return remap[codes], list(ids)

    def floats(self, ks, rows):
        """(float() of fields ks of rows, mask of the fields float() rejects),
        each of shape (len(ks), number of rows): row j holds field ks[j].

        Rejected fields read 0.0.
        """
        if isinstance(rows, (int, np.integer)):
            rows = slice(rows)
        first = self._row_first[rows]
        index = first[None, :] + np.asarray(ks, dtype=first.dtype)[:, None]
        values, bad = self._floats(index.ravel())
        return values.reshape(index.shape), bad.reshape(index.shape)

    def _index(self, ks, rows):
        """Flat indices of fields ks of the first `rows` rows, or of the rows
        an index array names, row after row; each row has every field."""
        if isinstance(rows, (int, np.integer)):
            rows = slice(rows)
        first = self._row_first[rows][:, None]
        return (first + np.asarray(ks, dtype=first.dtype)).ravel()


class RowTable(Table):
    """A Table of a sequence of rows of Python objects, flattened."""

    def __init__(self, rows):
        widths = []

        def noted(rows):
            for row in rows:
                widths.append(len(row))
                yield row

        # rows stream through, so that no row list outlives its line: kept
        # row lists pile up in the cyclic GC's generations, and each
        # collection walks all of them again
        self._fields = list(chain.from_iterable(noted(rows)))
        super().__init__(widths)

    def _field(self, f):
        return self._fields[f]

    def _column(self, index):
        return list(map(self._fields.__getitem__, index.tolist()))

    def _floats(self, index):
        """(float() of the fields at flat indices, mask of those float()
        rejects, which read 0.0)."""
        column = self._column(index)
        try:
            values = np.fromiter(map(float, column), dtype=np.float64, count=len(column))
            return values, np.zeros(len(column), dtype=bool)
        except (TypeError, ValueError, OverflowError):
            pass
        values = np.zeros(len(column))
        bad = np.zeros(len(column), dtype=bool)
        for i, x in enumerate(column):
            try:
                values[i] = float(x)
            except (TypeError, ValueError, OverflowError):
                bad[i] = True
        return values, bad

    def _distinct(self, ks, rows):
        """(int64 code of each of fields ks of rows, row after row; the
        distinct fields in order of first appearance, None for a field that
        is not a str)."""
        ids = _Interner()
        column = self._column(self._index(ks, rows))
        if not all(map(isinstance, column, repeat(str))):
            column = [x if isinstance(x, str) else None for x in column]
        codes = np.fromiter(map(ids.__getitem__, column), dtype=np.int64, count=len(column))
        return codes, list(ids)


class ByteTable(Table):
    """A Table of CSV bytes with no quote, CR or NUL; fields are spans."""

    def __init__(self, data):
        size = len(data)
        # padded with NULs, so that a number field or a word read at any
        # offset stays inside the buffer; a bytearray, as read_table reads,
        # is padded in place rather than copied
        data += bytes(_FLOAT_WIDTH)
        self._data = data
        self._bytes = np.frombuffer(data, dtype=np.uint8)
        self._words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
        dtype = np.int32 if len(data) < _INT32_SPANS else np.int64
        # the last block may reach into the padding, which holds no separator
        blocks = [(start, self._bytes[start:start + _SPLIT]) for start in range(0, size, _SPLIT)]
        # each field ends at a separator, or at the end of a last line that
        # lacks its newline; a first pass counts them, so that the second
        # writes the field ends into one array
        n_fields = int(size > 0 and data[size - 1] != _NEWLINE)
        for _, text in blocks:
            n_fields += np.count_nonzero(text == _COMMA) + np.count_nonzero(text == _NEWLINE)
        end = np.empty(n_fields, dtype=dtype)
        at = 0
        for start, text in blocks:
            hits = np.flatnonzero((text == _COMMA) | (text == _NEWLINE))
            end[at:at + hits.size] = hits + start
            at += hits.size
        end[at:] = size
        begin = np.empty_like(end)
        begin[:1] = 0
        np.add(end[:-1], 1, out=begin[1:])
        # a field ends its line unless a comma ends it (the padding is NUL)
        last = np.flatnonzero(self._bytes[end] != _COMMA)
        widths = np.diff(last, prepend=-1)
        # csv.reader reads an empty line as a row of no fields
        blank = (widths == 1) & (begin[last] == end[last])
        if blank.any():
            widths[blank] = 0
            keep = np.ones(end.size, dtype=bool)
            keep[last[blank]] = False
            begin, end = begin[keep], end[keep]
        super().__init__(widths, dtype)
        self._begin, self._end = begin, end
        limit = csv.field_size_limit()
        for f in np.flatnonzero(end - begin > limit).tolist():
            if len(self._field(f)) > limit:
                line = int(np.searchsorted(self._row_first, f, side="right"))
                raise ParseError(f"malformed CSV: field larger than field limit ({limit})",
                                 line)

    def _field(self, f):
        return self._data[self._begin[f]:self._end[f]].decode("utf-8")

    def _word(self, begin, length, j):
        """Bytes 8 j .. 8 j + 7 of spans longer than 8 j bytes, as
        little-endian words, zero past each span's end."""
        word = self._words[begin + 8 * j]
        word &= _MASK[np.minimum(length - 8 * j, 8)]
        return word

    def _spans(self, index):
        """(begin, length) of the fields at flat indices."""
        begin = self._begin[index]
        length = self._end[index]
        length -= begin
        return begin, length

    def _floats(self, index):
        """(float() of the fields at flat indices, mask of those float()
        rejects, which read 0.0)."""
        begin, length = self._spans(index)
        values = np.zeros(begin.size)
        bad = np.zeros(begin.size, dtype=bool)
        cast = length <= _FLOAT_WIDTH
        slow = [np.flatnonzero(~cast)]
        for at in range(0, begin.size, _FLOAT_CHUNK):
            part = slice(at, at + _FLOAT_CHUNK)
            read, value = self._decimals(begin[part], length[part])
            values[part][read] = value
            # the cast is float() of each item's bytes (trailing NULs end an
            # item, and no field holds one); a field that only float() of
            # its str reads, with non-ASCII digits or space, fails the cast
            # of its whole chunk, whose cast fields are then parsed one at a
            # time
            chunk = np.flatnonzero(cast[part] & ~read)
            if not chunk.size:
                continue
            chunk += at
            width = int(length[chunk].max(initial=1))
            items = as_strided(self._bytes, (self._bytes.size - width + 1, width), (1, 1))[
                begin[chunk]]
            # zero the bytes past each span
            items *= np.arange(width, dtype=length.dtype) < length[chunk, None]
            try:
                values[chunk] = items.view(f"S{width}").ravel().astype(np.float64)
            except ValueError:
                slow.append(chunk)
        for i in np.concatenate(slow).tolist():
            try:
                values[i] = float(self._data[begin[i]:begin[i] + length[i]].decode("utf-8"))
            except ValueError:
                bad[i] = True
        return values, bad

    def _decimals(self, begin, length):
        """(mask of the spans that are plain decimals, float() of each of them).

        A plain decimal is an optional sign, then 1 to 19 digits and at most
        one dot.  Its body, past the sign, is read as up to three words,
        zeroed past its end.  The bytes before the dot, then those after it,
        are its digit string, whose integer m is found eight digits per word,
        and its value is m / 10^f, f the digits after the dot.
        """
        lead = self._bytes[begin]
        neg = lead == ord("-")
        signed = neg | (lead == ord("+"))
        n = length - signed
        # a word per 8 bytes of the longest body, up to three
        steps = _STEPS[:max(1, min(3, (int(n.max(initial=0)) + 7) // 8)), None]
        word = self._words[begin + signed + steps]
        keep = _MASK[np.clip(n - steps, 0, 8)]
        word &= keep
        stray = _over(word ^ _ZEROS, 9)  # not a digit
        stray &= keep
        del keep
        dot = _over(word ^ _DOTS, 0)
        dot ^= _HI
        stray ^= dot  # neither a digit nor a dot
        dot >>= 7
        dots = _byte_count(dot)
        digits = n - dots
        read = (np.bitwise_or.reduce(stray) == 0) & (dots <= 1) & (digits >= 1) & (digits <= 19)
        del stray
        # below: the bytes before the dot, or every byte if there is none; the
        # dot's bit across the words less one, borrowing from word to word
        below = dot
        borrow = np.ones(n.size, dtype=bool)
        for j in range(len(steps)):
            was = below[j] == 0
            below[j] -= borrow
            borrow &= was
        # f, the digits after the dot: the digits less the bytes below it;
        # with no dot, every byte of every word is below, and none is after
        places = np.maximum(digits - _byte_count(below & _ONES), 0)
        # the digit string: from the dot on, each byte takes the next one's
        after = word >> 8
        after[:-1] |= word[1:] << 56
        after ^= word
        np.invert(below, out=below)
        after &= below
        word ^= after
        del after, below
        r = np.clip(digits - steps, 0, 8)  # each word's digits, moved to its top
        word <<= _SHIFT[r]
        part = _eight_digits(word)
        m = part[0]
        for j in range(1, len(steps)):
            m = m * _POW10[r[j]] + part[j]
        m, places, neg = m[read], places[read], neg[read]
        # Clinger's fast path: m and 10^f are exact, and so is one division
        value = m.astype(np.float64)
        value /= _POW10F[places]
        big = np.flatnonzero(m > 2 ** 53)
        value[big] = _quotient(m[big], places[big])
        value[neg] *= -1
        return read, value

    def _distinct(self, ks, rows):
        """(int64 code of each of fields ks of rows, row after row; the
        distinct fields in order of first appearance)."""
        begin, length = self._spans(self._index(ks, rows))
        n = begin.size
        # a label of up to 8 bytes is its own key, since it holds no NUL; a
        # longer one is keyed by its hash and checked byte for byte below
        key = self._word(begin, length, 0)
        long = np.flatnonzero(length > 8)
        if long.size:
            key[long] = _hash(length, ((sub, self._word(begin[sub], length[sub], j))
                                       for j, sub in _by_word(length, long)))[long]
        # each span's representative: the first span with its key
        order, start = sorted_runs(key)
        del key
        rep = np.empty(n, dtype=np.int64)
        if n:
            rep[order] = np.repeat(np.minimum.reduceat(order, start), np.diff(start, append=n))
        del order
        # each span's first equal span: its representative, or for the
        # spans whose bytes differ from it, the first span with those bytes
        first_of = rep
        unlike = self._unlike(begin, length, rep)
        if unlike.size:
            seen = {}
            for i in unlike.tolist():
                span = bytes(self._data[begin[i]:begin[i] + length[i]])
                first_of[i] = seen.setdefault(span, i)
        is_first = np.zeros(n, dtype=bool)
        is_first[first_of] = True
        texts = self._texts(begin[is_first], length[is_first])
        del begin, length
        codes = np.cumsum(is_first)
        codes -= 1
        return codes[first_of], texts

    def _texts(self, begin, length):
        """The spans as str, in one decode: they are joined by newlines,
        which no field holds."""
        step = length.astype(np.int64)
        step += 1
        start = np.cumsum(step) - step
        joined = self._bytes[np.repeat(begin - start, step) + np.arange(int(step.sum()))]
        joined[start + step - 1] = ord("\n")
        return joined.tobytes().decode("utf-8").split("\n")[:-1]

    def _unlike(self, begin, length, rep):
        """Indices of the spans whose bytes differ from those of span rep,
        where spans of up to 8 bytes with one key are known to be equal."""
        unlike = length != length[rep]
        check = np.flatnonzero(~unlike & (length > 8))
        check = check[rep[check] != check]
        for j, sub in _by_word(length, check):
            other = rep[sub]
            unlike[sub] |= (self._word(begin[sub], length[sub], j)
                            != self._word(begin[other], length[other], j))
        return np.flatnonzero(unlike)


def _by_word(length, index):
    """(j, the spans of index longer than 8 j bytes) for each word position j.

    Spans are taken longest first, so each position's spans are a prefix of
    the last position's, and the work is the spans' total length in words.
    """
    n_words = (length[index] + 7) // 8
    top = int(n_words.max(initial=0))
    # a stable sort of small unsigned keys is a radix sort
    index = index[np.argsort((top - n_words).astype(np.min_scalar_type(top)), kind="stable")]
    longer = index.size - np.cumsum(np.bincount(n_words, minlength=top))
    for j in range(top):
        yield j, index[:longer[j]]


def _hash(length, words):
    """64-bit hash of each span from its length and its (spans, word) pairs."""
    h = length.astype(np.uint64)
    for sub, word in words:
        h[sub] = (h[sub] ^ word) * _MIX
    return h


def _over(words, limit):
    """The top bit of each byte of words that is over limit, a byte under 0x80."""
    over = words & _LOW7
    over += np.uint64((0x7F - limit) * 0x0101010101010101)
    over |= words
    over &= _HI
    return over


def _byte_count(ones):
    """The number of bytes of value 1 in each column of words whose bytes
    are 0 or 1, as int64."""
    return (ones.sum(axis=0) * _ONES >> 56).view(np.int64)


def _eight_digits(words):
    """The integer of the eight ASCII digits of each word, the first in its
    low byte, with zero bytes read as leading zeros; words is overwritten."""
    for mask, scale, bits in ((0x0F0F0F0F0F0F0F0F, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16),
                              (0x0000FFFF0000FFFF, 42949672960001, 32)):
        words &= mask
        words *= scale
        words >>= bits
    return words


def _quotient(m, places):
    """m / 10^places rounded to the nearest float64, ties to even.

    m * 2^s / 5^places, in uint64 long division, has a quotient q of at
    least 55 bits and under 64, and a remainder.  A sticky bit for a nonzero
    remainder, set in q's last bit, lies below the bit that rounds q to the
    53 of a float64, so q rounds to nearest even as the exact quotient does;
    the ldexp by 2^(-s - places) is exact.
    """
    d = _POW5[places]
    # the estimate's exponent is the quotient's, or one more; m > 2^53 and
    # 5^places < 2^45 put the quotient over 2^8, so s is at most 48
    shift = np.maximum(57 - np.frexp(m.astype(np.float64) / d)[1], 0)
    q, rem = np.divmod(m, d)
    left = shift.astype(np.uint64)
    for _ in range(3):  # 16 bits a step keep rem << step below 2^61
        step = np.minimum(left, 16)
        part, rem = np.divmod(rem << step, d)
        q = (q << step) | part
        left -= step
    q |= rem != 0
    return np.ldexp(q.astype(np.float64), (-places - shift).astype(np.int32))


def read_table(path):
    """Table of a headerless UTF-8 CSV file.

    Text that is not UTF-8, or that csv cannot split, raises ParseError.
    """
    with open(path, "rb") as fh:
        # read into a buffer with room for a ByteTable's padding, so that the
        # file's bytes are never held twice
        data = bytearray(os.fstat(fh.fileno()).st_size + _FLOAT_WIDTH)
        size = fh.readinto(data)
        if size == len(data):  # longer than its size said: a pipe, or a growing file
            data += fh.read()
        else:
            del data[size:]
    if b'"' in data or b"\r" in data or b"\0" in data:
        reader = csv.reader(io.StringIO(_decoded(data), newline=""))
        try:
            return RowTable(reader)
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
    if not data.isascii():
        _decoded(data)
    return ByteTable(data)


def write_table(path, columns, header=()):
    """Write the header row, if any, then a row per index of the columns, as
    UTF-8 with LF line ends; rows have at least two fields.  A str field is
    quoted, its quotes doubled, if it holds ',', '"', CR or LF (csv's
    QUOTE_MINIMAL rule, plus CR); a float, numpy's too, is written as
    repr(float(x)), its shortest round-trip form; anything else as str(x)."""
    columns = list(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(",".join(_texts(header)) + "\n")
        for i in range(0, min(map(len, columns), default=0), _BLOCK):
            rows = zip(*(_texts(column[i:i + _BLOCK]) for column in columns))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _texts(column):
    """The fields of a column, or of a row, as CSV text."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    try:
        if not _SPECIAL.search("".join(column)):
            return column
    except TypeError:  # not every field is a str
        pass
    return list(map(_text, column))


def _text(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    x = str(x)
    return '"' + x.replace('"', '""') + '"' if _SPECIAL.search(x) else x


def _decoded(data):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a newline byte never occurs inside a multi-byte UTF-8 sequence, so
        # the first undecodable line holds the first undecodable byte
        line = data.count(b"\n", 0, exc.start) + 1
    raise ParseError("text is not valid UTF-8", line)


class _Interner(dict):
    """Label -> dense id; a label looked up for the first time gets the next id."""

    def __missing__(self, label):
        i = self[label] = len(self)
        return i


def first(mask):
    """Index of the first True in mask, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else int(mask.size)


def refuse(table, n, rules, width_message, error=ParseError):
    """Raise error naming the first row of table that breaks a rule, if any.

    rules are (mask over the first n rows, message(row)) pairs, in the order a
    row is checked, and the first broken row gets the message of the first
    rule it breaks.  The row after the first n, if there is one, has a width
    the loader refuses and gets width_message(row).
    """
    bad = np.zeros(n, dtype=bool)
    for mask, _ in rules:
        bad |= mask
    i = first(bad)
    if i < table.n_rows:
        message = width_message if i == n else next(m for mask, m in rules if mask[i])
        raise error(message(table.row(i)), i + 1)


def stripped(column):
    """Labels with surrounding whitespace removed; None for a non-string."""
    try:
        return list(map(str.strip, column))
    except TypeError:
        return [x.strip() if isinstance(x, str) else None for x in column]


def ids_of(ids, labels):
    """int64 array of ids[label] per label, -1 where ids has no entry."""
    return np.fromiter(map(ids.get, labels, repeat(-1)), dtype=np.int64, count=len(labels))


def last_of_each(keys):
    """Indices of the last occurrence of each distinct key, in key order."""
    order, start = sorted_runs(keys)
    return np.maximum.reduceat(order, start) if keys.size else order


def sorted_runs(key):
    """(order, start): an argsort of key, and the positions in it at which
    each run of equal keys starts."""
    order = np.argsort(key)
    key = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order, np.flatnonzero(new)


def repeats(keys):
    """Mask of the entries whose key occurred at an earlier index."""
    order = np.argsort(keys, kind="stable")
    out = np.zeros(keys.size, dtype=bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out

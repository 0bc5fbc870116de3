"""Column-at-a-time reading and writing of CSV tables.

The loaders check and convert whole columns with numpy instead of walking
the rows in Python.  A Table knows each row's width and hands out columns:
floats(k, rows) parses field k of the given rows as float() does, and
intern(ks, rows) gives each distinct stripped label among fields ks of those
rows a code, in order of first appearance, so that Python code runs once per
distinct label rather than once per row.

read_table reads a file's bytes once.  When the only special bytes in them
are ',' and '\\n' (no '"', '\\r' or NUL), a ByteTable splits them with numpy
and keeps each field as a (begin, end) span into the buffer, with no Python
object per field.  It strips labels as str.strip does: ASCII space in
numpy, and a label that begins or ends with other space through str.strip
itself.  It interns them by a 64-bit key: a label of up to 8 bytes is its
own key, and a longer one is keyed by a hash of its bytes and checked byte
for byte against the first label with its key; the few that differ (hash
collisions) are interned through a dict.  It parses numbers
with numpy's bytes to float64 cast, which calls float() without making a
str per field, a chunk of fields at a time: a field the cast rejects sends
only its chunk through float() of each str.  A file with a quote, CR or
NUL, and every in-memory record sequence (SocialGraph.from_records), goes
through csv.reader instead, into a RowTable that keeps the fields as
Python objects in one flat list.  Both read text as Python's default csv
dialect does, with the same tables.

Text that is not UTF-8 raises ParseError naming its first undecodable line,
and so does a field longer than csv.field_size_limit(), as csv reports it.
A loader computes one mask per check over the columns and hands the first
row that fails any of them to a scalar row check, which raises the error of
that row.  Row numbers count from 1, blank rows included.

write_table writes every file cloudcut writes, and read_table reads each back.
It checks a column of labels with one regex over its joined text, and quotes
field by field only a column that the regex hits.
"""

from __future__ import annotations

import csv
import io
import re
from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParseError

_COMMA = ord(",")
# bytes that str.strip removes and that a field on the byte path can hold
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[0x09, 0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F, 0x20]] = True
# the other characters str.strip removes, those str.isspace calls space
_UNICODE_SPACE = ("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
                  + "\u2028\u2029\u202f\u205f\u3000")
# their UTF-8 bytes as big-endian integers, and their first and last bytes
_SPACE_KEYS = np.array([int.from_bytes(c.encode("utf-8"), "big") for c in _UNICODE_SPACE])
_LEAD = np.zeros(256, dtype=bool)
_LEAD[[c.encode("utf-8")[0] for c in _UNICODE_SPACE]] = True
_TRAIL = np.zeros(256, dtype=bool)
_TRAIL[[c.encode("utf-8")[-1] for c in _UNICODE_SPACE]] = True
# spaces left at a label's ends after this many rounds of ASCII stripping
# go to str.strip itself
_STRIP_ROUNDS = 4
# _MASK[r] keeps the first r bytes of a little-endian word
_MASK = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)
# longer number fields are parsed one at a time, so that no column is
# copied into an array as wide as its longest field
_FLOAT_WIDTH = 32
# number fields cast at a time: a field the cast rejects costs its chunk a
# parse field by field
_FLOAT_CHUNK = 1 << 12
# the characters that make write_table quote a str field
_SPECIAL = re.compile(r'[,"\r\n]')
_BLOCK = 1 << 16  # rows write_table renders at a time, so no file's whole text is kept


class Table:
    """Each row's width, and the flat index of each row's first field."""

    def __init__(self, widths):
        self.widths = np.asarray(widths, dtype=np.int64)
        self._row_first = np.cumsum(self.widths) - self.widths

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

    def rows(self):
        return map(self.row, range(self.n_rows))

    def ids(self, k, rows, lookup):
        """lookup(labels) -> int64 ids, applied to the distinct stripped
        labels of field k of rows and spread back over those rows."""
        codes, labels = self.intern((k,), rows)
        return lookup(labels)[codes]

    def _index(self, ks, rows):
        """Flat indices of fields ks of the first `rows` rows, or of the rows
        an index array names, row after row; each row has every field."""
        if isinstance(rows, (int, np.integer)):
            rows = slice(rows)
        return (self._row_first[rows][:, None] + np.asarray(ks, dtype=np.int64)).ravel()


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

    def _column(self, ks, rows):
        return list(map(self._fields.__getitem__, self._index(ks, rows).tolist()))

    def floats(self, k, rows):
        """(float() of field k of rows, mask of the fields float() rejects).

        Rejected fields read 0.0.
        """
        column = self._column((k,), rows)
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

    def intern(self, ks, rows):
        """(int64 code of each of fields ks of rows, row after row; the
        distinct stripped labels in order of first appearance).  A field that
        is not a string reads as the label None."""
        ids = _Interner()
        column = stripped(self._column(ks, rows))
        codes = np.fromiter(map(ids.__getitem__, column), dtype=np.int64, count=len(column))
        return codes, list(ids)


class ByteTable(Table):
    """A Table of CSV bytes with no quote, CR or NUL; fields are spans."""

    def __init__(self, data):
        size = len(data)
        # padded with NULs, so that a number field or a word read at any
        # offset stays inside the buffer
        self._data = data + bytes(_FLOAT_WIDTH)
        self._bytes = np.frombuffer(self._data, dtype=np.uint8)
        self._words = np.ndarray((size + 1,), dtype="<u8", buffer=self._data, strides=(1,))
        text = self._bytes[:size]
        end = np.flatnonzero((text == _COMMA) | (text == ord("\n")))
        if size and data[-1] != ord("\n"):
            end = np.append(end, size)  # the last line lacks its newline
        begin = np.empty_like(end)
        begin[:1] = 0
        begin[1:] = end[:-1] + 1
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
        super().__init__(widths)
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
        return self._words[begin + 8 * j] & _MASK[np.minimum(length - 8 * j, 8)]

    def floats(self, k, rows):
        """(float() of field k of rows, mask of the fields float() rejects).

        Rejected fields read 0.0.
        """
        index = self._index((k,), rows)
        begin, end = self._begin[index], self._end[index]
        values = np.zeros(index.size)
        bad = np.zeros(index.size, dtype=bool)
        length = end - begin
        fast = length <= _FLOAT_WIDTH
        width = int(length[fast].max(initial=1))
        chars = as_strided(self._bytes, (self._words.size, width), (1, 1))[begin[fast]]
        chars[np.arange(width) >= length[fast, None]] = 0
        # the cast is float() of each item's bytes (trailing NULs end an
        # item, and no field holds one); a field that only float() of its
        # str reads, with non-ASCII digits or space, fails the cast of its
        # whole chunk, whose fields are then parsed one at a time
        items = chars.view(f"S{width}").ravel()
        slow = [np.flatnonzero(~fast)]
        fast = np.flatnonzero(fast)
        for at in range(0, fast.size, _FLOAT_CHUNK):
            chunk = slice(at, at + _FLOAT_CHUNK)
            try:
                values[fast[chunk]] = items[chunk].astype(np.float64)
            except ValueError:
                slow.append(fast[chunk])
        for i in np.concatenate(slow).tolist():
            try:
                values[i] = float(self._data[begin[i]:end[i]].decode("utf-8"))
            except ValueError:
                bad[i] = True
        return values, bad

    def intern(self, ks, rows):
        """(int64 code of each of fields ks of rows, row after row; the
        distinct stripped labels in order of first appearance)."""
        index = self._index(ks, rows)
        n = index.size
        begin, end = self._strip(self._begin[index], self._end[index])
        length = end - begin
        # a label of up to 8 bytes is its own key, since it holds no NUL; a
        # longer one is keyed by its hash and checked byte for byte below
        key = np.zeros(n, dtype=np.uint64)
        short = np.flatnonzero((length > 0) & (length <= 8))
        key[short] = self._word(begin[short], length[short], 0)
        long = np.flatnonzero(length > 8)
        key[long] = _hash(length, ((sub, self._word(begin[sub], length[sub], j))
                                   for j, sub in _by_word(length, long)))[long]
        # each span's representative: the first span with its key
        order = np.argsort(key)
        sorted_key = key[order]
        run = np.flatnonzero(np.diff(sorted_key, prepend=~sorted_key[:1]))
        rep = np.empty(n, dtype=np.int64)
        if n:
            rep[order] = np.repeat(np.minimum.reduceat(order, run), np.diff(run, append=n))
        # each span's first equal span: its representative, or for the
        # spans whose bytes differ from it, the first span with those bytes
        first_of = rep
        unlike = self._unlike(begin, length, rep)
        if unlike.size:
            seen = {}
            for i in unlike.tolist():
                first_of[i] = seen.setdefault(self._data[begin[i]:end[i]], i)
        is_first = np.zeros(n, dtype=bool)
        is_first[first_of] = True
        codes = (np.cumsum(is_first) - 1)[first_of]
        return codes, self._texts(begin[is_first], end[is_first])

    def _texts(self, begin, end):
        """The spans as str, in one decode: they are joined by newlines,
        which no field holds."""
        step = end - begin + 1
        start = np.cumsum(step) - step
        joined = self._bytes[np.repeat(begin - start, step) + np.arange(int(step.sum()))]
        joined[start + step - 1] = ord("\n")
        return joined.tobytes().decode("utf-8").split("\n")[:-1]

    def _strip(self, begin, end):
        """Take the space str.strip removes off both ends of the spans, in
        place."""
        at = self._bytes
        odd = self._spaced(begin, end)
        b, e = begin[odd], end[odd]
        for _ in range(_STRIP_ROUNDS):
            b += _SPACE[at[b]] & (b < e)
            e -= _SPACE[at[e - 1]] & (b < e)
        for i in self._spaced(b, e).tolist():
            text = self._data[b[i]:e[i]].decode("utf-8")
            b[i] += len(text[:len(text) - len(text.lstrip())].encode("utf-8"))
            e[i] = b[i] + len(text.strip().encode("utf-8"))
        begin[odd], end[odd] = b, e
        return begin, end

    def _spaced(self, begin, end):
        """Indices of the spans that begin or end with a character str.strip
        removes."""
        at = self._bytes
        first, last = at[begin], at[end - 1]
        maybe = np.flatnonzero((_SPACE[first] | _SPACE[last] | _LEAD[first] | _TRAIL[last])
                               & (begin < end))
        b, e = begin[maybe], end[maybe]
        # spans begin and end on character boundaries, so a multi-byte
        # character that these bytes spell lies inside the span
        head = (at[b].astype(np.int64) << 16) | (at[b + 1].astype(np.int64) << 8) | at[b + 2]
        tail = (at[e - 3].astype(np.int64) << 16) | (at[e - 2].astype(np.int64) << 8) | at[e - 1]
        hit = (_SPACE[at[b]] | _SPACE[at[e - 1]]
               | np.isin(head >> 8, _SPACE_KEYS) | np.isin(head, _SPACE_KEYS)
               | np.isin(tail & 0xFFFF, _SPACE_KEYS) | np.isin(tail, _SPACE_KEYS))
        return maybe[hit]

    def _unlike(self, begin, length, rep):
        """Indices of the spans whose bytes differ from those of span rep,
        where spans of up to 8 bytes with one key are known to be equal."""
        unlike = length != length[rep]
        check = np.flatnonzero(~unlike & (length > 8) & (rep != np.arange(rep.size)))
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


def read_table(path):
    """Table of a headerless UTF-8 CSV file.

    Text that is not UTF-8, or that csv cannot split, raises ParseError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
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
    _, from_end = np.unique(keys[::-1], return_index=True)
    return keys.size - 1 - from_end


def repeats(keys):
    """Mask of the entries whose key occurred at an earlier index."""
    order = np.argsort(keys, kind="stable")
    out = np.zeros(keys.size, dtype=bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out

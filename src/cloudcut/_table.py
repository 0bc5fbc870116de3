"""Column-at-a-time reading of headerless CSV tables.

The loaders check and convert whole columns with numpy instead of walking
the rows in Python.  A Table holds every field of a file in one flat list,
row after row, plus each row's width.  Rows stream from csv.reader through
itertools.chain.from_iterable, so the CSV dialect is csv's own and no row
list outlives its line: kept row lists pile up in the cyclic GC's
generations, and each collection walks all of them again.

A loader computes one mask per check over the columns and hands the first
row that fails any of them to a scalar row check, which raises the error of
that row.  Row numbers count from 1, blank rows included.
"""

from __future__ import annotations

import csv
from itertools import chain, repeat

import numpy as np

from .errors import ParseError


class Table:
    """The fields of a sequence of rows, flattened, and each row's width."""

    def __init__(self, rows):
        widths = []

        def noted(rows):
            for row in rows:
                widths.append(len(row))
                yield row

        self.fields = list(chain.from_iterable(noted(rows)))
        self.widths = np.array(widths, dtype=np.int64)
        self.starts = np.cumsum(self.widths) - self.widths

    @property
    def n_rows(self):
        return int(self.widths.size)

    def prefix(self, *allowed):
        """Number of leading rows whose width is one of allowed."""
        return first(~np.isin(self.widths, allowed))

    def column(self, k, rows):
        """Field k of the first `rows` rows, or of the rows an index array
        names; each of them has more than k fields."""
        if isinstance(rows, (int, np.integer)):
            w = self.widths[:rows]
            if rows and w.min() == w.max():
                width = int(w[0])
                return self.fields[k:rows * width:width]
            rows = np.arange(rows)
        return list(map(self.fields.__getitem__, (self.starts[rows] + k).tolist()))

    def row(self, i):
        start = int(self.starts[i])
        return self.fields[start:start + int(self.widths[i])]

    def rows(self):
        return map(self.row, range(self.n_rows))


def read_table(path):
    """Table of a headerless UTF-8 CSV file.

    Text that is not UTF-8, or that csv cannot split, raises ParseError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return Table(reader)
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
        except UnicodeDecodeError:
            pass
    raise ParseError("text is not valid UTF-8", _first_undecodable_line(path))


def _first_undecodable_line(path):
    # a newline byte never occurs inside a multi-byte UTF-8 sequence, so
    # every line decodes on its own exactly when the whole text does
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


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


def floats(column):
    """(float() of each entry, mask of the entries float() rejects).

    Rejected entries read 0.0.
    """
    try:
        values = np.fromiter(map(float, column), dtype=np.float64, count=len(column))
        return values, np.zeros(len(column), dtype=bool)
    except (TypeError, ValueError):
        pass
    values = np.zeros(len(column))
    bad = np.zeros(len(column), dtype=bool)
    for i, x in enumerate(column):
        try:
            values[i] = float(x)
        except (TypeError, ValueError):
            bad[i] = True
    return values, bad


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

"""Propagation-weighted social graph: ingestion, sampling, synthesis.

Users carry dense integer ids (0..N-1) plus external string labels.  Edges are
directed and weighted; the weight of edge (u, v) is the expected volume of
content that propagates from u to v per accounting period (e.g. reshares per
day).  The accounting period itself is opaque to this package: weights are
taken as given and every downstream quantity inherits their unit.

The structure is immutable after construction.  Duplicate edge records are
summed, self-loops are rejected, and users that appear only as labels are kept
as isolated nodes.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from ._table import RowTable, first, ids_of, read_table, stripped, write_table
from .errors import ParseError, ValidationError


class SocialGraph:
    """Directed weighted social graph with dense user ids.

    Internally stores edges as parallel numpy arrays sorted by (src, dst),
    plus the merged "friend" CSR (union of both directions, with
    per-direction weights aligned).
    """

    def __init__(self, labels, src, dst, weight):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValidationError("user labels must be unique")
        if not _loadable(labels):
            raise ValidationError("user labels must be non-empty strings with no "
                                  "surrounding whitespace")
        n = len(labels)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        if not (src.shape == dst.shape == weight.shape):
            raise ValidationError("edge arrays must have equal length")
        if src.size:
            if src.min(initial=0) < 0 or dst.min(initial=0) < 0:
                raise ValidationError("edge endpoint out of range")
            if max(src.max(initial=0), dst.max(initial=0)) >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(src == dst):
                raise ValidationError("self-loops are not allowed")
            if not np.all(np.isfinite(weight)) or np.any(weight < 0):
                raise ValidationError("edge weights must be finite and non-negative")

        # one sort: every record is keyed in both directions, and the
        # distinct keys, in (row, col) order, are the friend CSR's slots.
        # Duplicate records sum into their slot in input order; the slots
        # some record fills in its own direction are the edges, in canonical
        # (src, dst) order.
        m = src.size
        key = np.concatenate([src * n + dst, dst * n + src])
        uniq, inv = np.unique(key, return_inverse=True)

        def slot_sums(records):
            # bincount of no records returns integers
            sums = np.bincount(records, weights=weight, minlength=uniq.size)
            return sums.astype(np.float64, copy=False)

        wout = slot_sums(inv[:m])
        win = slot_sums(inv[m:])
        row = uniq // n
        col = uniq % n
        edge = np.bincount(inv[:m], minlength=uniq.size) > 0

        self._labels = labels
        self._ids = {lab: i for i, lab in enumerate(labels)}
        self._src = row[edge]
        self._dst = col[edge]
        self._w = wout[edge]
        self._friends = (_offsets(n, row), col, wout, win)
        for arr in (self._src, self._dst, self._w, *self._friends):
            arr.setflags(write=False)
        self._conn_cache = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records):
        """Build from (src_label, dst_label, weight) records.

        Labels are stripped of surrounding whitespace and get dense ids in
        order of first appearance.
        """
        return cls._from_table(RowTable(records))

    @classmethod
    def _from_table(cls, table):
        n = table.prefix(3)
        ends, labels = table.intern((0, 1), n)
        src, dst = ends[0::2], ends[1::2]
        weight, bad = table.floats(2, n)
        blank = np.array([not lab for lab in labels], dtype=bool)
        bad |= blank[src] | blank[dst] | (src == dst) | ~np.isfinite(weight) | (weight < 0)
        i = first(bad)
        if i < table.n_rows:
            _check_edge_row(table.row(i), i + 1)
        return cls(labels, src, dst, weight)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_users(self):
        return len(self._labels)

    @property
    def n_edges(self):
        return int(self._src.size)

    @property
    def labels(self):
        return self._labels

    def user_ids(self, labels):
        """int64 array of the ids of a sequence of labels, -1 for a label
        not in the graph."""
        return ids_of(self._ids, labels)

    def label_of(self, user):
        return self._labels[user]

    def edge_arrays(self):
        """(src, dst, weight) arrays sorted by (src, dst); read-only views."""
        return self._src, self._dst, self._w

    def friends(self, u):
        """Users sharing at least one edge with u in either direction."""
        off, nbr, _, _ = self._friends
        return nbr[off[u]:off[u + 1]]

    def friend_csr(self):
        """Raw merged-adjacency arrays (offsets, neighbors, w_out, w_in)."""
        return self._friends

    # -- connections -------------------------------------------------------

    def connection_arrays(self):
        """(a, b, w_ab, w_ba) arrays over unordered pairs a < b, sorted by
        (a, b): the friend CSR's row < col entries, with the weight of each
        direction (0.0 where that edge is absent)."""
        if self._conn_cache is None:
            off, nbr, wout, win = self._friends
            row = np.repeat(np.arange(self.n_users), np.diff(off))
            upper = row < nbr
            conns = (row[upper], nbr[upper], wout[upper], win[upper])
            for arr in conns:
                arr.setflags(write=False)
            self._conn_cache = conns
        return self._conn_cache

    @property
    def n_connections(self):
        return int(self.connection_arrays()[0].size)

    # -- serialization -----------------------------------------------------

    def to_csv(self, path):
        """Write headerless src_label,dst_label,weight rows (UTF-8, LF)."""
        labels = np.array(self._labels, dtype=object)
        write_table(path, [labels[self._src], labels[self._dst], self._w])

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, user_ids):
        """Induced subgraph on user_ids; new ids follow ascending old ids."""
        keep = np.unique(np.asarray(list(user_ids), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n_users):
            raise ValidationError("subgraph user id out of range")
        remap = np.full(self.n_users, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        mask = (remap[self._src] >= 0) & (remap[self._dst] >= 0)
        labels = [self._labels[i] for i in keep]
        return SocialGraph(labels, remap[self._src[mask]], remap[self._dst[mask]], self._w[mask])


def _check_edge_row(row, line):
    """Raise the ParseError of an edge row that fails a check."""
    if len(row) != 3:
        raise ParseError(f"expected 3 fields, got {len(row)}", line)
    a, b, w = row
    a, b = stripped((a, b))
    for lab in (a, b):
        if not lab:
            raise ParseError("user label must be a non-empty string", line)
    if a == b:
        raise ParseError(f"self-loop on user {a!r}", line)
    try:
        w = float(w)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"bad weight {w!r}", line) from None
    raise ParseError(f"weight must be finite and non-negative, got {w}", line)


def _loadable(labels):
    """Whether each label is a non-empty str that str.strip leaves as it is,
    as load_graph reads labels, so that to_csv writes a file that loads."""
    try:
        return all(map(str.__eq__, map(str.strip, labels), labels)) and "" not in labels
    except TypeError:  # a label that is not a str
        return False


def _offsets(n, row):
    """CSR offsets of a row array sorted ascending."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=off[1:])
    return off


def load_graph(source):
    """Load a graph from an edge table.

    source may be a path to a headerless CSV (src_label,dst_label,weight,
    UTF-8, LF), or an iterable of (src_label, dst_label, weight) records.
    Labels are stripped of surrounding whitespace.  Duplicate ordered pairs
    are summed; self-loops and negative weights raise ParseError with the
    offending line number.
    """
    if isinstance(source, (str, Path)):
        return SocialGraph._from_table(read_table(source))
    return SocialGraph.from_records(source)


def bfs_sample(graph, seed_count, target_size, rng_seed):
    """Breadth-first sample of target_size users around random seed users.

    Seeds are drawn uniformly without replacement, enqueued in ascending id
    order, and the frontier expands FIFO with neighbors visited in ascending
    id order.  Returns the induced subgraph.  If the reachable set is
    exhausted before target_size (or target_size exceeds the graph), the full
    reachable set is returned and a UserWarning flags the truncation.
    """
    if graph.n_users == 0:
        raise ValidationError("cannot sample an empty graph")
    if seed_count < 1:
        raise ValidationError("seed_count must be >= 1")
    if target_size < seed_count:
        raise ValidationError("target_size must be >= seed_count")
    if seed_count > graph.n_users:
        raise ValidationError("seed_count exceeds number of users")

    rng = np.random.default_rng(rng_seed)
    seeds = np.sort(rng.choice(graph.n_users, size=seed_count, replace=False))

    effective_target = min(target_size, graph.n_users)
    visited = set(int(s) for s in seeds)
    queue = list(int(s) for s in seeds)
    head = 0
    while head < len(queue) and len(visited) < effective_target:
        u = queue[head]
        head += 1
        for v in graph.friends(u):
            v = int(v)
            if v not in visited:
                visited.add(v)
                queue.append(v)
                if len(visited) >= effective_target:
                    break
    if len(visited) < target_size:
        warnings.warn(
            f"bfs_sample stopped at {len(visited)} users (target {target_size}): "
            "sample is self-contained",
            UserWarning,
            stacklevel=2,
        )
    return graph.subgraph(visited)


def synth_graph(n_users, mean_degree, weight_tail_exponent, rng_seed):
    """Random directed graph with heavy-tailed propagation weights.

    Draws round(n_users * mean_degree) candidate edges with uniform random
    endpoints, drops self-loops, merges duplicate ordered pairs, and assigns
    each edge an integer weight from a discrete power law (Zipf) with the
    given tail exponent (> 1).  Labels are "u0".."u{n-1}".  Deterministic for
    a fixed rng_seed.
    """
    if n_users < 2:
        raise ValidationError("n_users must be >= 2")
    # checked before any draw: a user has at most n_users - 1 out-neighbours
    if not 0 < mean_degree <= n_users - 1:
        raise ValidationError(f"mean_degree must be in (0, n_users - 1 = {n_users - 1}], "
                              f"got {mean_degree!r}")
    if weight_tail_exponent <= 1:
        raise ValidationError("weight_tail_exponent must be > 1")

    rng = np.random.default_rng(rng_seed)
    m = int(round(n_users * mean_degree))
    src = rng.integers(0, n_users, size=m, dtype=np.int64)
    dst = rng.integers(0, n_users, size=m, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.zipf(weight_tail_exponent, size=src.size).astype(np.float64)
    labels = [f"u{i}" for i in range(n_users)]
    return SocialGraph(labels, src, dst, w)

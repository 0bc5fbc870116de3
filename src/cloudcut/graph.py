"""Propagation-weighted social graph: ingestion, sampling, synthesis.

Users carry dense integer ids (0..N-1) plus external string labels.  Edges are
directed and weighted; the weight of edge (u, v) is the expected volume of
content that propagates from u to v per accounting period (e.g. reshares per
day).  The accounting period itself is opaque to this package: weights are
taken as given and every downstream quantity inherits their unit.

The structure is immutable after construction.  Duplicate edge records are
summed, self-loops are rejected, and users that appear only as labels are kept
as isolated nodes.

The build sorts once.  Each edge record is keyed as row * n_users + col in
both directions, and the 2m keys are sorted together with their record
indices, packed as one uint64 word per record: the key in the high bits, the
index in the low ones.  A key takes 2 * log2(n_users) bits and an index
log2(2m), so up to 64 bits (3e4 users and 3e5 edges take 50) the sort is one
np.sort in place.  Past 64 bits (1e6 users and 1e7 edges take 65) the key's
top bits pick a bucket and each bucket sorts on its own, by the same code.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from ._table import RowTable, ids_of, read_table, refuse, write_table
from .errors import ValidationError

# the width in bits of the graph build's packed sort word (see _sort_records)
_WORD_BITS = 64


class SocialGraph:
    """Directed weighted social graph with dense user ids.

    Immutable: it stores edges as parallel read-only numpy arrays sorted by
    (src, dst), plus the merged "friend" CSR (union of both directions, with
    per-direction weights aligned), and nothing derived from them.  There is
    no cache: connection_arrays() derives the connections on each call.

    Both come from one packed sort of the records' two-way keys (see the
    module docstring for its bit budget).  Equal keys come out in record
    order, so one bincount over the sorted records sums each slot's
    duplicates in record order, and no record is scattered back.
    """

    def __init__(self, labels, src, dst, weight):
        labels = tuple(labels)
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
        # distinct keys, in (row, col) order, are the friend CSR's slots
        m = src.size
        key, rec = _sort_records(np.concatenate([src * n + dst, dst * n + src]), n * n)
        new = np.empty(key.size, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        first = np.flatnonzero(new)
        slot_key = key[first]
        del key
        # ties come out in record order, so a slot's first record is its
        # least: the slot is an edge when that record keys its own direction
        is_edge = rec[first] < m
        del first
        # one bincount over the sorted records sums each slot's records in
        # record order: bin s takes slot s's own direction, bin S + s the other
        S = slot_key.size
        w = np.take(weight, rec, mode="wrap")  # record m + e is edge e reversed
        other = rec >= m
        bins = np.cumsum(new, out=rec)
        del rec, new
        bins -= 1
        bins += other * S
        del other
        # bincount of no records returns integers
        sums = np.bincount(bins, weights=w, minlength=2 * S).astype(np.float64, copy=False)
        del bins, w
        wout, win = sums[:S], sums[S:]
        edge = np.flatnonzero(is_edge)
        del is_edge
        off = np.searchsorted(slot_key, np.arange(n + 1) * n)
        self._src = slot_key[edge]
        self._src //= n
        col = np.remainder(slot_key, n, out=slot_key)
        self._dst = col[edge]
        self._w = wout[edge]
        del edge
        self._friends = (off, col, wout, win)
        # the label dict is made last, so that the build does not hold it;
        # its size finds duplicate labels
        self._ids = dict(zip(labels, range(n)))
        if len(self._ids) != n:
            raise ValidationError("user labels must be unique")
        self._labels = labels
        for arr in (self._src, self._dst, self._w, *self._friends):
            arr.setflags(write=False)

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
        direction (0.0 where that edge is absent).  Built anew on each call."""
        off, nbr, wout, win = self._friends
        row = np.repeat(np.arange(self.n_users), np.diff(off))
        upper = row < nbr
        return row[upper], nbr[upper], wout[upper], win[upper]

    @property
    def n_connections(self):
        # each connection fills two slots of the friend CSR, one per endpoint
        return int(self._friends[1].size) // 2

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


def _loadable(labels):
    """Whether each label is a non-empty str that str.strip leaves as it is,
    as load_graph reads labels, so that to_csv writes a file that loads."""
    try:
        return all(map(str.__eq__, map(str.strip, labels), labels)) and "" not in labels
    except TypeError:  # a label that is not a str
        return False


def _sort_records(key, n_keys):
    """key's entries, keys in [0, n_keys), sorted by (key, index): returns
    the sorted keys and each one's index in key.

    Each record sorts as one word of _WORD_BITS bits that holds its key's
    low bits above its index, so that equal keys come out in record order.
    The key's bits that do not fit beside the index name its bucket: an
    argsort on them groups the records by bucket, and each bucket sorts on
    its own.  While a key and an index fit in one word together, that is
    for n_keys up to 2**_WORD_BITS / len(key), there is one bucket.
    """
    rec_bits = max(1, (key.size - 1).bit_length())
    low_bits = _WORD_BITS - rec_bits
    n_buckets = ((max(n_keys, 1) - 1) >> low_bits) + 1
    high = (key >> low_bits).astype(np.min_scalar_type(n_buckets - 1))
    order = np.argsort(high, kind="stable")  # a radix sort up to 2**16 buckets
    bounds = np.searchsorted(high[order], np.arange(n_buckets + 1)).tolist()
    del high
    word = key[order].view(np.uint64)
    del key
    word &= (1 << low_bits) - 1
    word <<= rec_bits
    word |= order.view(np.uint64)
    del order
    records = np.empty(word.size, dtype=np.int64)
    for h, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        part = word[start:stop]
        part.sort()
        np.bitwise_and(part, (1 << rec_bits) - 1, out=records[start:stop].view(np.uint64))
        part >>= rec_bits
        part |= h << low_bits
    return word.view(np.int64), records


def load_graph(source):
    """Load a graph from an edge table.

    source may be a path to a headerless CSV (src_label,dst_label,weight,
    UTF-8, LF), or an iterable of (src_label, dst_label, weight) records.
    Labels are stripped of surrounding whitespace.  Duplicate ordered pairs
    are summed; self-loops and negative weights raise ParseError with the
    offending line number.  The edge table is freed before the graph is
    built, so that the two are never held at once.
    """
    table = read_table(source) if isinstance(source, (str, Path)) else RowTable(source)
    n = table.prefix(3)
    ends, labels = table.intern((0, 1), n)
    src, dst = ends[0::2], ends[1::2]
    (weight,), (bad_weight,) = table.floats((2,), n)
    blank = np.array([not lab for lab in labels], dtype=bool)
    refuse(table, n, [
        (blank[src] | blank[dst], lambda row: "user label must be a non-empty string"),
        (src == dst, lambda row: f"self-loop on user {row[0].strip()!r}"),
        (bad_weight, lambda row: f"bad weight {row[2]!r}"),
        (~(np.isfinite(weight) & (weight >= 0)),
         lambda row: f"weight must be finite and non-negative, got {float(row[2])}"),
    ], lambda row: f"expected 3 fields, got {len(row)}")
    del table, bad_weight, blank
    return SocialGraph(labels, src, dst, weight)


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


def synth_graph(n_users, mean_degree, weight_exponent, rng_seed):
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
    if not weight_exponent > 1:
        raise ValidationError(f"weight_exponent must be > 1, got {weight_exponent!r}")

    rng = np.random.default_rng(rng_seed)
    m = int(round(n_users * mean_degree))
    src = rng.integers(0, n_users, size=m, dtype=np.int64)
    dst = rng.integers(0, n_users, size=m, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.zipf(weight_exponent, size=src.size).astype(np.float64)
    labels = [f"u{i}" for i in range(n_users)]
    return SocialGraph(labels, src, dst, w)

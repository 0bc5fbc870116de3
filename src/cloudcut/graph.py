"""Propagation-weighted social graph: ingestion, sampling, synthesis.

Users carry dense integer ids (0..N-1) plus external string labels.  Edges are
directed and weighted; the weight of edge (u, v) is the expected volume of
content that propagates from u to v per accounting period (e.g. reshares per
day).  The accounting period itself is opaque to this package: weights are
taken as given and every downstream quantity inherits their unit.

The structure is immutable after construction.  Duplicate edge records are
summed, self-loops are rejected, and users that appear only as labels are kept
as isolated nodes.

The graph is one adjacency structure, the friend CSR: a row per user, with a
slot for each user that shares a record with it in either direction, sorted by
neighbour and holding both directions' weights, and a mask of the slots whose
own direction (row to neighbour) has a record.  The edge list is the masked
slots in slot order, which is (src, dst) order; edge_arrays() derives it on
each call.

The build sorts once.  Each edge record is keyed as row * n_users + col in
both directions, and the 2m keys are sorted together with their records,
packed as one uint64 word per record: the key in the high bits, the record
in the low ones.  A key takes 2 * log2(n_users) bits and a record log2(2m),
so up to 64 bits (3e4 users and 3e5 edges take 50) the sort is one np.sort
in place.  Past 64 bits (1e6 users and 1e7 edges take 65) the key's top bits
pick a bucket and each bucket sorts on its own, by the same code.

The sort words and one bool per record, marking where slots start, are the
only arrays the build holds that span every record: it makes the words, and
reads them back into the CSR, a block of records at a time.  Slot s starts
at record s or later, so the CSR's neighbour column is written over the words
and the edge mask over the bools, which are then shrunk to one entry a slot.
The loaders hand their endpoint arrays over to the build, which frees them
once the words are made.  The label index (a LabelIndex, which user_ids and
the side-table loaders look labels up in) of a graph that load_graph reads
from a file is the table the labels were interned in, when no label needed
stripping: the edge table grows it as it interns the labels and hands it over
with them.  Any other graph builds its index on first use: load_graph builds
it once the build's arrays are freed, and a synthetic graph, which no file
names by label, never does.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from ._table import Interned, LabelIndex, RowTable, read_table, refuse, write_table
from .errors import ValidationError

# the width in bits of the graph build's packed sort word (see _sorted_words)
_WORD_BITS = 64
# records per block in the graph build's passes over its sort words
_RECORDS = 1 << 13
# friend-CSR slots per block of rows in the passes over the whole CSR (see
# SocialGraph.row_blocks)
_BLOCK = 1 << 14
# uniform pairs per chunk of the synthetic weight draw (see _zipf_weights)
_PAIRS = 1 << 13
# how far np.power may stray from the C library's pow, relative to its
# result; numpy's own AVX-512 pow differs from glibc's by at most 1 ulp
# (2**-52) on a Xeon with AVX-512
_POW_SLACK = 8 * 2.0**-52
# (double) INT64_MAX, the largest Zipf draw numpy keeps
_ZIPF_TOP = 2.0**63


class SocialGraph:
    """Directed weighted social graph with dense user ids.

    Immutable: it stores the merged "friend" CSR (union of both directions,
    with per-direction weights aligned) and its edge mask, one read-only bool
    per slot that is True where the slot's own direction has at least one
    record, zero-weight records included.  There is no cache: edge_arrays()
    and connection_arrays() pick their slots anew on each call.

    Both come from one packed sort of the records' two-way keys (see the
    module docstring for its bit budget).  Equal keys come out in record
    order, so a bincount over each block of sorted records sums each of its
    slots' duplicates in record order from 0.0, and no record is scattered
    back: the build holds the sort words, a bool per record and the two
    weight columns, and no other array longer than a block, since it writes
    the neighbour column and the edge mask over the words and the bools.
    """

    def __init__(self, labels, src, dst, weight):
        # load_graph hands its labels over as the Interned that a ByteTable
        # gave, with their index, once it has refused a blank one: they are
        # distinct and strip-clean, and are not checked again
        index = labels.index if isinstance(labels, Interned) else None
        labels = tuple(labels)
        if index is None and not _loadable(labels):
            raise ValidationError("user labels must be non-empty strings with no "
                                  "surrounding whitespace")
        n = len(labels)
        # the loaders hand their endpoints over in an _Ends, which the build
        # empties; a caller that passes src and dst keeps its own references
        ends = src if isinstance(src, _Ends) else _Ends((src, dst))
        ends[:] = [np.asarray(a, dtype=np.int64) for a in ends]
        src, dst = ends
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
        # checked before the sort words: the set is never held beside them
        if index is None and len(set(labels)) != n:
            raise ValidationError("user labels must be unique")
        del src, dst

        # one sort: every record is keyed in both directions, and the
        # distinct keys, in (row, col) order, are the friend CSR's slots
        self._friends, self._is_edge = _slots(*_sorted_words(ends, n), n, weight)
        self._labels = labels
        self._index = index  # the LabelIndex of the labels, made on first use if None
        for arr in (*self._friends, self._is_edge):
            arr.setflags(write=False)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_users(self):
        return len(self._labels)

    @property
    def n_edges(self):
        return int(np.count_nonzero(self._is_edge))

    @property
    def labels(self):
        return self._labels

    @property
    def label_index(self):
        """The LabelIndex of the users' labels, built on first use."""
        if self._index is None:
            self._index = LabelIndex(self._labels)
        return self._index

    def user_ids(self, labels):
        """int64 array of the ids of a sequence of labels, -1 for a label
        not in the graph."""
        return self.label_index.ids(labels)

    def label_of(self, user):
        return self._labels[user]

    def edge_arrays(self):
        """(src, dst, weight) arrays sorted by (src, dst): the friend CSR's
        edge slots, with their own direction's weight.  Built anew on each
        call; read-only."""
        _, nbr, wout, _ = self._friends
        return self._pick(self._is_edge, nbr, wout)

    def friends(self, u):
        """Users sharing at least one edge with u in either direction."""
        off, nbr, _, _ = self._friends
        return nbr[off[u]:off[u + 1]]

    def friend_csr(self):
        """Raw merged-adjacency arrays (offsets, neighbors, w_out, w_in)."""
        return self._friends

    def edge_mask(self):
        """Read-only bool per friend-CSR slot: True where the slot's own
        direction (row to neighbour) is an edge, of any weight."""
        return self._is_edge

    def row_blocks(self):
        """The friend CSR in blocks of whole rows, for passes over every slot
        that hold no temporary longer than a block: yields (rows, slots, row),
        a block's slices of users and of slots, and each slot's user less
        rows.start.  A block takes as many rows as fit in _BLOCK slots, and at
        least one; a graph with no users is one empty block."""
        off = self._friends[0]
        n = self.n_users
        lo = 0
        while True:
            hi = int(np.searchsorted(off, off[lo] + _BLOCK, side="right")) - 1
            hi = min(max(hi, lo + 1), n)
            row = np.repeat(np.arange(hi - lo), np.diff(off[lo:hi + 1]))
            yield slice(lo, hi), slice(int(off[lo]), int(off[hi])), row
            if hi == n:
                return
            lo = hi

    # -- connections -------------------------------------------------------

    def connection_arrays(self):
        """(a, b, w_ab, w_ba) arrays over unordered pairs a < b, sorted by
        (a, b): the friend CSR's row < col entries, with the weight of each
        direction (0.0 where that edge is absent).  Built anew on each call."""
        off, nbr, wout, win = self._friends
        upper = np.repeat(np.arange(self.n_users), np.diff(off)) < nbr
        return self._pick(upper, nbr, wout, win)

    def _pick(self, mask, *per_slot):
        """The CSR slots where mask holds, in slot order: each one's row,
        then each per-slot array taken at them, all read-only."""
        slots = np.flatnonzero(mask)
        counts = np.diff(np.searchsorted(slots, self._friends[0]))
        picked = (np.repeat(np.arange(self.n_users), counts), *(a.take(slots) for a in per_slot))
        for arr in picked:
            arr.setflags(write=False)
        return picked

    @property
    def n_connections(self):
        # each connection fills two slots of the friend CSR, one per endpoint
        return int(self._friends[1].size) // 2

    # -- serialization -----------------------------------------------------

    def to_csv(self, path):
        """Write headerless src_label,dst_label,weight rows (UTF-8, LF)."""
        labels = np.array(self._labels, dtype=object)
        src, dst, w = self.edge_arrays()
        write_table(path, [labels[src], labels[dst], w])

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, user_ids):
        """Induced subgraph on user_ids; new ids follow ascending old ids."""
        keep = np.unique(np.asarray(list(user_ids), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n_users):
            raise ValidationError("subgraph user id out of range")
        remap = np.full(self.n_users, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        src, dst, w = self.edge_arrays()
        mask = (remap[src] >= 0) & (remap[dst] >= 0)
        labels = [self._labels[i] for i in keep]
        return SocialGraph(labels, remap[src[mask]], remap[dst[mask]], w[mask])


def _loadable(labels):
    """Whether each label is a non-empty str that str.strip leaves as it is,
    as load_graph reads labels, so that to_csv writes a file that loads."""
    try:
        return all(map(str.__eq__, map(str.strip, labels), labels)) and "" not in labels
    except TypeError:  # a label that is not a str
        return False


class _Ends(list):
    """[src, dst], handed to SocialGraph in place of src (dst None) by a
    caller that keeps no other reference to them: the build takes both out
    and frees them once it has made its sort words."""


def _sorted_words(ends, n):
    """The 2m two-way records of the m edges src -> dst among n users, as
    sort words (see the module docstring): returns (word, bounds, edge_bits),
    bucket h's words being word[bounds[h]:bounds[h + 1]], each sorted.

    src and dst are taken out of ends, the list [src, dst], and no longer
    held once the words are made: the sort and the CSR need only the words.
    """
    word, bounds, edge_bits = _words(ends, n)
    for start, stop in zip(bounds, bounds[1:]):
        word[start:stop].sort()
    return word, bounds, edge_bits


def _words(ends, n):
    """_sorted_words' words, each in its bucket but not yet sorted; empties
    ends.

    Record e keys edge e as src * n + dst, and record 2**edge_bits + e keys
    it reversed, so that a key's records sort own direction first, each in
    edge order.  The words are made _RECORDS edges at a time: in place with
    one bucket, and with several through a stable argsort of the block's
    bucket ids, which puts each record at its bucket's end so far.
    """
    src, dst = ends
    ends.clear()
    m = src.size
    edge_bits = max(m - 1, 0).bit_length()
    rec_bits = edge_bits + 1
    low_bits = _WORD_BITS - rec_bits
    n_buckets = ((max(n * n, 1) - 1) >> low_bits) + 1
    # (first word, first record, key rows, key columns) of each block
    blocks = [(at + i, rec + i, a[i:i + _RECORDS], b[i:i + _RECORDS])
              for at, rec, a, b in ((0, 0, src, dst), (m, 1 << edge_bits, dst, src))
              for i in range(0, m, _RECORDS)]
    counts = [2 * m]
    if n_buckets > 1:
        counts = sum(np.bincount((a * n + b) >> low_bits, minlength=n_buckets)
                     for _, _, a, b in blocks)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    end = bounds[:-1].copy()
    word = np.empty(2 * m, dtype=np.uint64)
    for at, rec, a, b in blocks:
        key = word[at:at + a.size].view(np.int64) if n_buckets == 1 else np.empty(a.size, np.int64)
        np.multiply(a, n, out=key)
        key += b
        if n_buckets > 1:
            high = (key >> low_bits).astype(np.min_scalar_type(n_buckets - 1))
            order = np.argsort(high, kind="stable")  # a radix sort up to 2**16 buckets
            high = high[order]
        part = key.view(np.uint64)
        part &= (1 << low_bits) - 1
        part <<= rec_bits
        part |= np.arange(rec, rec + part.size, dtype=np.uint64)
        if n_buckets > 1:
            first = np.searchsorted(high, np.arange(n_buckets))
            word[(end - first)[high] + np.arange(part.size)] = part[order]
            end += np.diff(first, append=part.size)
    return word, bounds.tolist(), edge_bits


def _slots(word, bounds, edge_bits, n, weight):
    """The friend CSR (off, col, w_out, w_in) and its edge mask, from the
    output of _sorted_words, whose words become the neighbour column.

    One bool per word marks where a slot starts.  The words are then read in
    blocks of about _RECORDS that end where a slot starts, so that one
    bincount per block sums each of its k slots whole, in edge order from
    0.0: bin s for slot s's own direction, bin k + s for the other.  A slot
    is an edge when its least record keys its own direction.

    Slot s starts at record s or later, so its neighbour is written over word s
    and its edge flag over mark s, once its block has taken what it reads
    from its words and marks.  The words and the marks are then shrunk in
    place to one entry a slot, with no view of either alive.
    """
    rec_bits = edge_bits + 1
    low_bits = _WORD_BITS - rec_bits
    new = np.empty(len(word), dtype=bool)
    for start, stop in zip(bounds, bounds[1:]):
        new[start:start + 1] = True  # an empty bucket's start is the next one's
        for i in range(start + 1, stop, _RECORDS):
            key = word[i - 1:min(i + _RECORDS, stop)] >> rec_bits
            np.not_equal(key[1:], key[:-1], out=new[i:i + key.size - 1])
    n_slots = int(np.count_nonzero(new))
    off = np.zeros(n + 1, dtype=np.int64)
    col = word.view(np.int64)
    w_out = np.empty(n_slots)
    w_in = np.empty(n_slots)
    s = 0
    for h, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        i = start
        while i < stop:
            j = min(i + _RECORDS, stop)
            if j < stop:
                k = int(new[j:stop].argmax())
                j = j + k if new[j + k] else stop
            # the block takes all it reads from its words and marks before
            # its slots, s to s + k - 1, are written over them
            part = word[i:j]
            key = part[np.flatnonzero(new[i:j])]
            k = key.size
            bins = np.cumsum(new[i:j])
            bins -= 1
            other = ((part >> edge_bits) & 1).view(np.int64)
            other *= k
            bins += other
            edge = (part & ((1 << edge_bits) - 1)).view(np.int64)
            del part, other
            new[s:s + k] = (key & (1 << edge_bits)) == 0
            key >>= rec_bits
            key |= h << low_bits
            key = key.view(np.int64)
            row = key // n
            np.multiply(row, n, out=col[s:s + k])
            np.subtract(key, col[s:s + k], out=col[s:s + k])
            off[row[0] + 1:row[-1] + 2] += np.bincount(row - row[0])
            del key, row
            sums = np.bincount(bins, weights=weight.take(edge), minlength=2 * k)
            w_out[s:s + k] = sums[:k]
            w_in[s:s + k] = sums[k:]
            del bins, edge, sums
            s += k
            i = j
    np.cumsum(off, out=off)
    # refcheck would count the caller's references too; what matters is that
    # no view of either array is alive, and col was the last
    del col
    word.resize(n_slots, refcheck=False)
    new.resize(n_slots, refcheck=False)
    return (off, word.view(np.int64), w_out, w_in), new


def load_graph(source):
    """Load a graph from an edge table.

    source may be a path to a headerless CSV (src_label,dst_label,weight,
    UTF-8, LF), or an iterable of (src_label, dst_label, weight) records.
    Labels are stripped of surrounding whitespace.  Duplicate ordered pairs
    are summed; self-loops and negative weights raise ParseError with the
    offending line number.  The edge table is freed before the graph is
    built, so that the two are never held at once, and the endpoint arrays
    once the build has made its sort words.
    """
    table = read_table(source) if isinstance(source, (str, Path)) else RowTable(source)
    n = table.prefix(3)
    codes, labels = table.intern((0, 1), n)
    src, dst = codes[0::2], codes[1::2]
    (weight,), (bad_weight,) = table.floats((2,), n)
    blank = np.array([not lab for lab in labels], dtype=bool)
    refuse(table, n, [
        (blank[src] | blank[dst], lambda row: "user label must be a non-empty string"),
        (src == dst, lambda row: f"self-loop on user {row[0].strip()!r}"),
        (bad_weight, lambda row: f"bad weight {row[2]!r}"),
        (~(np.isfinite(weight) & (weight >= 0)),
         lambda row: f"weight must be finite and non-negative, got {float(row[2])}"),
    ], lambda row: f"expected 3 fields, got {len(row)}")
    # the endpoints are views of codes, which the build frees with them
    ends = _Ends((src, dst))
    del table, bad_weight, blank, codes, src, dst
    graph = SocialGraph(labels, ends, None, weight)
    # the side tables and assignments of a loaded graph name its users by
    # label: a label index the edge table did not hand over is made now,
    # when the build's arrays are freed, and not on top of the first side
    # table's ingest
    graph.user_ids(())
    return graph


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

    The weights are rng.zipf(weight_exponent) bit for bit, drawn a chunk of
    uniform pairs at a time by _zipf_weights.  That leaves rng past the last
    chunk rather than past the last pair the draw used, so a later draw from
    rng would change every output; none is made.
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
    ends = _Ends((src[keep], dst[keep]))
    del src, dst, keep
    w = _zipf_weights(rng, weight_exponent, ends[0].size)
    labels = [f"u{i}" for i in range(n_users)]
    return SocialGraph(labels, ends, None, w)


def _zipf_weights(rng, a, m):
    """float64 array equal bit for bit to rng.zipf(a, size=m), for a > 1.

    numpy draws each value by Devroye's rejection rule, one trial at a time
    from two of rng's doubles, U01 and V:

        am1 = a - 1, b = 2**am1, Umin = INT64_MAX**-am1
        U = U01*Umin + (1 - U01), X = floor(U**(-1/am1))
        reject X > INT64_MAX or X < 1; T = (1 + 1/X)**am1
        accept X when V*X*(T - 1)/(b - 1) <= T/b

    and returns ones, drawing nothing, for a >= 1025.  This replays the rule
    on _PAIRS trials at a time from rng.random((_PAIRS, 2)), the same stream
    of doubles, and writes each chunk's accepted X in order into the output.
    np.power may differ from C's pow in the last bit, so wherever the floor
    or the accept test could turn on that bit, the power is taken again with
    math.pow, which calls the same C pow.  rng is left past the last chunk.
    """
    out = np.ones(m)
    if a >= 1025:
        return out
    am1 = a - 1.0
    b = math.pow(2.0, am1)
    umin = math.pow(_ZIPF_TOP, -am1)
    exponent = -1.0 / am1
    done = 0
    # U01 * Umin underflows once Umin is tiny, as it does in C
    with np.errstate(under="ignore"):
        while done < m:
            u01, v = rng.random((_PAIRS, 2)).T
            u = u01 * umin + (1.0 - u01)
            p = np.power(u, exponent)
            # the floor is sure where every power within the slack has the
            # same one; past INT64_MAX every power is rejected alike
            x = np.floor(p * (1.0 - _POW_SLACK))
            unsure = (x != np.floor(p * (1.0 + _POW_SLACK))) & (x <= _ZIPF_TOP)
            _repow(p, unsure, u, exponent)
            # X takes p's buffer, and the accept test's temporaries the
            # place of u's and the band's, for a smaller peak a chunk
            del u, x
            x = np.floor(p, out=p)
            base = 1.0 + 1.0 / x
            t = np.power(base, am1)
            vx = v * x
            # both sides grow with T, so the test is sure where it holds
            # with T at the top of its slack on the left and at the bottom on
            # the right, or fails the other way round
            lo, hi = t * (1.0 - _POW_SLACK), t * (1.0 + _POW_SLACK)
            unsure = vx * (hi - 1.0) / (b - 1.0) > lo / b
            unsure &= vx * (lo - 1.0) / (b - 1.0) <= hi / b
            del lo, hi
            _repow(t, unsure, base, am1)
            # X = 2**63 passes as in C, where its int64 cast is the
            # platform's; a trial draws it far less often than 1 in 2**50
            accept = (vx * (t - 1.0) / (b - 1.0) <= t / b) & (x <= _ZIPF_TOP) & (x >= 1.0)
            got = x[accept][:m - done]
            out[done:done + got.size] = got
            done += got.size
    return out


def _repow(power, where, base, exponent):
    """Take power[where] again as C's pow(base, exponent)."""
    at = np.flatnonzero(where)
    if at.size:
        power[at] = [math.pow(x, exponent) for x in base[at].tolist()]

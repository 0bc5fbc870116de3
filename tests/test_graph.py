import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import ParseError, SocialGraph, ValidationError, default_profiles
from cloudcut import graph as graph_module
from cloudcut._table import ByteTable
from cloudcut.graph import bfs_sample, load_graph, synth_graph
from oracles import edge_weight, friend_arrays, naive_graph_arrays, traced_peak


def test_duplicate_directed_edges_are_summed():
    g = load_graph([("a", "b", 1.5), ("a", "b", 2.0), ("b", "a", 0.5)])
    assert g.n_users == 2
    assert g.n_edges == 2
    assert edge_weight(g, 0, 1) == pytest.approx(3.5)
    assert edge_weight(g, 1, 0) == pytest.approx(0.5)


def test_labels_get_ids_in_first_appearance_order():
    g = load_graph([("carol", "bob", 1.0), ("alice", "carol", 2.0)])
    assert g.labels == ("carol", "bob", "alice")
    assert g.user_ids(["alice"]).tolist() == [2]
    assert g.label_of(1) == "bob"


def test_isolated_extra_users_are_kept():
    g = SocialGraph(["a", "b", "loner"], [0], [1], [1.0])
    assert g.labels == ("a", "b", "loner")
    assert g.friends(2).size == 0
    assert g.n_connections == 1


@pytest.mark.parametrize("labels", [[" a", "b"], ["a", "b\n"], ["", "b"], [None, "b"],
                                    [1, "b"]])
def test_labels_the_loader_would_refuse_or_change_are_rejected(labels):
    # load_graph strips labels and refuses an empty one, so to_csv could not
    # write such a graph as a file that loads back as itself
    with pytest.raises(ValidationError, match="non-empty strings"):
        SocialGraph(labels, [0], [1], [1.0])


@pytest.mark.parametrize("labels, src, dst, weight, message", [
    (["a", "b"], [0, 1], [1], [1.0, 1.0], "edge arrays must have equal length"),
    (["a", "b"], [-1], [1], [1.0], "edge endpoint out of range"),
    (["a", "b"], [0], [2], [1.0], "edge endpoint out of range"),
    (["a", "b"], [1], [1], [1.0], "self-loops are not allowed"),
    (["a", "b"], [0], [1], [float("inf")], "edge weights must be finite and non-negative"),
    (["a", "b"], [0], [1], [-1.0], "edge weights must be finite and non-negative"),
    (["a", "a"], [0], [1], [1.0], "user labels must be unique"),
], ids=["length", "negative-id", "id-past-end", "self-loop", "inf-weight", "negative-weight",
        "duplicate-label"])
def test_graph_refuses_bad_edge_arrays(labels, src, dst, weight, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SocialGraph(labels, src, dst, weight)


def test_self_loop_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 2"):
        load_graph([("a", "b", 1.0), ("b", "b", 2.0)])


def test_negative_weight_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 3"):
        load_graph([("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", -0.1)])


def test_malformed_row_rejected():
    with pytest.raises(ParseError, match="line 1"):
        load_graph([("a", "b")])
    with pytest.raises(ParseError):
        load_graph([("a", "b", "not a number")])


def test_weight_too_large_for_a_float_rejected_with_line_number():
    # float() of such an int overflows; a weight string never does
    with pytest.raises(ParseError, match="^line 1: bad weight"):
        load_graph([("a", "b", 10**400)])
    with pytest.raises(ParseError, match="^line 2: bad weight"):
        load_graph([("a", "b", 1.0), ("b", "c", -(10**400))])


def test_unknown_user_lookup_gives_minus_one():
    g = load_graph([("a", "b", 1.0)])
    assert g.user_ids(["nobody", "b", "a"]).tolist() == [-1, 1, 0]


def test_connection_arrays_merge_both_directions():
    g = load_graph([("a", "b", 4.0), ("b", "a", 2.0), ("a", "c", 1.0)])
    ca, cb, w_ab, w_ba = g.connection_arrays()
    pairs = {(int(x), int(y)): (float(f), float(b)) for x, y, f, b in zip(ca, cb, w_ab, w_ba)}
    assert pairs == {(0, 1): (4.0, 2.0), (0, 2): (1.0, 0.0)}
    assert g.n_connections == 2


def assert_connections_sorted(graph):
    """a < b on every connection, keys strictly increasing in (a, b), and one
    connection per friend pair: the walk's weight sort relies on this order."""
    ca, cb, _, _ = graph.connection_arrays()
    src, dst, _ = graph.edge_arrays()
    assert np.all(ca < cb)
    key = ca * graph.n_users + cb
    assert np.all(np.diff(key) > 0)
    assert set(zip(ca.tolist(), cb.tolist())) == {
        (min(s, d), max(s, d)) for s, d in zip(src.tolist(), dst.tolist())}
    assert graph.n_connections == ca.size


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), n_users=st.integers(2, 30), n_edges=st.integers(0, 120))
def test_connection_arrays_are_sorted_by_pair(tmp_path_factory, seed, n_users, n_edges):
    # records drawn with repeats and in both directions, in random order
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_users, size=n_edges)
    dst = (src + rng.integers(1, n_users, size=n_edges)) % n_users
    w = rng.choice([0.0, 0.5, 2.0], size=n_edges)
    graph = SocialGraph([f"u{i}" for i in range(n_users)], src, dst, w)
    assert_connections_sorted(graph)
    # the same records from a CSV whose rows are shuffled: ids follow first
    # appearance, so they differ, and the order must hold on the new ids
    path = tmp_path_factory.mktemp("edges") / "edges.csv"
    rows = [f"u{s},u{d},{x!r}\n" for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist())]
    path.write_text("".join(rows[i] for i in rng.permutation(n_edges)), encoding="utf-8")
    assert_connections_sorted(load_graph(path))


def assert_blocked_build_matches_the_loop_oracle(n, src, dst, weight, word_bits, block):
    """Build the graph of these records with sort words of word_bits bits
    and blocks of block records, and hold its friend CSR and edge mask to
    naive_graph_arrays: equal dtypes and values, and equal signs of zero."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_WORD_BITS", word_bits)
        patch.setattr(graph_module, "_RECORDS", block)
        g = SocialGraph([f"u{i}" for i in range(n)], src, dst, weight)
    want = naive_graph_arrays(n, list(src), list(dst), list(weight))
    got = dict(zip(("friend_offsets", "friend_col", "friend_out", "friend_in"), g.friend_csr()),
               friend_is_edge=g.edge_mask())
    dtypes = {"friend_out": np.float64, "friend_in": np.float64, "friend_is_edge": bool}
    for key, arr in got.items():
        expected = np.array(want[key], dtype=dtypes.get(key, np.int64))
        assert arr.dtype == expected.dtype, key
        assert np.array_equal(arr, expected), key
        assert np.array_equal(np.signbit(arr), np.signbit(expected)), key


# weights whose sum depends on the order they are added in, and -0.0, which
# a sum from 0.0 turns into 0.0
BLOCK_WEIGHT = st.sampled_from((0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1e16))


@pytest.mark.parametrize("word_bits", [64, 6])
@pytest.mark.parametrize("block", [1, 2, 3, 4])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_the_blocked_build_matches_the_loop_oracle(word_bits, block, n, data):
    # records draw their pairs, either way round, from a few, so that runs of
    # one key outlast a block and keys tie across the two directions; at 6
    # bits the 2 * 16 records' indices take 5, so most keys span buckets
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=3))
    records = data.draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans(),
                                           BLOCK_WEIGHT), max_size=16))
    src = [d if flip else s for (s, d), flip, _ in records]
    dst = [s if flip else d for (s, d), flip, _ in records]
    assert_blocked_build_matches_the_loop_oracle(n, src, dst, [w for *_, w in records],
                                                 word_bits, block)


@pytest.mark.parametrize("word_bits", [64, 6])
@pytest.mark.parametrize("block", [1, 2, 3, 4])
@pytest.mark.parametrize("src, dst, weight", [
    ([], [], []),
    ([0] * 9 + [1], [1] * 9 + [0], [0.1, 0.2, 0.3, 1e16, 1.0, 0.0, -0.0, 0.3, 0.1, 0.0]),
    ([2, 0, 2, 0, 3, 3], [0, 2, 0, 2, 1, 1], [0.0, -0.0, 1e16, 1.0, -0.0, -0.0]),
], ids=["no-edges", "long-run-and-tie", "ties-and-zeros"])
def test_the_blocked_build_matches_the_loop_oracle_on_chosen_records(word_bits, block, src,
                                                                       dst, weight):
    assert_blocked_build_matches_the_loop_oracle(5, src, dst, weight, word_bits, block)


def test_friend_arrays_align_directed_weights():
    g = load_graph([("a", "b", 4.0), ("b", "a", 2.0), ("c", "a", 7.0)])
    nbr, wout, win = friend_arrays(g, 0)
    assert nbr.tolist() == [1, 2]
    assert wout.tolist() == [4.0, 0.0]
    assert win.tolist() == [2.0, 7.0]


def test_csv_round_trip_preserves_labeled_edges(tmp_path):
    # ids may be renumbered (labels re-interned in edge order) but the
    # labeled edge set and weights must survive exactly
    g = synth_graph(25, 3.0, 2.0, rng_seed=3)
    p = tmp_path / "edges.csv"
    g.to_csv(p)
    h = load_graph(p)

    def labeled(gr):
        return {(gr.label_of(s), gr.label_of(d)): w
                for s, d, w in zip(*gr.edge_arrays())}

    assert labeled(h) == labeled(g)


def test_edge_arrays_are_write_protected():
    g = load_graph([("a", "b", 1.0)])
    src, _, w = g.edge_arrays()
    with pytest.raises(ValueError):
        src[0] = 5
    with pytest.raises(ValueError):
        w[0] = 9.0


def test_zero_weight_edges_stay_edges(tmp_path):
    g = load_graph([("a", "b", 0.0), ("a", "c", 2.0), ("b", "c", 0.0), ("c", "b", 0.0)])
    edges = [(0, 1, 0.0), (0, 2, 2.0), (1, 2, 0.0), (2, 1, 0.0)]
    assert g.n_edges == 4
    assert list(zip(*(a.tolist() for a in g.edge_arrays()))) == edges
    # a pair recorded in one direction only: its reverse slot is no edge
    off, col, _, _ = g.friend_csr()
    row = np.repeat(np.arange(g.n_users), np.diff(off))
    assert dict(zip(zip(row.tolist(), col.tolist()), g.edge_mask().tolist())) == {
        (0, 1): True, (0, 2): True, (1, 0): False, (1, 2): True, (2, 0): False, (2, 1): True}
    path = tmp_path / "edges.csv"
    g.to_csv(path)
    h = load_graph(path)
    assert h.labels == g.labels and h.n_edges == 4
    assert list(zip(*(a.tolist() for a in h.edge_arrays()))) == edges


def test_the_graph_holds_the_friend_csr_and_its_edge_mask_alone(monkeypatch, tmp_path):
    g = synth_graph(60, 3.0, 2.0, rng_seed=5)
    held = [a for value in vars(g).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert sorted(map(id, held)) == sorted(map(id, (*g.friend_csr(), g.edge_mask())))
    # the edge list and the connections are derived, and read-only
    for arr in (*g.edge_arrays(), *g.connection_arrays()):
        assert not arr.flags.writeable
    # deriving the edge list builds no connection arrays: the benchmark's
    # trace of those reads 0 on jobs that read the edges
    def refused(self):
        raise AssertionError("the connection arrays were built")

    monkeypatch.setattr(SocialGraph, "connection_arrays", refused)
    g.edge_arrays()
    g.to_csv(tmp_path / "edges.csv")
    g.subgraph(range(30))
    default_profiles(g)


def test_subgraph_keeps_internal_edges_only():
    g = load_graph([("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 3.0), ("c", "d", 4.0)])
    s = g.subgraph([0, 1, 2])
    assert s.labels == ("a", "b", "c")
    assert s.n_edges == 3
    assert edge_weight(s, 2, 0) == pytest.approx(3.0)


@pytest.mark.parametrize("user_ids", [[-1, 0], [0, 4]], ids=["negative", "past-end"])
def test_subgraph_refuses_ids_out_of_range(user_ids):
    g = load_graph([("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 4.0)])
    with pytest.raises(ValidationError, match="^subgraph user id out of range$"):
        g.subgraph(user_ids)


def test_mean_out_weight():  # the default upload volume
    g = load_graph([("a", "b", 2.0), ("a", "c", 4.0), ("b", "a", 9.0)])
    vol, _ = default_profiles(g)
    assert vol[0] == pytest.approx(3.0)
    assert vol[2] == 0.0


# -- breadth-first sampling --------------------------------------------------

def star_graph(n_leaves):
    recs = [("hub", f"leaf{i}", 1.0) for i in range(n_leaves)]
    return load_graph(recs)


def test_bfs_sample_expands_from_seed_in_id_order():
    g = star_graph(6)
    # force the hub as the only seed: single-node universe of choices
    s = bfs_sample(g, seed_count=1, target_size=4, rng_seed=0)
    assert s.n_users == 4
    assert "hub" in s.labels or any(l.startswith("leaf") for l in s.labels)


def test_bfs_sample_warns_when_reachable_set_is_exhausted():
    # two disconnected triangles: one seed can reach at most 3 users
    recs = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0),
            ("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)]
    g = load_graph(recs)
    with pytest.warns(UserWarning, match="self-contained"):
        s = bfs_sample(g, seed_count=1, target_size=5, rng_seed=1)
    assert s.n_users == 3


def test_bfs_sample_is_an_induced_subgraph():
    g = synth_graph(300, 6.0, 2.0, rng_seed=11)
    s = bfs_sample(g, seed_count=3, target_size=80, rng_seed=11)
    assert s.n_users == 80
    ids = g.user_ids(s.labels)
    for u, v, w in zip(*s.edge_arrays()):
        assert edge_weight(g, ids[u], ids[v]) == pytest.approx(float(w))
    # every original edge between sampled users must be present
    kept = set(s.labels)
    expect = sum(1 for u, v, _ in zip(*g.edge_arrays())
                 if g.label_of(u) in kept and g.label_of(v) in kept)
    assert s.n_edges == expect


def test_bfs_sample_deterministic():
    g = synth_graph(500, 5.0, 2.0, rng_seed=2)
    a = bfs_sample(g, 4, 120, rng_seed=9)
    b = bfs_sample(g, 4, 120, rng_seed=9)
    assert a.labels == b.labels
    assert np.array_equal(np.column_stack(a.edge_arrays()),
                          np.column_stack(b.edge_arrays()))


def test_bfs_sample_argument_validation():
    g = star_graph(3)
    with pytest.raises(ValidationError):
        bfs_sample(g, 0, 2, rng_seed=0)


@pytest.mark.parametrize("g, seed_count, target_size, message", [
    (SocialGraph([], [], [], []), 1, 1, "cannot sample an empty graph"),
    (star_graph(3), 2, 1, "target_size must be >= seed_count"),
    (star_graph(3), 5, 5, "seed_count exceeds number of users"),
], ids=["empty-graph", "target-below-seeds", "seeds-past-users"])
def test_bfs_sample_refuses_bad_arguments(g, seed_count, target_size, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        bfs_sample(g, seed_count, target_size, rng_seed=0)


# -- synthetic generator -----------------------------------------------------

def test_synth_edge_count_near_requested_volume():
    # duplicates and self-loops trim the count; stay within 20%
    for seed in range(30):
        g = synth_graph(1000, 10.0, 2.0, rng_seed=seed)
        assert 0.8 * 10000 <= g.n_edges <= 10000


def test_synth_weights_are_heavy_tailed():
    g = synth_graph(5000, 10.0, 2.0, rng_seed=0)
    _, _, w = g.edge_arrays()
    w = np.sort(w)[::-1]
    top = max(1, w.size // 10)
    share = w[:top].sum() / w.sum()
    assert share > 0.5  # top decile of connections carries most propagation


def test_synth_deterministic_and_minimum_size():
    a = synth_graph(200, 4.0, 2.5, rng_seed=5)
    b = synth_graph(200, 4.0, 2.5, rng_seed=5)
    assert np.array_equal(np.column_stack(a.edge_arrays()),
                          np.column_stack(b.edge_arrays()))
    tiny = synth_graph(2, 1.0, 2.0, rng_seed=0)
    assert tiny.n_users == 2
    with pytest.raises(ValidationError):
        synth_graph(1, 1.0, 2.0, rng_seed=0)
    with pytest.raises(ValidationError):
        synth_graph(10, 1.0, 1.0, rng_seed=0)
    for degree in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="mean_degree"):
            synth_graph(10, degree, 2.0, rng_seed=0)


ZIPF_CHUNK = graph_module._PAIRS


@pytest.mark.parametrize("a", [1.0000001, 1.05, 1.5, 2.0, 3.0, 10.0, 1024.9, 1025.0, math.inf])
@pytest.mark.parametrize("m", [0, 1, ZIPF_CHUNK - 1, ZIPF_CHUNK + 1, 100_000])
def test_the_chunked_zipf_draw_is_generator_zipf_bit_for_bit(a, m):
    # the draw replays numpy's rejection rule a chunk of uniform pairs at a
    # time; near a = 1 the powers run past 2**52, where every bit of them
    # shows in the floor, and np.power may differ from C's pow in the last
    # bit, so the draw must take those powers again as C does
    for seed in (0, 7, 101):
        want = np.random.default_rng(seed).zipf(a, size=m).astype(np.float64)
        got = graph_module._zipf_weights(np.random.default_rng(seed), a, m)
        assert got.dtype == np.float64 and got.shape == (m,)
        assert got.tobytes() == want.tobytes(), (seed, np.flatnonzero(got != want)[:5])


def test_the_zipf_draw_peaks_at_its_output_plus_one_chunk():
    # one float64 output and one chunk's temporaries: Generator.zipf's int64
    # array and its float64 copy would hold 16 bytes a draw
    m = 300_000
    w, peak = traced_peak(graph_module._zipf_weights, np.random.default_rng(101), 2.0, m)
    assert w.size == m
    bound = 8 * m + 2**20
    assert peak < bound, f"the draw peaked at {peak / 2**20:.2f} MiB, over {bound / 2**20:.2f}"


def edge_file(path, n_users, seed=5, spell=repr):
    """A generated edge file shaped like a benchmark one: ten edges per user,
    labels u0.., heavy-tailed weights written with spell, repr by default."""
    rng = np.random.default_rng(seed)
    m = 10 * n_users
    src = rng.integers(0, n_users, m)
    dst = (src + rng.integers(1, n_users, m)) % n_users
    w = rng.zipf(3.0, m).astype(np.float64)
    path.write_text("".join(map("u{},u{},{}\n".format, src.tolist(), dst.tolist(),
                                map(spell, w.tolist()))))
    return path


@pytest.mark.parametrize("spell", [repr, "{:e}".format], ids=["repr", "exponent"])
def test_loading_an_edge_file_peaks_below_ten_times_its_size(tmp_path, spell):
    # the table, the interned labels and the graph build's sort each take a
    # few times the file's size; held at once they would near 16 times.
    # Weights in exponent form are not plain decimals, and go through float()
    path = edge_file(tmp_path / "edges.csv", 5000, spell=spell)
    graph, peak = traced_peak(load_graph, path)
    size = path.stat().st_size
    assert peak < 10 * size, f"loading peaked at {peak / size:.1f} times the file's size"
    assert graph.n_users == 5000


def test_the_graph_build_peaks_below_its_graph_plus_one_byte_a_record():
    # the benchmark's graph, 3e4 users and about 3e5 synthetic edges, drawn
    # as synth_graph draws them.  The build writes the CSR's neighbour column
    # over its uint64 sort words and the edge mask over its slot-start bools,
    # then shrinks both to one entry a slot, so its arrays stay within a few
    # blocks of temporaries of the graph it returns; the label set of the
    # duplicate check is made and freed before the sort words
    n = 30_000
    rng = np.random.default_rng(101)
    src = rng.integers(0, n, size=10 * n, dtype=np.int64)
    dst = rng.integers(0, n, size=10 * n, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    weight = graph_module._zipf_weights(rng, 2.0, src.size)
    labels = [f"u{i}" for i in range(n)]
    tracemalloc.start()
    try:
        graph = SocialGraph(labels, src, dst, weight)
        # what the call leaves allocated is the graph: its arrays and labels
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.n_users == n
    bound = size + 1 * 2 * src.size + 2**20
    assert peak < bound, f"the build peaked at {peak / 2**20:.2f} MiB, over {bound / 2**20:.2f}"


def test_synth_graphs_build_peaks_below_what_it_leaves_plus_one_byte_a_record(monkeypatch):
    # the same bound inside synth_graph, traced from the build's call: what
    # the build leaves is the graph and the weights and labels synth_graph
    # still holds; the endpoints it was handed are freed by then
    build, seen = SocialGraph.__init__, {}

    def traced_build(self, labels, src, dst, weight):
        tracemalloc.reset_peak()  # the draws before the build are not its peak
        build(self, labels, src, dst, weight)
        seen["size"], seen["peak"] = tracemalloc.get_traced_memory()
        seen["records"] = weight.size

    monkeypatch.setattr(SocialGraph, "__init__", traced_build)
    tracemalloc.start()
    try:
        graph = synth_graph(30_000, 10.0, 2.0, rng_seed=101)
    finally:
        tracemalloc.stop()
    assert graph.n_users == 30_000
    peak, bound = seen["peak"], seen["size"] + 1 * 2 * seen["records"] + 2**20
    assert peak < bound, f"the build peaked at {peak / 2**20:.2f} MiB, over {bound / 2**20:.2f}"


def test_a_fully_reciprocal_build_keeps_one_word_and_one_bool_a_slot():
    # every edge in both directions, in shuffled order: each slot holds two
    # of the two-way records, so half the sort words and half the slot-start
    # bools are left over once the neighbour column and the mask are written
    # over them, and the build must hand that half back
    n = 3000
    rng = np.random.default_rng(7)
    a = rng.integers(0, n, size=20_000)
    b = (a + rng.integers(1, n, size=a.size)) % n
    pairs = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    a, b = pairs // n, pairs % n
    order = rng.permutation(2 * pairs.size)
    src, dst = np.concatenate([a, b])[order], np.concatenate([b, a])[order]
    weight = graph_module._zipf_weights(rng, 2.0, src.size)
    labels = [f"u{i}" for i in range(n)]
    tracemalloc.start()
    try:
        graph = SocialGraph(labels, src, dst, weight)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.n_connections == pairs.size and graph.n_edges == src.size
    assert graph.friend_csr()[1].size == src.size  # half the 2 * src.size records
    want = naive_graph_arrays(n, src.tolist(), dst.tolist(), weight.tolist())
    got = dict(zip(("friend_offsets", "friend_col", "friend_out", "friend_in"),
                   graph.friend_csr()), friend_is_edge=graph.edge_mask())
    for key, arr in got.items():
        assert arr.tolist() == want[key], key
    # what the build leaves allocated is the CSR, the mask and the labels,
    # within 64 KiB of object headers: unshrunk, the words and the bools
    # would hold 9 bytes more a slot
    held = sum(arr.nbytes for arr in (*graph.friend_csr(), graph.edge_mask()))
    held += sys.getsizeof(graph.labels)
    assert held <= size < held + 2**16, f"{size - held} bytes beyond the graph's arrays"


def test_the_edge_table_is_freed_before_the_graph_is_built(tmp_path, monkeypatch):
    path = edge_file(tmp_path / "edges.csv", 50)
    tables, alive = [], []
    read, build = ByteTable.__init__, SocialGraph.__init__

    def noted(self, data):
        read(self, data)
        tables.append(weakref.ref(self))

    def checked(self, *args):
        alive.extend(table() is not None for table in tables)
        build(self, *args)

    monkeypatch.setattr(ByteTable, "__init__", noted)
    monkeypatch.setattr(SocialGraph, "__init__", checked)
    load_graph(path)
    assert alive == [False]


def bases(arr):
    """arr and every array it is a view of."""
    while arr is not None:
        yield arr
        arr = arr.base


@pytest.mark.parametrize("loader", ["synth_graph", "load_graph"])
def test_the_endpoint_arrays_are_freed_before_the_csr_is_built(tmp_path, monkeypatch, loader):
    # the loaders hand src and dst over to the build, which frees them once
    # it has made its sort words: the CSR is read from the words alone
    sorted_words, slots = graph_module._sorted_words, graph_module._slots
    handed, alive = [], []

    def noted(ends, n):
        handed.extend(weakref.ref(a) for end in ends for a in bases(end))
        return sorted_words(ends, n)

    def checked(*args):
        alive.extend(ref() is not None for ref in handed)
        return slots(*args)

    monkeypatch.setattr(graph_module, "_sorted_words", noted)
    monkeypatch.setattr(graph_module, "_slots", checked)
    if loader == "synth_graph":
        graph = synth_graph(50, 4.0, 2.0, rng_seed=1)
    else:
        graph = load_graph(edge_file(tmp_path / "edges.csv", 50))
    assert graph.n_edges > 0
    assert len(alive) >= 2 and not any(alive)

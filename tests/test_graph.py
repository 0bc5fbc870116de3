import numpy as np
import pytest

from cloudcut import ParseError, SocialGraph, ValidationError, default_profiles
from cloudcut.graph import bfs_sample, load_graph, synth_graph
from oracles import edge_weight, friend_arrays


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


def test_subgraph_keeps_internal_edges_only():
    g = load_graph([("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 3.0), ("c", "d", 4.0)])
    s = g.subgraph([0, 1, 2])
    assert s.labels == ("a", "b", "c")
    assert s.n_edges == 3
    assert edge_weight(s, 2, 0) == pytest.approx(3.0)


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

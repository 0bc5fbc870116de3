"""The windowed re-hosting walk against the one-pair-at-a-time walk.

run_heuristic orders only the heaviest cross pairs it can reach, scores a
window of them in one batch, and rescores the pairs whose users, or a friend
of one, moved since, in rounds.  These tests hold it to naive_walk, which
orders every pair with lexsort and scores each just before deciding it: the
same assignment and the same telemetry bytes, whatever the window size,
pricing, alpha, weight ties, budget and gain threshold.
"""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import (
    AffinityTable,
    CloudModel,
    HeuristicParams,
    ObjectiveParams,
    PricingMatrix,
    SocialGraph,
    run_heuristic,
)
from cloudcut import partition
from cloudcut.cloud import normalize_rows, preference_matrix
from oracles import make_instance, naive_walk


def both_walks(graph, model, params, window=partition._WINDOW):
    """(windowed, naive) as (host list, telemetry text) pairs."""
    runs = []
    with mock.patch.object(partition, "_WINDOW", window):
        for walk in (run_heuristic, naive_walk):
            buf = io.StringIO()
            host = walk(graph, model, params, telemetry=buf).host.tolist()
            runs.append((host, buf.getvalue()))
    return runs


def summary(telemetry):
    return json.loads(telemetry.splitlines()[-1])


@pytest.mark.parametrize("n_clouds", [1, 2, 3, 5, 8])
def test_a_pair_scores_the_same_bits_in_any_batch(n_clouds):
    # the windowed walk scores a pair in whatever round dirtied it, next to
    # whichever pairs that round holds; its gains must not depend on them
    graph, model = make_instance(n_clouds, n_users=120, n_clouds=n_clouds, n_edges=900,
                                 pricing="random_intra", weight_scale=2.0)
    rng = np.random.default_rng(n_clouds)
    host = rng.integers(0, n_clouds, size=graph.n_users)
    ca, cb, e_ab, e_ba = graph.connection_arrays()
    psi = normalize_rows(preference_matrix(graph, model))
    P = model.pricing.matrix

    def score(pairs):
        return partition._batch_gains(ca[pairs], cb[pairs], e_ab[pairs], e_ba[pairs], host,
                                      psi, graph.friend_csr(), P, partition._pair_table(P),
                                      0.37, 0.63 * 1.3)

    alone = [score(np.array([i]))[0] for i in range(ca.size)]
    assert ca.size > 300
    for size in range(1, 301):
        pairs = rng.choice(ca.size, size=size)
        assert score(pairs) == [alone[i] for i in pairs]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       n_users=st.integers(2, 14),
       n_clouds=st.sampled_from([1, 2, 3, 5]),
       edge_share=st.floats(0.05, 1.0),
       alpha=st.floats(0.0, 1.0),
       budget=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       min_gain=st.floats(-0.5, 0.5),
       window=st.sampled_from([1, 7, 256]))
def test_windowed_walk_matches_the_naive_walk(seed, n_users, n_clouds, edge_share,
                                              alpha, budget, min_gain, window):
    n_edges = max(1, int(edge_share * n_users * (n_users - 1)))
    graph, model = make_instance(seed, n_users=n_users, n_clouds=n_clouds,
                                 n_edges=n_edges, pricing="random", weight_scale=2.0)
    params = HeuristicParams(ObjectiveParams(alpha=alpha), min_gain=min_gain,
                             touched_budget=budget)
    windowed, naive = both_walks(graph, model, params, window)
    assert windowed == naive


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       n_users=st.integers(2, 14),
       n_clouds=st.sampled_from([2, 3, 5]),
       edge_share=st.floats(0.05, 1.0),
       levels=st.sampled_from([(0.0,), (0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.25, 2.0)]),
       alpha=st.floats(0.0, 1.0),
       budget=st.sampled_from(["one pair", 0.0, 0.2, 1.0]),
       window=st.sampled_from([1, 7, 256]))
def test_windowed_walk_matches_the_naive_walk_on_tied_weights(
        seed, n_users, n_clouds, edge_share, levels, alpha, budget, window):
    # few distinct weights, zero among them: runs of equal weight straddle the
    # budget's cut, and the walk must cut them in (a, b) order as lexsort does
    n_edges = max(1, int(edge_share * n_users * (n_users - 1)))
    graph, model = make_instance(seed, n_users=n_users, n_clouds=n_clouds,
                                 n_edges=n_edges, pricing="random", weight_levels=levels)
    if budget == "one pair":
        budget = 1 / graph.n_connections
    params = HeuristicParams(ObjectiveParams(alpha=alpha), touched_budget=budget)
    windowed, naive = both_walks(graph, model, params, window)
    assert windowed == naive


def test_budget_cuts_a_run_of_tied_weights():
    graph, model = make_instance(1, n_users=40, n_clouds=3, n_edges=400,
                                 pricing="random", weight_levels=(0.0, 0.5, 1.0))
    params = HeuristicParams(ObjectiveParams(alpha=0.5), touched_budget=0.2)
    windowed, naive = both_walks(graph, model, params, window=7)
    assert windowed == naive
    s = summary(windowed[1])
    assert s["stop_reason"] == "budget"
    # the last pair touched and the first pair left out weigh the same
    host = np.argmax(normalize_rows(preference_matrix(graph, model)), axis=1)
    ca, cb, e_ab, e_ba = graph.connection_arrays()
    cross = host[ca] != host[cb]
    weights = np.sort(e_ab[cross] + e_ba[cross])[::-1]
    assert weights[s["touched"] - 1] == weights[s["touched"]]


def test_budget_stops_the_walk_inside_a_window():
    graph, model = make_instance(3, n_users=200, n_clouds=5, n_edges=1500,
                                 pricing="random")
    params = HeuristicParams(ObjectiveParams(alpha=0.3), touched_budget=0.25)
    windowed, naive = both_walks(graph, model, params)
    assert windowed == naive
    s = summary(windowed[1])
    assert s["stop_reason"] == "budget"
    assert s["touched"] > partition._WINDOW
    assert s["touched"] % partition._WINDOW != 0


def test_gain_threshold_stops_the_walk_inside_a_window():
    # the first pair that keeps its users stops the walk, in the sixth window
    graph, model = make_instance(0, n_users=60, n_clouds=4, n_edges=300,
                                 pricing="random")
    params = HeuristicParams(ObjectiveParams(alpha=0.3), min_gain=1e-9,
                             touched_budget=1.0)
    windowed, naive = both_walks(graph, model, params, window=7)
    assert windowed == naive
    s = summary(windowed[1])
    assert s["stop_reason"] == "gain_threshold"
    assert s["touched"] > 7
    assert s["touched"] % 7 != 0


def test_pair_turns_same_cloud_after_a_friend_moves():
    # users 0 and 2 prefer cloud 0, user 1 prefers cloud 1; the heavy pair
    # (1, 2) comes first in the window and moves 1 next to 2, which puts the
    # pair (0, 1), scored cross-cloud with the window, on one cloud
    graph = SocialGraph(["a", "b", "c"], [0, 1, 2], [1, 2, 1], [1.0, 5.0, 5.0])
    upload = np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])
    model = CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1], PricingMatrix.uniform(2),
                       AffinityTable(np.zeros((3, 2)), upload), np.ones(3), np.ones(3))
    params = HeuristicParams(ObjectiveParams(alpha=0.2), touched_budget=1.0)
    windowed, naive = both_walks(graph, model, params)
    assert windowed == naive
    host, telemetry = windowed
    lines = [json.loads(line) for line in telemetry.splitlines()]
    assert [(e["u"], e["v"], e["case"]) for e in lines[:-1]] == [(1, 2, "move_u")]
    assert lines[-1]["touched"] == 2 and lines[-1]["examined"] == 1
    assert host == [0, 0, 0]


@pytest.mark.parametrize("seed", range(3))
def test_windowed_walk_matches_over_several_full_windows(seed):
    graph, model = make_instance(seed, n_users=2000, n_clouds=6, n_edges=16000,
                                 pricing="random", weight_scale=3.0)
    params = HeuristicParams(ObjectiveParams(alpha=0.5), touched_budget=1.0)
    windowed, naive = both_walks(graph, model, params)
    assert windowed == naive
    assert summary(windowed[1])["examined"] > 2 * partition._WINDOW

import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    HeuristicParams,
    ObjectiveParams,
    PricingMatrix,
    SearchSpaceError,
    SocialGraph,
    ValidationError,
    baseline_max_preference,
    baseline_min_propagation,
    baseline_random,
    brute_force_optimal,
    evaluate,
    initial_hosting,
    run_heuristic,
    total_objective,
)
from cloudcut.cloud import normalize_rows, preference_matrix
from cloudcut.partition import _least_member
from oracles import (
    RehostMove,
    apply_move,
    kernel_pair_gains,
    make_instance,
    naive_move_cost_delta,
    scipy_least_member,
    two_user_instance,
)


def params_for(alpha, **kw):
    return HeuristicParams(ObjectiveParams(alpha=alpha), **kw)


def delta_instance():
    """Two edges w->u (5) and u->v (1); u, w on cloud 0, v on cloud 1.

    Moving u over to cloud 1 turns 5 units of intra traffic into cross and
    localizes 1 unit, so the true priced-traffic change is +4.
    """
    graph = SocialGraph(["u", "w", "v"], [1, 0], [0, 2], [5.0, 1.0])
    model = CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1],
                       PricingMatrix.uniform(2),
                       AffinityTable(np.zeros((3, 2)), np.zeros((3, 2))),
                       np.ones(3), np.ones(3))
    return graph, model, Assignment([0, 0, 1])


def move_delta(move, host, graph, model, cost_weight=1.0):
    """Weighted priced-traffic change of a move: minus its kernel gain at alpha = 0."""
    gain_u, gain_v, joint = kernel_pair_gains(move.u, move.v, host, graph, model, 0.0, cost_weight)
    if move.case == "move_both":
        return -float(joint[move.target])
    return -(gain_u if move.case == "move_u" else gain_v)


# -- move deltas --------------------------------------------------------------

def test_propagation_delta_frozen_example():
    graph, model, assign = delta_instance()
    move = RehostMove(u=0, v=2, case="move_u")
    assert move_delta(move, assign.host, graph, model) == pytest.approx(4.0)
    assert move_delta(move, assign.host, graph, model) == pytest.approx(
        naive_move_cost_delta(move, assign.host, graph, model))


def test_propagation_delta_negative_when_move_saves_traffic():
    graph, model, _ = delta_instance()
    # all of u's traffic already sits on cloud 1
    host = np.array([0, 1, 1])
    move = RehostMove(u=0, v=2, case="move_u")
    assert move_delta(move, host, graph, model) == pytest.approx(-6.0)


def test_exact_delta_matches_full_recompute_for_every_case():
    for seed in range(10):
        graph, model = make_instance(seed, n_users=12, n_clouds=4, n_edges=40,
                                     pricing="random")
        rng = np.random.default_rng(seed + 50)
        host = rng.integers(0, 4, size=graph.n_users)
        ca, cb, _, _ = graph.connection_arrays()
        for u, v in zip(ca, cb):
            u, v = int(u), int(v)
            if host[u] == host[v]:
                continue
            moves = [RehostMove(u, v, "move_u"), RehostMove(u, v, "move_v")]
            moves += [RehostMove(u, v, "move_both", target=f)
                      for f in range(4) if f not in (host[u], host[v])]
            for move in moves:
                got = move_delta(move, host, graph, model, cost_weight=1.3)
                want = 1.3 * naive_move_cost_delta(move, host, graph, model)
                assert got == pytest.approx(want, abs=1e-9)


def test_rehost_move_rejects_bad_cases():
    with pytest.raises(ValidationError):
        RehostMove(u=0, v=2, case="sideways")
    with pytest.raises(ValidationError):
        RehostMove(u=0, v=2, case="move_both")  # no target


# -- pair gains ---------------------------------------------------------------

def test_gains_equal_score_deltas_in_exact_mode():
    # with and without a price on intra-cloud traffic, which the joint move's
    # mutual edge pays
    for seed, pricing in itertools.product(range(6), ("random", "random_intra")):
        graph, model = make_instance(seed, n_users=10, n_clouds=4, n_edges=30,
                                     pricing=pricing)
        for alpha in (0.0, 0.5, 0.9):
            params = params_for(alpha)
            assign = initial_hosting(graph, model)
            base = total_objective(assign, graph, model, params.objective)
            ca, cb, _, _ = graph.connection_arrays()
            host = assign.host
            checked = 0
            for u, v in zip(ca, cb):
                u, v = int(u), int(v)
                if host[u] == host[v]:
                    continue
                gain_u, gain_v, joint = kernel_pair_gains(u, v, host, graph, model, alpha)
                for case, gain in (("move_u", gain_u), ("move_v", gain_v)):
                    moved = Assignment(apply_move(host, RehostMove(u, v, case)))
                    after = total_objective(moved, graph, model, params.objective)
                    assert gain == pytest.approx(after - base, abs=1e-9)
                f = int(np.argmax(joint))
                moved = Assignment(apply_move(host, RehostMove(u, v, "move_both", target=f)))
                after = total_objective(moved, graph, model, params.objective)
                assert joint[f] == pytest.approx(after - base, abs=1e-9)
                checked += 1
            assert checked > 0


def test_gains_at_alpha_one_are_pure_preference_deltas():
    graph, model = make_instance(2, n_users=10, n_clouds=3, n_edges=30)
    assign = initial_hosting(graph, model)
    psi = normalize_rows(preference_matrix(graph, model))
    host = assign.host
    ca, cb, _, _ = graph.connection_arrays()
    pair = next((int(u), int(v)) for u, v in zip(ca, cb) if host[u] != host[v])
    u, v = pair
    c, d = host[u], host[v]
    gain_u, gain_v, _ = kernel_pair_gains(u, v, host, graph, model, 1.0)
    assert gain_u == pytest.approx(psi[u, d] - psi[u, c])
    assert gain_v == pytest.approx(psi[v, c] - psi[v, d])


def test_two_clouds_disable_joint_moves():
    graph, model = two_user_instance()
    gain_u, gain_v, joint = kernel_pair_gains(0, 1, np.array([0, 1]), graph, model, 0.5)
    assert np.all(joint == -np.inf)  # no third cloud
    # co-hosting on cloud 0 is the known optimum, so moving v there wins
    assert gain_v > max(gain_u, 0.0)


def test_ties_keep_users_in_place():
    # no preference signal and free traffic: every option gains exactly 0
    graph = SocialGraph(["a", "b"], [0], [1], [1.0])
    model = CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1],
                       PricingMatrix([[0.0, 0.0], [0.0, 0.0]]),
                       AffinityTable(np.zeros((2, 2)), np.zeros((2, 2))),
                       np.ones(2), np.ones(2))
    gain_u, gain_v, joint = kernel_pair_gains(0, 1, np.array([0, 1]), graph, model, 0.5)
    assert gain_u == pytest.approx(0.0)
    assert max(gain_u, gain_v, joint.max()) <= 0.0  # keep's 0.0: the walk stays put


# -- initial hosting ----------------------------------------------------------

def test_initial_hosting_picks_argmax_preference():
    graph, model = two_user_instance()
    # raw rows (3.8, 1.2) and (1.3, 1.7)
    assert initial_hosting(graph, model).host.tolist() == [0, 1]


def test_initial_hosting_breaks_ties_toward_lowest_cloud():
    graph = SocialGraph(["lone"], [], [], [])
    model = CloudModel(["c0", "c1", "c2"], ["r0", "r1", "r2"], [0, 1, 2],
                       PricingMatrix.uniform(3),
                       AffinityTable(np.zeros((1, 3)), np.ones((1, 3))),
                       np.ones(1), np.ones(1))
    assert initial_hosting(graph, model).host.tolist() == [0]


# -- the heuristic ------------------------------------------------------------

def test_heuristic_params_validation():
    obj = ObjectiveParams(alpha=0.5)
    with pytest.raises(ValidationError):
        HeuristicParams(obj, touched_budget=1.5)
    with pytest.raises(ValidationError):
        HeuristicParams(obj, min_gain=float("nan"))


def test_heuristic_at_alpha_one_keeps_initial_hosting():
    for seed in range(5):
        graph, model = make_instance(seed, n_users=20, n_clouds=4, n_edges=60)
        result = run_heuristic(graph, model, params_for(1.0, touched_budget=1.0))
        assert result == initial_hosting(graph, model)


def test_the_walk_starts_from_initial_hosting_on_a_near_tie_row():
    # a's raw row rises by one ulp a cloud, so its largest entry is c2's;
    # divided by the row's sum, c1 and c2 round to the same value, and an
    # argmax of that normalized row would host a on c1
    graph = SocialGraph(["a", "b"], [0], [1], [1.0])
    upload = [[1.9610683927153292, 1.9610683927153294, 1.9610683927153296], [0.0, 0.0, 0.0]]
    model = CloudModel(["c0", "c1", "c2"], ["r0", "r1", "r2"], [0, 1, 2],
                       PricingMatrix.uniform(3), AffinityTable(np.zeros((2, 3)), upload),
                       np.ones(2), np.ones(2))
    psi = preference_matrix(graph, model)
    assert np.argmax(psi[0]) == 2 and np.argmax(normalize_rows(psi)[0]) == 1
    # a budget of 0 touches no pair: the walk leaves phase one's hosting
    result = run_heuristic(graph, model, params_for(0.5, touched_budget=0.0))
    assert result == initial_hosting(graph, model) == baseline_max_preference(graph, model)
    assert result.host.tolist() == [2, 0]


def test_heuristic_never_lowers_the_score_in_exact_mode():
    for seed, pricing in itertools.product(range(6), ("random", "random_intra")):
        graph, model = make_instance(seed, n_users=25, n_clouds=4, n_edges=80,
                                     pricing=pricing)
        for alpha in (0.0, 0.3, 0.7):
            params = params_for(alpha, touched_budget=1.0)
            start = total_objective(initial_hosting(graph, model), graph,
                                    model, params.objective)
            end = total_objective(run_heuristic(graph, model, params), graph,
                                  model, params.objective)
            assert end >= start - 1e-9


def test_heuristic_telemetry_gains_replay_exactly():
    applied = 0
    for seed in range(4):
        graph, model = make_instance(seed, n_users=20, n_clouds=4, n_edges=70,
                                     pricing="random")
        params = params_for(0.4, touched_budget=1.0)
        buf = io.StringIO()
        result = run_heuristic(graph, model, params, telemetry=buf)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        summary = lines[-1]
        events = lines[:-1]
        assert summary["event"] == "summary"
        assert summary["examined"] == len(events)
        assert summary["moves"] == sum(1 for e in events if e["case"] != "keep")

        # weights are walked in non-increasing order
        weights = [e["weight"] for e in events]
        assert all(a >= b for a, b in zip(weights, weights[1:]))

        # every applied move's gain is the true score delta
        host = initial_hosting(graph, model).host
        obj = params.objective
        for e in events:
            if e["case"] == "keep":
                assert e["gain"] == 0.0
                continue
            before = total_objective(Assignment(host), graph, model, obj)
            move = RehostMove(e["u"], e["v"], e["case"],
                              target=e["target"] if e["case"] == "move_both" else None)
            host = apply_move(host, move)
            after = total_objective(Assignment(host), graph, model, obj)
            assert e["gain"] == pytest.approx(after - before, abs=1e-9)
            assert e["gain"] > 0
            applied += 1
        assert np.array_equal(host, result.host)
    assert applied > 20


def test_heuristic_respects_touched_budget():
    graph, model = make_instance(1, n_users=30, n_clouds=4, n_edges=120,
                                 pricing="random")
    params = params_for(0.2, touched_budget=0.1)
    buf = io.StringIO()
    run_heuristic(graph, model, params, telemetry=buf)
    summary = json.loads(buf.getvalue().splitlines()[-1])
    cap = int(np.ceil(0.1 * graph.n_connections))
    assert summary["touched"] <= cap
    assert summary["stop_reason"] in ("budget", "exhausted")


def test_heuristic_gain_threshold_stops_the_walk():
    graph, model = make_instance(1, n_users=30, n_clouds=4, n_edges=120,
                                 pricing="random")
    params = params_for(0.2, min_gain=1e9, touched_budget=1.0)
    buf = io.StringIO()
    run_heuristic(graph, model, params, telemetry=buf)
    summary = json.loads(buf.getvalue().splitlines()[-1])
    assert summary["examined"] == 1
    assert summary["stop_reason"] == "gain_threshold"


def test_heuristic_is_deterministic():
    graph, model = make_instance(7, n_users=40, n_clouds=5, n_edges=150,
                                 pricing="random")
    params = params_for(0.5, touched_budget=0.5)
    buf1, buf2 = io.StringIO(), io.StringIO()
    a = run_heuristic(graph, model, params, telemetry=buf1)
    b = run_heuristic(graph, model, params, telemetry=buf2)
    assert a == b
    assert buf1.getvalue() == buf2.getvalue()


# -- exhaustive search --------------------------------------------------------

def test_brute_force_finds_the_known_optimum():
    graph, model = two_user_instance()
    best = brute_force_optimal(graph, model, ObjectiveParams(alpha=0.5))
    assert best.host.tolist() == [0, 0]


def test_brute_force_breaks_ties_lexicographically():
    graph = SocialGraph(["a", "b"], [], [], [])
    model = CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1],
                       PricingMatrix.uniform(2),
                       AffinityTable(np.zeros((2, 2)), np.zeros((2, 2))),
                       np.ones(2), np.ones(2))
    # with no edges and flat preferences every assignment scores the same
    best = brute_force_optimal(graph, model, ObjectiveParams(alpha=0.5))
    assert best.host.tolist() == [0, 0]


def test_brute_force_on_no_users_returns_the_empty_assignment():
    graph = SocialGraph([], [], [], [])
    model = CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1], PricingMatrix.uniform(2),
                       AffinityTable(np.zeros((0, 2)), np.zeros((0, 2))), [], [])
    best = brute_force_optimal(graph, model, ObjectiveParams(alpha=0.5))
    assert best.host.dtype == np.int64
    assert best.host.tolist() == []


def test_brute_force_at_alpha_zero_co_hosts_everything():
    graph, model = make_instance(4, n_users=8, n_clouds=3, n_edges=25)
    best = brute_force_optimal(graph, model, ObjectiveParams(alpha=0.0))
    assert len(set(best.host.tolist())) == 1


def test_brute_force_refuses_oversized_instances():
    graph, model = make_instance(0, n_users=11, n_clouds=3, n_edges=20)
    with pytest.raises(SearchSpaceError, match="exceeds cap"):
        brute_force_optimal(graph, model, ObjectiveParams(alpha=0.5), cap=100_000)


def test_brute_force_dominates_the_heuristic():
    for seed in range(8):
        graph, model = make_instance(seed, n_users=8, n_clouds=3, n_edges=20,
                                     pricing="random")
        for alpha in (0.25, 0.75):
            obj = ObjectiveParams(alpha=alpha)
            hp = HeuristicParams(obj, touched_budget=1.0)
            best = total_objective(brute_force_optimal(graph, model, obj),
                                   graph, model, obj)
            ours = total_objective(run_heuristic(graph, model, hp),
                                   graph, model, obj)
            assert ours <= best + 1e-9


# -- baselines ----------------------------------------------------------------

def test_baseline_random_is_seeded_and_in_range():
    graph, model = make_instance(0, n_users=300, n_clouds=3, n_edges=600)
    a = baseline_random(graph, model, rng_seed=42)
    b = baseline_random(graph, model, rng_seed=42)
    c = baseline_random(graph, model, rng_seed=43)
    assert a == b
    assert not np.array_equal(a.host, c.host)
    a.validate(graph.n_users, model.n_clouds)
    # roughly uniform: count of cloud 0 within 3 sigma of the binomial mean
    count = int(np.sum(a.host == 0))
    assert abs(count - 100) < 3 * np.sqrt(300 * (1 / 3) * (2 / 3)) + 1


def test_baseline_max_preference_matches_initial_hosting():
    graph, model = make_instance(5, n_users=30, n_clouds=4, n_edges=90)
    assert baseline_max_preference(graph, model) == initial_hosting(graph, model)


def test_baseline_min_propagation_never_crosses_clouds():
    for seed in range(6):
        graph, model = make_instance(seed, n_users=40, n_clouds=4, n_edges=70,
                                     pricing="random")
        a = baseline_min_propagation(graph, model)
        rep = evaluate(a, graph, model, ObjectiveParams(alpha=0.5))
        assert rep.inter_cloud_cost == 0.0
        assert rep.inter_cloud_edge_count == 0


def test_baseline_min_propagation_picks_the_popular_cloud_per_component():
    # two disjoint pairs; normalized preference of each pair clearly favors
    # one cloud ((0.76, 0.24) + (13/30, 17/30) leans to cloud 0)
    graph = SocialGraph(["u0", "u1", "x0", "x1"],
                        [0, 1, 2], [1, 0, 3], [4.0, 2.0, 1.0])
    download = np.array([[0.9, 0.5], [0.6, 0.4], [0.0, 0.9], [0.0, 0.9]])
    upload = np.array([[0.8, 0.2], [0.2, 0.6], [0.0, 0.5], [0.0, 0.5]])
    vol = np.array([4.0, 2.0, 1.0, 0.0])
    model = CloudModel(["A", "B"], ["rA", "rB"], [0, 1],
                       PricingMatrix.uniform(2),
                       AffinityTable(download, upload), vol, np.ones(4))
    a = baseline_min_propagation(graph, model)
    assert a.host.tolist() == [0, 0, 1, 1]


# -- min-propagation's components -------------------------------------------

def least_member(graph):
    a, b, _, _ = graph.connection_arrays()
    return _least_member(graph.n_users, a, b)


@settings(max_examples=150, deadline=None)
@given(n_users=st.integers(1, 60),
       pairs=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=50))
def test_components_match_scipy_and_carry_their_least_member(n_users, pairs):
    # at most 50 edges over up to 60 users: many components, isolated users too
    pairs = [(a % n_users, b % n_users) for a, b in pairs if a % n_users != b % n_users]
    graph = SocialGraph([f"u{i}" for i in range(n_users)], [a for a, _ in pairs],
                        [b for _, b in pairs], np.ones(len(pairs)))
    assert least_member(graph).tolist() == scipy_least_member(graph).tolist()


def test_components_of_a_randomly_numbered_path():
    n = 100_000
    rng = np.random.default_rng(11)
    order = rng.permutation(n)
    a, b = order[:-1], order[1:]
    assert not np.any(_least_member(n, np.minimum(a, b), np.maximum(a, b)))
    # cut into ten pieces: the least id of each piece
    keep = np.ones(n - 1, dtype=bool)
    keep[rng.choice(n - 1, size=9, replace=False)] = False
    graph = SocialGraph([f"u{i}" for i in range(n)], a[keep], b[keep], np.ones(int(keep.sum())))
    got = least_member(graph)
    assert np.unique(got).size == 10
    assert np.array_equal(got, scipy_least_member(graph))

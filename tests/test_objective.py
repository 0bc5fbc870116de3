import json

import numpy as np
import pytest

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    ObjectiveParams,
    PricingMatrix,
    ValidationError,
    default_profiles,
    evaluate,
    total_objective,
)
from cloudcut.graph import load_graph
from cloudcut.objective import EvaluationReport, replication_cost, transfer_cost_total
from oracles import (
    make_instance,
    naive_inter_cloud_cost,
    naive_total_objective,
    naive_transfer_cost,
    two_user_instance,
)


def test_replication_cost_splits_each_connection_evenly():
    graph, model = two_user_instance()
    split = Assignment([0, 1])
    # each endpoint carries half of (1*4 + 1*2)
    assert replication_cost(0, split, graph, model) == pytest.approx(3.0)
    assert replication_cost(1, split, graph, model) == pytest.approx(3.0)
    assert transfer_cost_total(split, graph, model) == pytest.approx(6.0)
    together = Assignment([0, 0])
    assert replication_cost(0, together, graph, model) == 0.0
    assert transfer_cost_total(together, graph, model) == 0.0


def test_replication_cost_prices_each_direction_separately():
    graph = load_graph([("u", "v", 3.0), ("v", "u", 5.0)])
    vol, blend = default_profiles(graph)
    model = CloudModel(["A", "B"], ["rA", "rB"], [0, 1],
                       PricingMatrix([[0.0, 2.0], [0.0, 0.0]]),
                       AffinityTable(np.zeros((2, 2)), np.zeros((2, 2))),
                       vol, blend)
    a = Assignment([0, 1])
    # only the u->v direction is priced: each half-share is (2*3 + 0*5)/2
    assert replication_cost(0, a, graph, model) == pytest.approx(3.0)
    assert replication_cost(1, a, graph, model) == pytest.approx(3.0)
    assert transfer_cost_total(a, graph, model) == pytest.approx(6.0)


def test_per_user_costs_sum_to_directed_total():
    for seed in range(8):
        graph, model = make_instance(seed, n_users=15, n_clouds=4, n_edges=40,
                                     pricing="random")
        rng = np.random.default_rng(seed + 100)
        a = Assignment(rng.integers(0, 4, size=graph.n_users))
        total = sum(replication_cost(u, a, graph, model)
                    for u in range(graph.n_users))
        assert total == pytest.approx(transfer_cost_total(a, graph, model))
        assert total == pytest.approx(naive_transfer_cost(a.host, graph, model))


def test_objective_frozen_assignment_table():
    graph, model = two_user_instance()
    params = ObjectiveParams(alpha=0.5)
    score = {(i, j): total_objective(Assignment([i, j]), graph, model, params)
             for i in (0, 1) for j in (0, 1)}
    assert score[(0, 0)] == pytest.approx(0.5 * (0.76 + 13 / 30))
    assert score[(0, 1)] == pytest.approx(0.5 * (0.76 + 17 / 30) - 3.0)
    assert score[(1, 0)] == pytest.approx(0.5 * (0.24 + 13 / 30) - 3.0)
    assert score[(1, 1)] == pytest.approx(0.5 * (0.24 + 17 / 30))
    assert max(score, key=score.get) == (0, 0)


def test_objective_matches_naive_recompute():
    for seed in range(6):
        graph, model = make_instance(seed, n_users=12, n_clouds=3, n_edges=35,
                                     pricing="random", regions_per_cloud=2)
        rng = np.random.default_rng(seed)
        a = Assignment(rng.integers(0, 3, size=graph.n_users))
        for alpha in (0.0, 0.3, 1.0):
            for normalized in (True, False):
                params = ObjectiveParams(alpha=alpha, cost_weight=1.7,
                                         use_normalized=normalized)
                assert total_objective(a, graph, model, params) == pytest.approx(
                    naive_total_objective(a.host, graph, model, alpha,
                                          cost_weight=1.7, normalized=normalized))


def test_alpha_boundaries():
    graph, model = make_instance(3, n_users=10, n_clouds=3, n_edges=25)
    a = Assignment(np.zeros(10, dtype=int))
    only_pref = total_objective(a, graph, model, ObjectiveParams(alpha=1.0))
    assert only_pref == pytest.approx(
        naive_total_objective(a.host, graph, model, 1.0))
    b = Assignment(np.arange(10) % 3)
    only_cost = total_objective(b, graph, model, ObjectiveParams(alpha=0.0, cost_weight=2.0))
    assert only_cost == pytest.approx(-2.0 * naive_transfer_cost(b.host, graph, model))


def test_objective_params_validation():
    with pytest.raises(ValidationError):
        ObjectiveParams(alpha=1.5)
    with pytest.raises(ValidationError):
        ObjectiveParams(alpha=0.5, cost_weight=0.0)


# -- assignments --------------------------------------------------------------

def test_assignment_validate():
    a = Assignment([0, 1, 2])
    a.validate(3, 3)
    with pytest.raises(ValidationError):
        a.validate(4, 3)
    with pytest.raises(ValidationError):
        a.validate(3, 2)
    with pytest.raises(ValidationError):
        Assignment([[0, 1]])


def test_assignment_csv_round_trip(tmp_path):
    graph, model = make_instance(1, n_users=9, n_clouds=3, n_edges=20)
    a = Assignment(np.arange(9) % 3)
    p = tmp_path / "assignment.csv"
    a.to_csv(p, graph, model)
    assert Assignment.from_csv(p, graph, model) == a


def test_assignment_csv_rejects_duplicates_and_gaps(tmp_path):
    graph, model = make_instance(1, n_users=3, n_clouds=2, n_edges=4)
    dup = tmp_path / "dup.csv"
    dup.write_text(f"{graph.label_of(0)},c0\n{graph.label_of(0)},c1\n")
    with pytest.raises(ValidationError, match="duplicate"):
        Assignment.from_csv(dup, graph, model)
    gap = tmp_path / "gap.csv"
    gap.write_text(f"{graph.label_of(0)},c0\n")
    with pytest.raises(ValidationError, match="missing"):
        Assignment.from_csv(gap, graph, model)


# -- evaluation reports -------------------------------------------------------

def test_evaluate_frozen_metrics():
    graph, model = two_user_instance()
    params = ObjectiveParams(alpha=0.5)
    rep = evaluate(Assignment([0, 1]), graph, model, params)
    assert rep.objective_value == pytest.approx(0.5 * (0.76 + 17 / 30) - 3.0)
    assert rep.preference_satisfaction == pytest.approx(0.76 + 17 / 30)
    assert rep.inter_cloud_cost == pytest.approx(6.0)
    assert rep.inter_cloud_edge_count == 1
    assert rep.per_cloud_user_counts == {"A": 1, "B": 1}


def test_evaluate_counts_only_cross_cloud_traffic():
    for seed in range(5):
        graph, model = make_instance(seed, n_users=14, n_clouds=4, n_edges=45,
                                     pricing="random")
        rng = np.random.default_rng(seed + 7)
        a = Assignment(rng.integers(0, 4, size=graph.n_users))
        rep = evaluate(a, graph, model, ObjectiveParams(alpha=0.4))
        assert rep.inter_cloud_cost == pytest.approx(
            naive_inter_cloud_cost(a.host, graph, model))
        ca, cb, _ = graph.connection_arrays()
        crossing = sum(1 for x, y in zip(ca, cb) if a.host[x] != a.host[y])
        assert rep.inter_cloud_edge_count == crossing
        assert sum(rep.per_cloud_user_counts.values()) == graph.n_users


def test_evaluate_satisfaction_ignores_raw_preference_setting():
    graph, model = two_user_instance()
    raw = evaluate(Assignment([0, 0]), graph, model,
                   ObjectiveParams(alpha=1.0, use_normalized=False))
    assert raw.objective_value == pytest.approx(3.8 + 1.3)
    assert raw.preference_satisfaction == pytest.approx(0.76 + 13 / 30)


def test_report_json_round_trip():
    rep = EvaluationReport(objective_value=1.25, preference_satisfaction=0.9,
                           inter_cloud_cost=4.0, inter_cloud_edge_count=2,
                           per_cloud_user_counts={"A": 3, "B": 1})
    assert json.loads(rep.to_json()) == rep.to_dict()
    assert rep.to_json().endswith("\n")

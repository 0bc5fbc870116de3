"""Acceptance suite: one test per release criterion, and one of the paper's
claim over both one-sided baselines in the regime where it holds.

Each test prints a single verdict line (collected into the "acceptance
criteria" section of the pytest summary) stating the measured value against
its tolerance.  Scales are chosen so the whole suite runs on a laptop.
"""

import io
import json
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    ExperimentConfig,
    HeuristicParams,
    ObjectiveParams,
    PricingMatrix,
    SocialGraph,
    baseline_max_preference,
    baseline_min_propagation,
    brute_force_optimal,
    build_dataset,
    default_profiles,
    evaluate,
    initial_hosting,
    run_heuristic,
    total_objective,
)
from cloudcut.experiments import (
    cmd_partition,
    make_oracle_instance,
    oracle_heuristic_params,
)
from oracles import RehostMove, apply_move, make_instance


@lru_cache(maxsize=None)
def desk_instance(seed):
    """1000 users on 6 clouds, the scale used by the statistical criteria."""
    cfg = ExperimentConfig(synth_users=1000, synth_clouds=6, rng_seed=seed)
    return build_dataset(cfg)


def test_criterion_1_oracle_equivalence(criterion):
    started = time.perf_counter()
    cfg = ExperimentConfig()  # oracle defaults: 10 users, 3 clouds, 0/1 pricing
    ratios_half, ratios_one = [], []
    for n_edges in cfg.oracle_edge_grid:
        for instance in range(cfg.oracle_instances):
            graph, model = make_oracle_instance(cfg, int(n_edges), instance)
            for alpha, sink in ((0.5, ratios_half), (1.0, ratios_one)):
                obj = ObjectiveParams(alpha=alpha)
                heur = run_heuristic(graph, model,
                                     oracle_heuristic_params(cfg, alpha))
                opt = brute_force_optimal(graph, model, obj)
                h = total_objective(heur, graph, model, obj)
                o = total_objective(opt, graph, model, obj)
                assert o > 0
                assert h <= o + 1e-9
                sink.append(h / o)
    elapsed = time.perf_counter() - started
    mean_half = float(np.mean(ratios_half))
    mean_one = float(np.mean(ratios_one))
    ok = (len(ratios_half) >= 50 and mean_half >= 0.9
          and mean_one >= 0.99 and elapsed < 60.0)
    criterion(1, ok,
              f"heuristic/optimal over {len(ratios_half)} instances: "
              f"mean {mean_half:.3f} (need >= 0.9), alpha=1 mean {mean_one:.4f} "
              f"(need >= 0.99), {elapsed:.1f}s (need < 60s)")
    assert ok


def test_criterion_2_gain_soundness(criterion):
    applied = 0
    worst = 0.0
    seed = 0
    obj = ObjectiveParams(alpha=0.4)
    while applied < 1000 and seed < 80:
        graph, model = make_instance(seed, n_users=60, n_clouds=4,
                                     n_edges=250, pricing="random")
        params = HeuristicParams(obj, touched_budget=1.0)
        buf = io.StringIO()
        run_heuristic(graph, model, params, telemetry=buf)
        host = initial_hosting(graph, model).host
        for line in buf.getvalue().splitlines():
            e = json.loads(line)
            if e.get("case") in (None, "keep") or e["event"] != "examine":
                continue
            move = RehostMove(e["u"], e["v"], e["case"],
                              target=e["target"] if e["case"] == "move_both" else None)
            before = total_objective(Assignment(host), graph, model, obj)
            host = apply_move(host, move)
            after = total_objective(Assignment(host), graph, model, obj)
            delta = after - before
            rel = abs(delta - e["gain"]) / max(1.0, abs(delta), abs(e["gain"]))
            worst = max(worst, rel)
            applied += 1
        seed += 1
    ok = applied >= 1000 and worst <= 1e-9
    criterion(2, ok,
              f"{applied} applied moves replayed, worst relative gain error "
              f"{worst:.2e} (need <= 1e-9)")
    assert ok


def test_criterion_3_monotone_alpha_sweeps(criterion):
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    seeds = range(20)
    pref = np.zeros((len(list(seeds)), len(alphas)))
    cost = np.zeros_like(pref)
    for i, seed in enumerate(seeds):
        graph, model = desk_instance(seed)
        cfg = ExperimentConfig(rng_seed=seed)
        for j, alpha in enumerate(alphas):
            result = run_heuristic(graph, model, cfg.heuristic_params(alpha))
            rep = evaluate(result, graph, model, cfg.objective_params(alpha))
            pref[i, j] = rep.preference_satisfaction
            cost[i, j] = rep.inter_cloud_cost

    pref_means = pref.mean(axis=0)
    cost_means = cost.mean(axis=0)
    pref_monotone = bool(np.all(np.diff(pref_means) >= -1e-9))
    cost_monotone = bool(np.all(np.diff(cost_means) >= -1e-9))
    alpha_col = np.tile(alphas, pref.shape[0])
    pref_rho, pref_p = stats.spearmanr(alpha_col, pref.ravel())
    cost_rho, cost_p = stats.spearmanr(alpha_col, cost.ravel())
    ok = (pref_monotone and cost_monotone
          and pref_rho > 0 and pref_p < 0.05
          and cost_rho > 0 and cost_p < 0.05)
    criterion(3, ok,
              f"means over 20 seeds non-decreasing in alpha "
              f"(pref {pref_monotone}, cost {cost_monotone}); Spearman "
              f"pref rho={pref_rho:.3f} p={pref_p:.1e}, "
              f"cost rho={cost_rho:.3f} p={cost_p:.1e} (need rho>0, p<0.05)")
    assert ok


def test_criterion_4_baseline_separation(criterion):
    margins, ratios = [], []
    for seed in range(20):
        graph, model = desk_instance(seed)
        cfg = ExperimentConfig(rng_seed=seed, alpha=0.5)
        params = cfg.objective_params()
        ours = evaluate(run_heuristic(graph, model, cfg.heuristic_params()),
                        graph, model, params)
        mp = evaluate(baseline_max_preference(graph, model), graph, model, params)
        # directional failures are hard failures
        assert ours.preference_satisfaction <= mp.preference_satisfaction + 1e-9
        assert ours.inter_cloud_cost <= mp.inter_cloud_cost + 1e-9
        assert mp.inter_cloud_cost > 0
        margins.append((mp.preference_satisfaction - ours.preference_satisfaction)
                       / mp.preference_satisfaction)
        ratios.append(ours.inter_cloud_cost / mp.inter_cloud_cost)
    mean_margin = float(np.mean(margins))
    mean_ratio = float(np.mean(ratios))
    ok = mean_margin <= 0.35 and mean_ratio <= 1 / 3
    criterion(4, ok,
              f"preference degradation mean {mean_margin:.1%} (need <= 35%); "
              f"inter-cloud cost vs max-preference mean {mean_ratio:.3f} "
              f"max {max(ratios):.3f} (need mean <= 1/3)")
    assert ok


def test_criterion_5_min_propagation_floor(criterion):
    worst = 0.0
    for seed in range(20):
        graph, model = desk_instance(seed)
        rep = evaluate(baseline_min_propagation(graph, model), graph, model,
                       ObjectiveParams(alpha=0.5))
        worst = max(worst, rep.inter_cloud_cost)

    # an explicitly connected graph: a directed cycle plus random chords
    n = 400
    rng = np.random.default_rng(99)
    src = np.concatenate([np.arange(n), rng.integers(0, n, 600)])
    dst = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, 600)])
    keep = src != dst
    graph = SocialGraph([f"u{i}" for i in range(n)], src[keep], dst[keep],
                        rng.uniform(0.5, 2.0, int(keep.sum())))
    aff = AffinityTable(rng.uniform(0, 1, (n, 6)), rng.uniform(0, 1, (n, 6)))
    vol, blend = default_profiles(graph)
    model = CloudModel([f"c{k}" for k in range(6)], [f"r{k}" for k in range(6)],
                       np.arange(6), PricingMatrix.uniform(6), aff, vol, blend)
    a = baseline_min_propagation(graph, model)
    assert len(set(a.host.tolist())) == 1  # one component, one cloud
    rep = evaluate(a, graph, model, ObjectiveParams(alpha=0.5))
    worst = max(worst, rep.inter_cloud_cost)
    ok = worst == 0.0
    criterion(5, ok, f"min-propagation inter-cloud cost across 21 graphs: "
                     f"{worst} (need exactly 0)")
    assert ok


def test_criterion_6_scalability(criterion):
    times = {}
    for n_edges in (10_000, 100_000, 1_000_000):
        n_users = n_edges // 10
        cfg = ExperimentConfig(synth_users=n_users, synth_clouds=6, rng_seed=1)
        graph, model = build_dataset(cfg)
        started = time.perf_counter()
        run_heuristic(graph, model, cfg.heuristic_params())
        times[n_edges] = time.perf_counter() - started
    big = times[1_000_000]
    # sub-quadratic: each 10x edge step must cost well under 100x
    growth_ok = (times[100_000] < 100 * max(times[10_000], 1e-3)
                 and times[1_000_000] < 100 * max(times[100_000], 1e-3))
    ok = big <= 60.0 and growth_ok
    criterion(6, ok,
              f"run_heuristic at 1e4/1e5/1e6 edges: "
              f"{times[10_000]:.2f}s/{times[100_000]:.2f}s/{big:.2f}s "
              f"(need <= 60s at 1e6 and sub-quadratic growth)")
    assert ok


def test_criterion_7_determinism(criterion, tmp_path):
    outputs = []
    for run in ("first", "second"):
        cfg = ExperimentConfig(synth_users=1000, synth_clouds=6, rng_seed=4,
                               output_dir=str(tmp_path / run), telemetry=True)
        res = cmd_partition(cfg)
        outputs.append((Path(res["assignment"]).read_bytes(),
                        Path(res["report"]).read_bytes()))
    ok = outputs[0] == outputs[1]
    criterion(7, ok, "two runs with one config and seed produce byte-identical "
                     f"assignment and report files: {ok}")
    assert ok


def test_the_heuristic_beats_both_one_sided_baselines_in_the_papers_regime(criterion):
    # beside the seven criteria: where cost weighs little and affinity decays
    # within a region's neighbourhood, both preference and cost count, and
    # the walk must score above min_propagation and max_preference alike
    margins = []
    for seed in range(20):
        cfg = ExperimentConfig(synth_users=3000, rng_seed=seed, cost_weight=0.001,
                               affinity_scale=0.03, touched_budget=0.2)
        graph, model = build_dataset(cfg)
        params = cfg.objective_params()
        ours = total_objective(run_heuristic(graph, model, cfg.heuristic_params()),
                               graph, model, params)
        best = max(total_objective(baseline(graph, model), graph, model, params)
                   for baseline in (baseline_min_propagation, baseline_max_preference))
        margins.append((ours - best) / abs(best))
    ok = min(margins) > 0
    criterion("claim", ok,
              f"heuristic objective above the better of min-propagation and max-preference "
              f"on {sum(m > 0 for m in margins)} of 20 seeds at 3000 users: by min "
              f"{min(margins):.2%}, median {float(np.median(margins)):.2%} "
              "(need > 0 on every seed)")
    assert ok

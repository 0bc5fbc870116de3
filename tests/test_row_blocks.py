"""The passes over the whole friend CSR, read in place a block of rows at a time.

preference_matrix, evaluate's cross-cloud count and the walk's choice of
cross pairs each read graph.row_blocks(), so none of them holds a temporary
as long as the CSR.  These tests patch the block size down to a few slots,
so that small graphs take many blocks, and hold the three passes to their
oracles; they also hold each pass's memory peak, at a benchmark size, to a
bound the whole-CSR passes broke, and the walk's and evaluate's peaks to what
their stages need.  Writing the benchmark's assignment, the job's last stage,
is held to a peak of its own.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import (
    Assignment,
    HeuristicParams,
    ObjectiveParams,
    SocialGraph,
    evaluate,
    run_heuristic,
)
from cloudcut import graph as graph_module
from cloudcut.cloud import normalize_rows, preference_matrix
from cloudcut.experiments import ExperimentConfig, build_dataset, cmd_partition
from oracles import (
    make_instance,
    naive_walk,
    random_model,
    scipy_preference_matrix,
    traced_peak,
)


def blocks_of(graph):
    """[(rows, slots, row)] of graph.row_blocks(), as lists."""
    return [((rows.start, rows.stop), (slots.start, slots.stop), row.tolist())
            for rows, slots, row in graph.row_blocks()]


def hub_graph(seed, n_users, n_lonely, edge_share):
    """A graph whose user 0 is a friend of every other user with friends, so
    that its row is n_users - 1 slots long, followed by n_lonely users with
    no friends; the other edges are random."""
    rng = np.random.default_rng(seed)
    others = np.arange(1, n_users)
    out = rng.random(n_users - 1) < 0.5  # each spoke points either way
    src, dst = np.where(out, 0, others), np.where(out, others, 0)
    extra = rng.integers(1, n_users, size=(2, int(edge_share * n_users * (n_users - 1))))
    extra = extra[:, extra[0] != extra[1]]
    src, dst = np.concatenate([src, extra[0]]), np.concatenate([dst, extra[1]])
    # few weights, so that pairs tie, and repeated records sum
    weight = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=src.size)
    graph = SocialGraph([f"u{i}" for i in range(n_users + n_lonely)], src, dst, weight)
    return graph, rng


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       n_users=st.integers(6, 12),
       n_lonely=st.integers(1, 3),
       n_clouds=st.sampled_from([1, 2, 3, 5]),
       edge_share=st.floats(0.0, 0.5),
       block=st.integers(1, 4),
       alpha=st.floats(0.0, 1.0),
       budget=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       use_normalized=st.booleans())
def test_passes_read_in_small_blocks_match_their_oracles(
        seed, n_users, n_lonely, n_clouds, edge_share, block, alpha, budget, use_normalized):
    graph, rng = hub_graph(seed, n_users, n_lonely, edge_share)
    model = random_model(graph, rng, n_clouds, pricing="random")
    host = Assignment(rng.integers(0, n_clouds, size=graph.n_users))
    objective = ObjectiveParams(alpha=alpha, use_normalized=use_normalized)
    params = HeuristicParams(objective, touched_budget=budget)
    whole = evaluate(host, graph, model, objective)
    naive = io.StringIO()
    naive_host = naive_walk(graph, model, params, telemetry=naive).host.tolist()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_BLOCK", block)
        blocks = blocks_of(graph)
        # whole rows, in order, covering every user and slot; a block over
        # _BLOCK slots is one row longer than that, the hub's
        assert blocks[0][0][0] == blocks[0][1][0] == 0
        assert blocks[-1][0][1] == graph.n_users
        assert blocks[-1][1][1] == graph.friend_csr()[1].size
        for (rows, slots, row), (next_rows, next_slots, _) in zip(blocks, blocks[1:]):
            assert rows[1] == next_rows[0] and slots[1] == next_slots[0]
        for (lo, hi), (start, stop), row in blocks:
            assert len(row) == stop - start
            assert stop - start <= block or hi - lo == 1
        assert any(stop - start > block for _, (start, stop), _ in blocks)
        assert graph.friends(graph.n_users - 1).size == 0

        psi = preference_matrix(graph, model)
        assert np.array_equal(psi.view(np.int64),
                              scipy_preference_matrix(graph, model).view(np.int64))
        assert evaluate(host, graph, model, objective, psi=psi) == whole
        telemetry = io.StringIO()
        walked = run_heuristic(graph, model, params, telemetry=telemetry, psi=psi)
    assert walked.host.tolist() == naive_host
    assert telemetry.getvalue() == naive.getvalue()


def test_a_graph_with_no_users_is_one_empty_block():
    graph = SocialGraph([], [], [], [])
    assert blocks_of(graph) == [((0, 0), (0, 0), [])]


def test_the_walk_and_the_partition_command_never_build_the_connection_arrays(
        monkeypatch, tmp_path):
    # the walk reads its cross pairs off the friend CSR; the connection
    # arrays hold four arrays as long as the connections, and a row index
    # twice that
    def refused(self):
        raise AssertionError("built the connection arrays")

    def partition(run):
        config = ExperimentConfig(synth_users=300, synth_clouds=4, rng_seed=3,
                                  telemetry=True, output_dir=str(tmp_path / run))
        cmd_partition(config)
        return [(tmp_path / run / name).read_bytes()
                for name in ("assignment.csv", "report.json", "telemetry.jsonl")]

    graph, model = make_instance(5, n_users=40, n_clouds=4, n_edges=300, pricing="random")
    params = HeuristicParams(ObjectiveParams(alpha=0.4), touched_budget=0.5)
    expected = run_heuristic(graph, model, params)
    before = partition("before")
    monkeypatch.setattr(SocialGraph, "connection_arrays", refused)
    assert run_heuristic(graph, model, params) == expected
    psi = preference_matrix(graph, model)
    assert run_heuristic(graph, model, params, psi=psi) == expected
    assert partition("after") == before


@pytest.fixture(scope="module")
def benchmark_dataset():
    """The partition benchmark's dataset: 3e4 users, about 3e5 edges."""
    config = ExperimentConfig(synth_users=30_000, synth_clouds=6, synth_regions=80,
                              rng_seed=101)
    return config, *build_dataset(config)


def test_each_pass_over_the_friend_csr_peaks_below_twice_its_neighbour_array(
        benchmark_dataset):
    # a whole-CSR pass holds a row index and a gather of 2m entries each,
    # which alone come to twice nbr's bytes; a pass in blocks holds arrays
    # no longer than the cross pairs
    config, graph, model = benchmark_dataset
    bound = 2 * graph.friend_csr()[1].nbytes
    params = config.heuristic_params()
    psi, pref_peak = traced_peak(preference_matrix, graph, model)
    host, walk_peak = traced_peak(lambda: run_heuristic(graph, model, params, psi=psi))
    report, evaluate_peak = traced_peak(
        lambda: evaluate(host, graph, model, params.objective, psi=psi))
    peaks = {"preference_matrix": pref_peak, "run_heuristic": walk_peak,
             "evaluate": evaluate_peak}
    assert all(peak < bound for peak in peaks.values()), (
        json.dumps({name: round(peak / 2**20, 2) for name, peak in peaks.items()}),
        bound / 2**20)
    assert report.inter_cloud_edge_count > 0


def test_the_walk_and_evaluate_peak_below_what_their_stages_need(benchmark_dataset):
    # evaluate holds priced traffic and a cross-cloud bool per edge, and the
    # normalized table with its raw one; the walk holds one weight per
    # connection, fewer than two per cross pair here, while it finds its
    # prefix's cut weight, sorts only that prefix, and makes its normalized
    # table once the prefix is chosen
    config, graph, model = benchmark_dataset
    objective = config.objective_params()
    params = HeuristicParams(objective, touched_budget=0.05)
    psi = preference_matrix(graph, model)
    host, walk_peak = traced_peak(lambda: run_heuristic(graph, model, params, psi=psi))
    _, evaluate_peak = traced_peak(lambda: evaluate(host, graph, model, objective, psi=psi))
    first = np.argmax(normalize_rows(psi), axis=1)
    a, b, _, _ = graph.connection_arrays()
    n_cross = int(np.count_nonzero(first[a] != first[b]))
    assert n_cross > graph.n_connections / 2
    walk_bound = 16 * n_cross + 2**20
    evaluate_bound = 9 * graph.n_edges + 2 * psi.nbytes + 2**20
    assert walk_peak < walk_bound, (walk_peak / 2**20, walk_bound / 2**20)
    assert evaluate_peak < evaluate_bound, (evaluate_peak / 2**20, evaluate_bound / 2**20)


def test_writing_the_benchmark_assignment_peaks_under_one_mib(benchmark_dataset, tmp_path):
    # write_table renders a block of rows at a time, so a write holds one
    # block's row strings and the user-long column of cloud labels, never
    # the file's text, which alone is about 0.3 MiB here
    _, graph, model = benchmark_dataset
    assignment = Assignment(np.arange(graph.n_users) % model.n_clouds)
    path = tmp_path / "assignment.csv"
    _, peak = traced_peak(assignment.to_csv, path, graph, model)
    assert peak < 2**20, f"the write peaked at {peak / 2**20:.2f} MiB"
    assert Assignment.from_csv(path, graph, model) == assignment

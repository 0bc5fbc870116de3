import contextlib
import csv
import io
import json
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import AffinityTable, ExperimentConfig, ValidationError, build_dataset
from cloudcut.cli import main
from cloudcut.experiments import (
    ALGORITHMS,
    SWEEP_HEADER,
    cmd_evaluate,
    cmd_oracle_compare,
    cmd_partition,
    cmd_sweep_alpha,
    cmd_sweep_providers,
    cmd_synth,
    make_oracle_instance,
)


def tiny_config(tmp_path, **kw):
    base = dict(synth_users=60, synth_mean_degree=4.0, synth_regions=12,
                synth_clouds=3, output_dir=str(tmp_path / "out"), rng_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- config document -----------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        ExperimentConfig.from_dict({"alpha": 0.5, "bogus": 1})


def test_config_rejects_unknown_algorithms():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"algorithm": "magic"})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"algorithms": ["heuristic", "magic"]})
    # built directly, not only from a document
    with pytest.raises(ValidationError, match="algorithm must be one of"):
        ExperimentConfig(algorithm="bogus", algorithms=("nope",))
    with pytest.raises(ValidationError, match="unknown algorithm 'nope'"):
        ExperimentConfig(algorithms=("heuristic", "nope"))


# any JSON value: nested lists and objects, integers beyond 64 bits, NaN and
# infinities, bools, and strings that include real field values
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.sampled_from([2**70, -2**70]),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=6), st.sampled_from(ALGORITHMS))
JSON_VALUE = st.recursive(JSON_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
FIELD_NAMES = [f.name for f in fields(ExperimentConfig)]


@settings(max_examples=500, deadline=None)
@given(doc=st.one_of(st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUE, max_size=6),
                     JSON_VALUE))
def test_config_from_dict_lets_only_validation_errors_escape(doc):
    try:
        ExperimentConfig.from_dict(doc)
    except ValidationError:
        pass


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(alpha=0.25, alpha_grid=(0.1, 0.9),
                           algorithms=("heuristic", "random"), rng_seed=9)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_json(p) == cfg


def test_config_overrides_skip_none():
    cfg = ExperimentConfig(alpha=0.25)
    same = cfg.with_overrides(alpha=None, rng_seed=None)
    assert same == cfg
    bumped = cfg.with_overrides(rng_seed=3)
    assert bumped.rng_seed == 3 and bumped.alpha == 0.25


def test_config_builds_solver_params():
    cfg = ExperimentConfig(alpha=0.3, cost_weight=2.0, min_gain=0.1,
                           touched_budget=0.4)
    hp = cfg.heuristic_params()
    assert hp.objective.alpha == 0.3
    assert hp.objective.cost_weight == 2.0
    assert hp.min_gain == 0.1
    assert hp.touched_budget == 0.4
    assert cfg.heuristic_params(alpha=0.9).objective.alpha == 0.9


# -- dataset assembly ----------------------------------------------------------

def test_build_dataset_is_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    g1, m1 = build_dataset(cfg)
    g2, m2 = build_dataset(cfg)
    assert g1.labels == g2.labels
    assert np.array_equal(np.column_stack(g1.edge_arrays()),
                          np.column_stack(g2.edge_arrays()))
    assert np.array_equal(m1.affinity.download, m2.affinity.download)
    assert np.array_equal(m1.home_region, m2.home_region)
    assert m1.n_clouds == 3 and m1.n_regions == 12
    assert g1.n_users == 60


def test_synth_dataset_round_trips_through_files(tmp_path):
    cfg = tiny_config(tmp_path)
    paths = cmd_synth(cfg)
    graph0, model0 = build_dataset(cfg)

    cfg_files = ExperimentConfig(
        edges_path=paths["edges"], regions_path=paths["regions"],
        pricing_path=paths["pricing"], profiles_path=paths["profiles"],
        output_dir=str(tmp_path / "out2"), rng_seed=5)
    graph1, model1 = build_dataset(cfg_files)

    def by_label(g):
        return {(g.label_of(s), g.label_of(d)): w
                for s, d, w in zip(*g.edge_arrays())}

    assert graph1.n_users == graph0.n_users
    assert by_label(graph1) == by_label(graph0)
    assert model1.cloud_labels == model0.cloud_labels
    assert np.array_equal(model1.pricing.matrix, model0.pricing.matrix)
    ids1 = graph1.user_ids(graph0.labels)
    assert ids1.min(initial=0) >= 0
    for u0, u1 in enumerate(ids1):
        assert model1.home_region[u1] == model0.home_region[u0]
        assert model1.upload_volume[u1] == model0.upload_volume[u0]
        assert np.array_equal(model1.affinity.download[u1],
                              model0.affinity.download[u0])


def test_synth_command_refuses_input_paths(tmp_path):
    cfg = tiny_config(tmp_path, edges_path="somewhere.csv")
    with pytest.raises(ValidationError, match="fresh dataset"):
        cmd_synth(cfg)


def test_build_dataset_with_subsample(tmp_path):
    cfg = tiny_config(tmp_path, synth_users=200, sample_users=50, sample_seeds=3)
    graph, model = build_dataset(cfg)
    assert graph.n_users == 50
    assert model.n_users == 50


# -- commands -------------------------------------------------------------------

def test_partition_command_writes_assignment_and_report(tmp_path):
    cfg = tiny_config(tmp_path, telemetry=True)
    res = cmd_partition(cfg)
    out = Path(cfg.output_dir)
    assert (out / "assignment.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert res["objective_value"] == report["objective_value"]
    assert sum(report["per_cloud_user_counts"].values()) == 60
    lines = (out / "telemetry.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["event"] == "summary"


def test_partition_never_builds_the_users_by_regions_arrays(tmp_path, monkeypatch):
    def unread(self):
        pytest.fail("a partition job read a users x regions affinity array")
    monkeypatch.setattr(AffinityTable, "download", property(unread))
    monkeypatch.setattr(AffinityTable, "upload", property(unread))
    res = cmd_partition(tiny_config(tmp_path))
    assert Path(res["assignment"]).exists()


def test_partition_outputs_are_byte_reproducible(tmp_path):
    r1 = cmd_partition(tiny_config(tmp_path, output_dir=str(tmp_path / "a"),
                                   telemetry=True))
    r2 = cmd_partition(tiny_config(tmp_path, output_dir=str(tmp_path / "b"),
                                   telemetry=True))
    assert Path(r1["assignment"]).read_bytes() == Path(r2["assignment"]).read_bytes()
    assert Path(r1["report"]).read_bytes() == Path(r2["report"]).read_bytes()
    assert ((tmp_path / "a" / "telemetry.jsonl").read_bytes()
            == (tmp_path / "b" / "telemetry.jsonl").read_bytes())


def test_evaluate_command_matches_partition_report(tmp_path):
    cfg = tiny_config(tmp_path)
    res = cmd_partition(cfg)
    cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "eval"))
    res2 = cmd_evaluate(cfg2, res["assignment"])
    assert Path(res2["report"]).read_bytes() == Path(res["report"]).read_bytes()


def test_sweep_alpha_schema_and_row_count(tmp_path):
    cfg = tiny_config(tmp_path, alpha_grid=(0.0, 0.5, 1.0),
                      algorithms=("heuristic", "random"))
    res = cmd_sweep_alpha(cfg)
    rows = read_rows(res["sweep"])
    assert res["rows"] == len(rows) == 6
    assert tuple(rows[0].keys()) == SWEEP_HEADER
    assert {float(r["alpha"]) for r in rows} == {0.0, 0.5, 1.0}
    assert all(r["n_clouds"] == "3" for r in rows)
    assert {r["algorithm"] for r in rows} == {"heuristic", "random"}
    for r in rows:
        float(r["objective"]), float(r["inter_cloud_cost"])


def test_sweep_providers_covers_full_grid(tmp_path):
    cfg = tiny_config(tmp_path, algorithms=("heuristic",), alpha=0.5)
    res = cmd_sweep_providers(cfg)
    rows = read_rows(res["sweep"])
    assert [r["n_clouds"] for r in rows] == ["1", "2", "3"]
    # a single active cloud cannot generate cross-cloud traffic
    assert float(rows[0]["inter_cloud_cost"]) == 0.0
    assert float(rows[0]["pref_satisfaction"]) == pytest.approx(60.0)


def test_sweep_cloud_grid_validation(tmp_path):
    cfg = tiny_config(tmp_path, cloud_grid=(2, 9))
    with pytest.raises(ValidationError, match="cloud_grid"):
        cmd_sweep_alpha(cfg)


def test_oracle_compare_never_beats_the_optimum(tmp_path):
    cfg = tiny_config(tmp_path, oracle_users=8, oracle_edge_grid=(10, 14),
                      oracle_instances=3)
    res = cmd_oracle_compare(cfg)
    rows = read_rows(res["oracle"])
    assert len(rows) == 6
    for r in rows:
        h = float(r["heuristic_objective"])
        o = float(r["optimal_objective"])
        assert h <= o + 1e-9
        assert np.isfinite(float(r["ratio"]))


def test_oracle_instances_have_exact_edge_counts(tmp_path):
    cfg = tiny_config(tmp_path, oracle_users=9, oracle_clouds=3)
    g1, m1 = make_oracle_instance(cfg, 17, 0)
    assert g1.n_users == 9 and g1.n_edges == 17
    assert m1.n_clouds == 3 and m1.n_regions == 3
    g2, _ = make_oracle_instance(cfg, 17, 1)
    assert not np.array_equal(np.column_stack(g1.edge_arrays()),
                              np.column_stack(g2.edge_arrays()))


# -- command line ---------------------------------------------------------------

SMALL = ["--users", "50", "--mean-degree", "3", "--clouds", "3",
         "--regions-count", "9", "--seed", "1"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_partition_smoke(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, stderr = run_cli(
        ["partition", *SMALL, "--output-dir", str(out)], capsys)
    assert code == 0
    assert stderr == ""
    doc = json.loads(stdout)
    assert {"objective_value", "preference_satisfaction", "inter_cloud_cost",
            "assignment", "report"} <= set(doc)
    assert (out / "assignment.csv").exists()


def test_cli_reads_config_document(tmp_path, capsys):
    out = tmp_path / "from_config"
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({
        "synth_users": 50, "synth_mean_degree": 3.0, "synth_regions": 9,
        "synth_clouds": 3, "rng_seed": 1, "output_dir": str(out)}))
    code, stdout, _ = run_cli(["partition", "--config", str(cfgp)], capsys)
    assert code == 0
    assert (out / "report.json").exists()


def test_cli_flags_override_config(tmp_path, capsys):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({
        "synth_users": 50, "synth_mean_degree": 3.0, "synth_regions": 9,
        "synth_clouds": 3, "rng_seed": 1, "output_dir": str(tmp_path / "cfg_out")}))
    flag_out = tmp_path / "flag_out"
    code, _, _ = run_cli(["partition", "--config", str(cfgp),
                          "--output-dir", str(flag_out)], capsys)
    assert code == 0
    assert flag_out.exists()
    assert not (tmp_path / "cfg_out").exists()


def test_cli_env_var_overrides_output_dir(tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("CLOUDCUT_OUTPUT_DIR", str(env_out))
    code, _, _ = run_cli(
        ["partition", *SMALL, "--output-dir", str(tmp_path / "flag_out")], capsys)
    assert code == 0
    assert env_out.exists()
    assert not (tmp_path / "flag_out").exists()


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "config.json"
    # termination_mode was a key once; its two stops are min_gain and touched_budget
    for doc in ({"bogus": 1}, {"termination_mode": "budget"}):
        cfgp.write_text(json.dumps(doc))
        code, stdout, stderr = run_cli(["partition", "--config", str(cfgp)], capsys)
        assert code == 2
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ValidationError"
        assert next(iter(doc)) in err["message"]


@pytest.mark.parametrize("doc", [{"alpha": "x"}, {"touched_budget": None},
                                 {"synth_users": 2.5}, {"alpha_grid": [0.5, "x"]},
                                 {"cloud_grid": [1.5]}, {"oracle_edge_grid": [2.5]}])
def test_cli_mistyped_config_value_exits_2(tmp_path, capsys, doc):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "o")}))
    code, stdout, stderr = run_cli(["partition", "--config", str(cfgp)], capsys)
    assert code == 2
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ValidationError"
    assert next(iter(doc)) in err["message"]


@pytest.mark.parametrize("doc", [{"oracle_clouds": 0}, {"oracle_weight_scale": -1},
                                 {"oracle_edge_grid": [-1]}])
def test_cli_out_of_range_config_value_exits_2(tmp_path, capsys, doc):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "o")}))
    code, stdout, stderr = run_cli(["oracle-compare", "--config", str(cfgp)], capsys)
    assert (code, stdout) == (2, "")
    err = json.loads(stderr)
    assert err["error"] == "ValidationError"
    assert next(iter(doc)) in err["message"]


def test_cli_zero_clouds_flag_exits_2(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        ["partition", "--clouds", "0", "--users", "20", "--output-dir", str(tmp_path / "o")],
        capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "ValidationError",
                                  "message": "synth_clouds must be finite and >= 1, got 0"}


@pytest.mark.parametrize("command, doc", [
    ("sweep-alpha", {"alpha_grid": []}), ("sweep-alpha", {"algorithms": []}),
    ("sweep-providers", {"cloud_grid": []}), ("oracle-compare", {"oracle_edge_grid": []}),
    ("oracle-compare", {"oracle_instances": -1}), ("oracle-compare", {"oracle_instances": 0}),
    ("partition", {"rng_seed": -1}),
    # refused before any edge is drawn (a large value that fits in memory is not tried)
    ("partition", {"synth_mean_degree": 1e300}), ("partition", {"synth_mean_degree": 20.0}),
    ("partition", {"synth_weight_exponent": float("nan")}),
])
def test_cli_empty_grid_or_count_out_of_range_exits_2(tmp_path, capsys, command, doc):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({**doc, "synth_users": 20, "output_dir": str(tmp_path / "o")}))
    code, stdout, stderr = run_cli([command, "--config", str(cfgp)], capsys)
    assert (code, stdout) == (2, "")
    err = json.loads(stderr)
    assert err["error"] == "ValidationError"
    assert next(iter(doc)).removeprefix("synth_") in err["message"]


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "rng_seed must be finite and >= 0, got -1"),
    # a score of NaN or -Infinity is not JSON
    ("--cost-weight", "nan", "cost_weight must be finite and > 0, got nan"),
    ("--cost-weight", "inf", "cost_weight must be finite and > 0, got inf"),
], ids=["seed", "cost-weight-nan", "cost-weight-inf"])
def test_cli_out_of_range_flag_exits_2(tmp_path, capsys, flag, value, message):
    code, stdout, stderr = run_cli(
        ["partition", flag, value, "--users", "20", "--output-dir", str(tmp_path / "o")],
        capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize("command, argv, message", [
    ("partition", ["--cost-weight", "nan"], "cost_weight must be finite and > 0, got nan"),
    ("partition", ["--alpha", "1.5"], "alpha must lie in [0, 1]"),
    ("partition", ["--alpha", "nan"], "alpha must lie in [0, 1]"),
    ("partition", ["--touched-budget", "2"], "touched_budget must lie in [0, 1]"),
    ("partition", ["--touched-budget", "-0.1"], "touched_budget must lie in [0, 1]"),
    ("partition", ["--min-gain", "inf"], "min_gain must be finite"),
    ("sweep-alpha", {"alpha_grid": [0.5, 2.0]}, "alpha_grid entry 2.0: alpha must lie in [0, 1]"),
    ("sweep-alpha", {"alpha_grid": [float("nan")]},
     "alpha_grid entry nan: alpha must lie in [0, 1]"),
    ("partition", {"algorithm": "bogus"}, f"algorithm must be one of {ALGORITHMS}"),
    ("sweep-providers", {"algorithms": ["heuristic", "nope"]}, "unknown algorithm 'nope'"),
], ids=["cost-weight-nan", "alpha-1.5", "alpha-nan", "touched-budget-2",
        "touched-budget-negative", "min-gain-inf", "alpha-grid-2", "alpha-grid-nan",
        "algorithm", "algorithms"])
def test_cli_bad_objective_or_walk_parameter_exits_2_before_any_work(
        tmp_path, capsys, command, argv, message):
    # refused when the config is built: no dataset is built, and the output
    # directory is never made
    out = tmp_path / "o"
    if isinstance(argv, dict):  # a config document
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps(argv))
        argv = ["--config", str(cfgp)]
    with mock.patch("cloudcut.experiments.build_dataset", side_effect=AssertionError):
        code, stdout, stderr = run_cli(
            [command, *argv, "--users", "2000", "--output-dir", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "ValidationError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("regions, error, message", [
    ("r0,c0,0.1,0.1\nr1,c1,nan,0.9\n", "ParseError",
     "line 2: coordinates must be finite, got nan, 0.9"),
    ("r0,c0,0.1,-inf\nr1,c1,0.9,0.9\n", "ParseError",
     "line 1: coordinates must be finite, got 0.1, -inf"),
    # finite coordinates whose distances overflow
    ("r0,c0,1e308,1e308\nr1,c1,-1e308,-1e308\n", "ValidationError",
     "user-region distances must be finite"),
], ids=["nan", "inf", "overflow"])
def test_cli_coordinates_that_break_the_decay_exit_2_without_a_warning(
        tmp_path, capsys, regions, error, message):
    (tmp_path / "regions.csv").write_text(regions)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_cli(
            ["partition", "--users", "20", "--regions", str(tmp_path / "regions.csv"),
             "--output-dir", str(tmp_path / "o")], capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": error, "message": message}
    assert caught == []


def test_cli_empty_regions_file_exits_2(tmp_path, capsys):
    regions = tmp_path / "regions.csv"
    regions.write_text("")
    code, stdout, stderr = run_cli(
        ["partition", "--regions", str(regions), "--users", "20",
         "--output-dir", str(tmp_path / "o")], capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "ParseError", "message": "region file has no rows"}


@pytest.mark.parametrize("doc", [{"output_dir": 5}, {"edges_path": 7},
                                 {"use_normalized": "no"}, {"telemetry": 1},
                                 {"algorithms": 5}])
def test_cli_mistyped_string_or_bool_config_value_exits_2(tmp_path, capsys, doc):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({"output_dir": str(tmp_path / "o"), **doc}))
    code, stdout, stderr = run_cli(["partition", "--config", str(cfgp)], capsys)
    assert code == 2
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ValidationError"
    assert next(iter(doc)) in err["message"]


@pytest.mark.parametrize("text", ['{"alpha": 0.5,', "[1, 2]", '{"alpha": "\xff"}'])
def test_cli_malformed_config_document_exits_2(tmp_path, capsys, text):
    cfgp = tmp_path / "config.json"
    cfgp.write_bytes(text.encode("latin-1"))
    code, stdout, stderr = run_cli(["partition", "--config", str(cfgp)], capsys)
    assert code == 2
    assert stdout == ""
    assert json.loads(stderr)["error"] == "ValidationError"


def test_cli_edge_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_bytes(b"a,b,1.0\n\xff\xfe,c,2.0\n")
    code, stdout, stderr = run_cli(
        ["partition", "--edges", str(edges), "--output-dir", str(tmp_path / "o")], capsys)
    assert code == 2
    assert stdout == ""
    assert json.loads(stderr) == {"error": "ParseError",
                                  "message": "line 2: text is not valid UTF-8"}


def test_cli_edge_labels_are_stripped_like_profile_labels(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(" a, b ,1.0\nb,a,2.0\n")
    regions = tmp_path / "regions.csv"
    regions.write_text("r0,c0,0.1,0.1\nr1,c1,0.9,0.9\n")
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("a,1,1,r0\nb,2,1,r1\n")
    out = tmp_path / "o"
    code, _, stderr = run_cli(
        ["partition", "--edges", str(edges), "--regions", str(regions),
         "--profiles", str(profiles), "--output-dir", str(out)], capsys)
    assert code == 0, stderr
    labels = [line.split(",")[0] for line in (out / "assignment.csv").read_text().splitlines()]
    assert labels == ["a", "b"]


def test_cli_labels_that_need_quoting_survive_partition_then_evaluate(tmp_path, capsys):
    labels = ["a,1", 'q"t', "c\rr", "l\nf", 'x,"\r\ny']
    quoted = ['"' + lab.replace('"', '""') + '"' for lab in labels]
    files = {
        "edges": "".join(f"{a},{b},{w}.0\n" for w, (a, b) in
                         enumerate(zip(quoted, quoted[1:] + quoted[:1]), start=1)),
        "profiles": "".join(f"{q},1.0,1.0,r{i % 2}\n" for i, q in enumerate(quoted)),
        "regions": "r0,c0,0.1,0.1\nr1,c1,0.9,0.9\n",
    }
    inputs = []
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8", newline="")
        inputs += [f"--{name}", str(tmp_path / f"{name}.csv")]
    code, stdout, stderr = run_cli(
        ["partition", *inputs, "--output-dir", str(tmp_path / "p")], capsys)
    assert code == 0, stderr
    partitioned = json.loads(stdout)
    code, stdout, stderr = run_cli(
        ["evaluate", partitioned["assignment"], *inputs, "--output-dir", str(tmp_path / "e")],
        capsys)
    assert code == 0, stderr
    assert json.loads(stdout)["objective_value"] == partitioned["objective_value"]


def test_cli_pricing_with_extra_row_exits_2(tmp_path, capsys):
    regions = tmp_path / "regions.csv"
    regions.write_text("r0,a,0.1,0.1\nr1,b,0.9,0.9\n")
    pricing = tmp_path / "pricing.csv"
    pricing.write_text("cloud,a,b\na,0.0,1.0\nb,1.0,0.0\nc,1.0,1.0\n")
    code, stdout, stderr = run_cli(
        ["partition", "--users", "20", "--regions", str(regions),
         "--pricing", str(pricing), "--output-dir", str(tmp_path / "o")], capsys)
    assert code == 2
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ParseError"
    assert "line 4" in err["message"]


@pytest.mark.parametrize("argv, text, error, message", [
    # the bad value is reported even though the next row overwrites it
    (["partition", "--affinities"], "a,r0,0.5,0.5\nb,r1,-1,0.2\nb,r1,0.3,0.2\n", "ParseError",
     "line 2: affinities must be finite and non-negative, got -1.0, 0.2"),
    (["partition", "--profiles"], "a,1,1,r0\nzz ,2,1,r1\n", "ParseError",
     "line 2: unknown user 'zz'"),
    (["evaluate"], "a,c0\nzz,c1\n", "ValidationError", "line 2: unknown user label 'zz'"),
    (["evaluate"], "a,c0\nb,cX\n", "ValidationError", "line 2: unknown cloud label 'cX'"),
], ids=["affinities", "profiles", "assignment-user", "assignment-cloud"])
def test_cli_bad_row_in_a_side_table_exits_2_naming_its_line(tmp_path, capsys, argv, text,
                                                              error, message):
    for name, body in (("edges", "a,b,1.0\nb,a,2.0\n"), ("table", text),
                       ("regions", "r0,c0,0.1,0.1\nr1,c1,0.9,0.9\n")):
        (tmp_path / f"{name}.csv").write_text(body)
    code, stdout, stderr = run_cli(
        [*argv, str(tmp_path / "table.csv"), "--edges", str(tmp_path / "edges.csv"),
         "--regions", str(tmp_path / "regions.csv"), "--output-dir", str(tmp_path / "o")],
        capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": error, "message": message}


def test_cli_missing_edge_file_exits_3(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["partition", "--edges", str(tmp_path / "nope.csv"),
         "--output-dir", str(tmp_path / "o")], capsys)
    assert code == 3
    assert "nope.csv" in json.loads(stderr)["message"]


def test_cli_malformed_edge_file_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("a,a,1.0\n")  # self-loop
    code, _, stderr = run_cli(
        ["partition", "--edges", str(edges), "--regions-count", "9",
         "--clouds", "3", "--output-dir", str(tmp_path / "o")], capsys)
    assert code == 2
    assert json.loads(stderr)["error"] == "ParseError"


def test_cli_synth_guard_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["synth", "--edges", "whatever.csv", "--output-dir", str(tmp_path / "o")],
        capsys)
    assert code == 2
    assert "fresh dataset" in json.loads(stderr)["message"]


def test_cli_raw_preference_changes_the_score(tmp_path, capsys):
    code, norm_out, _ = run_cli(
        ["partition", *SMALL, "--alpha", "1.0",
         "--output-dir", str(tmp_path / "n")], capsys)
    assert code == 0
    code, raw_out, _ = run_cli(
        ["partition", *SMALL, "--alpha", "1.0", "--raw-preference",
         "--output-dir", str(tmp_path / "r")], capsys)
    assert code == 0
    norm = json.loads(norm_out)
    raw = json.loads(raw_out)
    assert norm["objective_value"] != raw["objective_value"]
    # satisfaction is reported on the normalized scale either way
    assert norm["preference_satisfaction"] <= 50.0
    assert raw["preference_satisfaction"] <= 50.0


def test_cli_oracle_compare_smoke(tmp_path, capsys):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({
        "oracle_users": 8, "oracle_edge_grid": [10], "oracle_instances": 2,
        "output_dir": str(tmp_path / "o")}))
    code, stdout, _ = run_cli(["oracle-compare", "--config", str(cfgp)], capsys)
    assert code == 0
    assert json.loads(stdout)["rows"] == 2


# -- the CLI contract under arbitrary numbers ----------------------------------

NAN, INF = float("nan"), float("inf")
# NaN, +-inf, negative, zero, non-integer and huge values
ODD_NUMBER = st.one_of(
    st.sampled_from([NAN, INF, -INF, -1, -0.5, 0, 0.0, 0.5, 2.5, 1e308, 10**30, -10**30]),
    st.integers(-3, 60), st.floats(-2.0, 60.0))
# the same for fields that size an allocation or a loop, without the huge values
ODD_SIZE = st.one_of(st.sampled_from([NAN, INF, -INF, -1, -0.5, 0, 0.0, 0.5, 2.5]),
                     st.integers(-3, 8))
SIZE_CAPS = {"synth_users": 50, "synth_regions": 16, "synth_clouds": 8, "oracle_users": 6,
             "oracle_clouds": 3, "oracle_instances": 3, "oracle_edge_grid": 30,
             "cloud_grid": 8}
# each numeric flag, and the config field it sets
NUMERIC_FLAGS = {"--seed": "rng_seed", "--alpha": "alpha", "--cost-weight": "cost_weight",
                 "--min-gain": "min_gain", "--touched-budget": "touched_budget",
                 "--users": "synth_users", "--mean-degree": "synth_mean_degree",
                 "--clouds": "synth_clouds", "--regions-count": "synth_regions"}
NUMERIC_FIELDS = [f.name for f in fields(ExperimentConfig)
                  if f.type.split(" | ")[0] in ("int", "float") or f.name in (
                      "alpha_grid", "cloud_grid", "oracle_edge_grid")]
# small enough that every command runs in milliseconds
CLI_BASE = {"synth_users": 30, "synth_regions": 8, "synth_clouds": 3, "oracle_users": 5,
            "oracle_clouds": 3, "oracle_instances": 2, "oracle_edge_grid": [4, 8]}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def odd_value(name):
    if name in SIZE_CAPS:
        value = st.one_of(ODD_SIZE, st.integers(0, SIZE_CAPS[name]))
    else:
        value = ODD_NUMBER
    if name in ("alpha_grid", "cloud_grid", "oracle_edge_grid"):
        return st.lists(value, min_size=1, max_size=3)
    return value


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["partition", "evaluate", "synth", "sweep-alpha",
                                "sweep-providers", "oracle-compare"]),
       doc=st.sampled_from(NUMERIC_FIELDS).flatmap(lambda name: st.fixed_dictionaries(
           {name: odd_value(name), "algorithm": st.sampled_from(ALGORITHMS)})),
       flags=st.lists(st.sampled_from(sorted(NUMERIC_FLAGS)), max_size=2, unique=True).flatmap(
           lambda flags: st.fixed_dictionaries(
               {flag: odd_value(NUMERIC_FLAGS[flag]) for flag in flags})))
def test_cli_exits_0_2_or_3_with_a_json_error_for_any_number(command, doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        cfgp = Path(tmp) / "config.json"
        cfgp.write_text(json.dumps({**CLI_BASE, **doc}))
        argv = [command, "--config", str(cfgp), "--output-dir", str(out),
                *(f"{flag}={value}" for flag, value in flags.items())]
        if command == "evaluate":
            # never written: evaluate ends in exit 2 or 3
            argv.append(str(Path(tmp) / "assignment.csv"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3), stderr.getvalue()
        if code == 0:  # a summary in strict JSON: no NaN or Infinity
            json.loads(stdout.getvalue(), parse_constant=reject_constant)
        else:
            assert "Traceback" not in stderr.getvalue()
            error = json.loads(stderr.getvalue().splitlines()[-1])
            assert set(error) == {"error", "message"}
        if code == 2:
            assert not out.exists(), error

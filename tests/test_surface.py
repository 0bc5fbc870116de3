"""The documented public surface, and the names the benchmark reaches into."""

import importlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import cloudcut
from cloudcut.cli import build_parser, config_from_args
from cloudcut.experiments import build_dataset
from cloudcut.partition import run_heuristic

ROOT = Path(__file__).resolve().parents[1]
LIBRARY_USE = (ROOT / "README.md").read_text(encoding="utf-8").split(
    "## Library use", 1)[1].split("\n## ", 1)[0]


def test_package_root_exports_exactly_the_names_the_readme_lists():
    documented = set(re.findall(r"`(\w+)`", LIBRARY_USE))
    documented |= set(re.search(r"^from cloudcut import (.+)$", LIBRARY_USE, re.M)[1].split(", "))
    assert sorted(cloudcut.__all__) == sorted(documented)
    assert all(getattr(cloudcut, name) is not None for name in cloudcut.__all__)


def test_readme_library_example_runs(capsys):
    exec(LIBRARY_USE.split("```python\n", 1)[1].split("```", 1)[0], {})
    assert "objective_value" in json.loads(capsys.readouterr().out)


def test_benchmark_trace_targets_and_attributes_resolve():
    targets = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["TARGETS"]
    for module_name, path, _ in targets:  # looked up as Tracer.install does
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert vars(owner).get(attr) is not None, f"{module_name}.{path}"
    # what perfbench/worker.py and perfbench/workloads.py read off a job
    config = config_from_args(build_parser().parse_args(
        ["partition", "--users", "60", "--clouds", "3", "--regions-count", "6"]))
    graph, model = build_dataset(config)
    read = (graph.n_users, graph.n_edges, graph.n_connections, graph.labels, model.n_clouds,
            *graph.edge_arrays(), *graph.friend_csr(), model.cloud_labels, model.region_cloud,
            model.upload_volume, model.blend_weight, model.best_download, model.best_upload,
            model.affinity.download, model.affinity.upload, model.pricing.matrix)
    assert all(x is not None for x in read)
    sink = io.StringIO()
    run_heuristic(graph, model.restrict(2), config.heuristic_params(), telemetry=sink)
    summary = json.loads(sink.getvalue().splitlines()[-1])
    assert {"touched", "examined", "moves", "stop_reason"} <= set(summary)


# every command at a tiny size, in an interpreter where any import of scipy fails
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from cloudcut.cli import main
small = ["--users", "40", "--clouds", "3", "--regions-count", "6"]
syn = ["--edges", "syn/edges.csv", "--regions", "syn/regions.csv",
       "--pricing", "syn/pricing.csv", "--profiles", "syn/profiles.csv"]
with open("oracle.json", "w") as fh:
    json.dump({"oracle_edge_grid": [5, 10], "oracle_instances": 2, "oracle_users": 6}, fh)
runs = [["synth", *small, "--output-dir", "syn"],
        ["partition", *syn, "--output-dir", "p"],
        ["evaluate", "p/assignment.csv", *syn, "--output-dir", "e"],
        ["sweep-alpha", *small, "--output-dir", "sa"],
        ["sweep-providers", *small, "--output-dir", "sp"],
        ["oracle-compare", "--config", "oracle.json", "--output-dir", "oc"]]
codes = [main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
assert sys.modules["scipy"] is None
"""


def test_the_cli_runs_every_command_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # sweep-providers runs every algorithm, min_propagation included
    assert "min_propagation" in (tmp_path / "sp" / "sweep_providers.csv").read_text()

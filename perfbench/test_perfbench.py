"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

import machine_speed
import run
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_TIMES = [name for name, (unit, _) in run.PER_LAYER.items()
               if unit == "s" and not name.startswith("trace.")]


def bench(capsys, workload, trace):
    run.main(["--workload", workload, "--seed", "5", "--seconds", "1.0",
              "--trace", str(trace)], size="tiny")
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    # self times tile the traced job; only the call wrapper sits outside
    assert sum(layers[n] for n in LAYER_TIMES) == pytest.approx(
        layers["trace.job_s"], rel=0.05, abs=2e-3)


def flip_first_user(out):
    path = Path(out) / "assignment.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    user, cloud = lines[0].strip().split(",")
    lines[0] = f"{user},{'c1' if cloud == 'c0' else 'c0'}\n"
    path.write_text("".join(lines), encoding="utf-8")


def nudge_objective(out):
    path = Path(out) / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["objective_value"] *= 1.0 + 1e-6
    path.write_text(json.dumps(report), encoding="utf-8")


CORRUPT = {
    "partition_synth_3e5": flip_first_user,
    "evaluate_csv_3e5": nudge_objective,
}


def run_corrupted(tmp_path, workload, corrupt_job):
    """worker.run on a tiny workload whose CLI output is damaged after the
    jobs for which corrupt_job(index) holds."""
    size = "tiny"
    fixtures = WORKLOADS[workload](size).prepare(5, tmp_path / "fixtures")
    cli = worker.import_cloudcut(ROOT)
    calls = []

    def damaging_main(argv):
        code = cli.main(argv)
        if corrupt_job(len(calls)):
            CORRUPT[workload](argv[argv.index("--output-dir") + 1])
        calls.append(argv)
        return code

    spec = {"root": str(ROOT), "workload": workload, "size": size, "seed": 5,
            "seconds": 1.0, "trace": 0, "work": str(tmp_path / "runs"),
            "fixtures": str(fixtures)}
    return worker.run(spec, main=damaging_main)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_counts_as_failure(workload, tmp_path):
    every = run_corrupted(tmp_path, workload, lambda i: True)
    assert every["attempted"] >= 2
    assert every["failed"] == every["attempted"]
    one = run_corrupted(tmp_path, workload, lambda i: i == 1)
    assert one["failed"] == 1
    assert any("differ" in e for e in one["errors"])


def test_partition_corruption_is_caught_by_the_check(tmp_path):
    result = run_corrupted(tmp_path, "partition_synth_3e5", lambda i: True)
    assert any("recomputed" in e for e in result["errors"])


def test_fixtures_are_reused_and_seeded(tmp_path):
    workload = WORKLOADS["evaluate_csv_3e5"]("tiny")
    first = workload.prepare(5, tmp_path)
    stamp = (first / "edges.csv").stat().st_mtime_ns
    assert workload.prepare(5, tmp_path) == first
    assert (first / "edges.csv").stat().st_mtime_ns == stamp
    other = workload.prepare(6, tmp_path)
    assert (other / "edges.csv").read_bytes() != (first / "edges.csv").read_bytes()
    assert "np.float64" not in (first / "regions.csv").read_text(encoding="utf-8")


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "partition_synth_3e5", "--seed", "1", "--seconds", "1"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""


def test_speed_sampler_samples_while_busy_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    with machine_speed.Sampler() as speed:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 8  # one per 50 ms, not only the top-up
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a host twice as slow doubles both the job's time and the loop's
    assert machine_speed.scale(2.0, [2e-3] * 5) == machine_speed.scale(1.0, [1e-3] * 5)

"""One benchmark run's jobs, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the checkout root, workload, size, seed, seconds, trace flag, work
and fixture directories.  The worker imports cloudcut from <root>/src, runs
the workload's command in-process through cloudcut.cli.main once to warm up
(its peak RSS is the run's), then as often as the time allows, each job timed
and scaled to the reference machine speed (trace 0), or once untraced and once
traced, raw (trace 1).  Only then it checks every job's outputs and, when
traced, counts the walk in an extra untimed pass.  RESULT receives the raw figures; run.py turns them
into metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import machine_speed
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Mismatch


def import_cloudcut(root):
    """cloudcut.cli from the checkout's src/ and nowhere else."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import cloudcut.cli

    if Path(cloudcut.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"cloudcut imported from {cloudcut.cli.__file__}, not {src}")
    return cloudcut.cli


def call(main, argv):
    """Exit code of one CLI call; its stdout summary is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is a failed job; the run goes on
        traceback.print_exc()
        return 1


def timed_job(main, argv):
    start = time.perf_counter()
    code = call(main, argv)
    return code, time.perf_counter() - start


def digest(out, names):
    """sha256 per output file (None when missing)."""
    result = {}
    for name in names:
        try:
            result[name] = hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
        except OSError:
            result[name] = None
    return result


class Sink:
    """Telemetry stream that keeps only the walk's summary lines."""

    def __init__(self):
        self.summaries = []

    def write(self, line):
        if line.startswith('{"event": "summary"'):
            self.summaries.append(json.loads(line))


def config_of(cli, argv):
    return cli.config_from_args(cli.build_parser().parse_args(argv))


def walk_counters(config, cloud_counts, dataset):
    """Walk counters summed over the command's heuristic solves, from the
    telemetry summary of an untimed run_heuristic pass on the same inputs."""
    from cloudcut.partition import run_heuristic

    graph, model = dataset
    sink = Sink()
    for k in cloud_counts:
        run_heuristic(graph, model.restrict(k), config.heuristic_params(), telemetry=sink)
    if len(sink.summaries) != len(cloud_counts):
        raise RuntimeError("run_heuristic wrote no telemetry summary")
    total = {key: sum(s[key] for s in sink.summaries)
             for key in ("touched", "examined", "moves")}
    total["budget_stops"] = sum(s["stop_reason"] == "budget" for s in sink.summaries)
    return total


def run(spec, main=None):
    """Run, check and measure one workload; returns the raw result dict.

    main replaces cloudcut.cli.main for the jobs (the self-tests pass one that
    corrupts outputs).
    """
    cli = import_cloudcut(spec["root"])
    main = main or cli.main
    workload = WORKLOADS[spec["workload"]](spec["size"])
    seed, seconds, trace = spec["seed"], spec["seconds"], spec["trace"]
    work = Path(spec["work"])
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def argv(i):
        return workload.argv(seed, work / f"job{i}", spec["fixtures"])

    jobs = []  # (exit code, wall seconds); the first is a warm-up, outside job_s
    job_s = []  # untraced jobs after the warm-up, at the reference machine speed
    tracer = None
    peak_rss_mb = None  # high-water mark of the first job, which later jobs' heaps would blur
    start = time.perf_counter()
    jobs.append(timed_job(main, argv(0)))
    if trace:
        jobs.append(timed_job(main, argv(1)))
        tracer = Tracer()
        with tracer:
            jobs.append(timed_job(tracer.wrap("cli", main), argv(2)))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while True:
            with machine_speed.Sampler() as speed:
                jobs.append(timed_job(main, argv(len(jobs))))
            job_s.append(speed.scale(jobs[-1][1]))
            projected = statistics.median(t for _, t in jobs[1:])
            if time.perf_counter() - start + projected > seconds:
                break

    # everything below is outside the measured region
    errors = []
    config = config_of(cli, argv(0))
    dataset = None
    if workload.needs_dataset or (trace and workload.cloud_counts()):
        from cloudcut.experiments import build_dataset

        dataset = build_dataset(config)
    reference = None
    good = False
    objective_gain = 0.0
    failed = 0
    for i, (code, _) in enumerate(jobs):
        out = work / f"job{i}"
        if code != 0:
            errors.append(f"job {i}: exit code {code}")
            failed += 1
            continue
        files = digest(out, workload.outputs)
        if reference is None:
            reference = files
            try:
                objective_gain = workload.check(seed, out, spec["fixtures"], dataset)
                good = True
            except Mismatch as exc:
                errors.append(f"job {i}: {exc}")
        if files != reference:
            errors.append(f"job {i}: outputs differ from the first job's")
            failed += 1
        elif not good:
            failed += 1

    result = {"attempted": len(jobs), "failed": failed, "errors": errors,
              "job_s": job_s, "peak_rss_mb": peak_rss_mb,
              "objective_gain": objective_gain}
    if trace:
        result["layers"] = trace_metrics(workload, tracer, jobs, config, dataset)
    return result


def trace_metrics(workload, tracer, jobs, config, dataset):
    layers = layer_metrics(tracer)
    graph = tracer.first_built.get("graph.build")
    model = tracer.first_built.get("cloud.model")
    mib = 1.0 / (1 << 20)
    layers["graph.n_edges"] = graph.n_edges if graph else 0
    layers["graph.n_connections"] = graph.n_connections if graph else 0
    layers["graph.arrays_mb"] = mib * sum(
        a.nbytes for a in (*graph.edge_arrays(), *graph.friend_csr())) if graph else 0.0
    layers["cloud.affinity_mb"] = mib * sum(
        a.nbytes for a in (model.affinity.download, model.affinity.upload,
                           model.best_download, model.best_upload)) if model else 0.0
    counts = ({"touched": 0, "examined": 0, "moves": 0, "budget_stops": 0}
              if not workload.cloud_counts()
              else walk_counters(config, workload.cloud_counts(), dataset))
    for key, value in counts.items():
        layers[f"partition.{key}"] = value
    examined = counts["examined"]
    layers["partition.examined_per_touched"] = (
        examined / counts["touched"] if counts["touched"] else 0.0)
    layers["partition.us_per_examined"] = (
        1e6 * layers["partition.walk_s"] / examined if examined else 0.0)
    (_, untraced), (_, traced) = jobs[1:3]
    layers["trace.untraced_job_s"] = untraced
    layers["trace.job_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    return layers


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    Path(result_path).write_text(json.dumps(run(spec)), encoding="utf-8")

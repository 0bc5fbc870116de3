"""cloudcut benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are in workloads.py.  With --trace 0 the run measures set-up
time (median of fresh interpreters importing cloudcut.cli), then a worker
process runs the workload's CLI job once to warm up and repeats it for S
seconds, untraced; it reports the median job time after the warm-up, the
worker's peak RSS, the share of jobs whose outputs were correct and
identical, and the placement's objective gain.  With --trace 1 the worker
runs the job to warm up, once untraced and once with layer spans, and the run
reports per-layer self times and walk counters.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; each metric carries its unit.
job_s and setup_s are scaled to a reference machine speed (machine_speed.py):
the shared host's own speed drifts too much between runs for raw wall times
to compare.  Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # whole run, fixtures and set-up included
SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time, machine_speed as m\n"
                "with m.Sampler() as speed:\n"
                "    t = time.perf_counter(); import cloudcut.cli; t = time.perf_counter() - t\n"
                "print(speed.scale(t))")
# one thread per run: numpy's BLAS would otherwise take the machine's second core
SINGLE_THREAD = {name: "1" for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "job_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
    "objective_gain": ("ratio", "higher"),
}
_TIMES = ("graph.synth_s", "graph.load_s", "graph.build_s", "graph.connections_s",
          "cloud.profiles_s", "cloud.affinity_s", "cloud.load_affinities_s",
          "cloud.load_profiles_s", "cloud.load_tables_s", "cloud.model_s",
          "cloud.pref_s", "partition.walk_s",
          "objective.evaluate_s", "objective.read_assignment_s", "objective.write_s",
          "experiments.self_s", "cli.self_s",
          "trace.job_s", "trace.untraced_job_s", "trace.overhead_s")
PER_LAYER = {
    **{name: ("s", "lower") for name in _TIMES},
    "graph.n_edges": ("count", "higher"),
    "graph.n_connections": ("count", "higher"),
    "graph.arrays_mb": ("MB", "lower"),
    "cloud.pref_calls": ("count", "lower"),
    "cloud.affinity_mb": ("MB", "lower"),
    "partition.touched": ("count", "lower"),
    "partition.examined": ("count", "lower"),
    "partition.moves": ("count", "lower"),
    "partition.budget_stops": ("count", "lower"),
    "partition.examined_per_touched": ("ratio", "higher"),
    "partition.us_per_examined": ("us", "lower"),
    "objective.evaluate_calls": ("count", "lower"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(*pythonpath):
    env = {**os.environ, **SINGLE_THREAD}
    if pythonpath:
        env["PYTHONPATH"] = os.pathsep.join(
            [*pythonpath] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(root, samples=SETUP_SAMPLES):
    """Median import time of cloudcut.cli over fresh interpreters, each at
    the reference machine speed, after one unmeasured import that compiles the
    bytecode."""
    env = child_env(str(root / "src"), str(HERE))
    times = []
    for _ in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            fail(f"importing cloudcut.cli failed: {done.stderr.strip()}")
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def main(argv=None, size="full"):
    """size "tiny" shrinks every workload for the self-tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "cloudcut" / "cli.py").is_file():
        fail(f"no cloudcut sources under {root / 'src'}; run from a checkout's root")
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](size)

    setup_s = None if args.trace else setup_seconds(root)
    fixtures = workload.prepare(args.seed, work / "fixtures")
    spec = {"root": str(root), "workload": args.workload, "size": size, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "work": str(work / "runs" / args.workload),
            "fixtures": str(fixtures)}
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(result_path)], cwd=root, env=child_env(), timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {remaining:.0f} s")
    if done.returncode != 0 or not result_path.exists():
        fail(f"worker exited with code {done.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for line in result["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)

    if args.trace:
        values, units = result["layers"], PER_LAYER
    else:
        attempted = result["attempted"]
        values = {
            "job_s": statistics.median(result["job_s"]),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "success_rate": (attempted - result["failed"]) / attempted,
            "objective_gain": result["objective_gain"],
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in units.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

"""Layer spans for the traced run, wrapped from outside the package.

Every public function a cloudcut module exposes to the next layer is replaced,
in the namespace that calls it, by a wrapper that records a span (name, start,
end, parent).  Spans stay in memory; self times are computed once the job has
ended.  A span's self time is its duration minus the time of its child spans,
so the self times of all spans add up to the root span: the traced job.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path in that module, span name).  Names are wrapped where
# they are looked up: experiments binds the loaders, the walk and evaluate by
# name, build_dataset reaches load_* through the cloud module, and
# preference_matrix is bound separately in cloud, objective and partition.
TARGETS = (
    ("cloudcut.cli", "cmd_partition", "experiments"),
    ("cloudcut.cli", "cmd_evaluate", "experiments"),
    ("cloudcut.experiments", "synth_graph", "graph.synth"),
    ("cloudcut.experiments", "load_graph", "graph.load"),
    ("cloudcut.graph", "SocialGraph.__init__", "graph.build"),
    ("cloudcut.graph", "SocialGraph.connection_arrays", "graph.connections"),
    ("cloudcut.experiments", "default_profiles", "cloud.profiles"),
    ("cloudcut.cloud", "default_profiles", "cloud.profiles"),
    ("cloudcut.cloud", "AffinityTable.from_coordinates", "cloud.affinity"),
    ("cloudcut.cloud", "load_affinities", "cloud.load_affinities"),
    ("cloudcut.cloud", "load_profiles", "cloud.load_profiles"),
    ("cloudcut.cloud", "load_regions", "cloud.load_tables"),
    ("cloudcut.cloud", "PricingMatrix.from_csv", "cloud.load_tables"),
    ("cloudcut.cloud", "CloudModel.__init__", "cloud.model"),
    ("cloudcut.cloud", "preference_matrix", "cloud.pref"),
    ("cloudcut.objective", "preference_matrix", "cloud.pref"),
    ("cloudcut.partition", "preference_matrix", "cloud.pref"),
    ("cloudcut.experiments", "run_heuristic", "partition.walk"),
    ("cloudcut.experiments", "evaluate", "objective.evaluate"),
    ("cloudcut.objective", "Assignment.from_csv", "objective.read_assignment"),
    ("cloudcut.objective", "Assignment.to_csv", "objective.write"),
    ("cloudcut.objective", "EvaluationReport.to_json", "objective.write"),
)

# span names whose metric is the self time of a glue layer, not "<name>_s"
SELF_METRICS = {"cli": "cli.self_s", "experiments": "experiments.self_s"}


class Tracer:
    """In-memory span recorder; one per traced job."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []
        self.first_built = {}  # span name -> first object a wrapped __init__ built

    def wrap(self, name, fn, is_init=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if is_init:
                    self.first_built.setdefault(name, args[0])
        return wrapper

    def install(self):
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr)
            if raw is None:
                print(f"perfbench: trace target {module_name}.{path} not found",
                      file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw, is_init=attr == "__init__")
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self):
        """(self seconds per span name, calls per span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return dict(self_s), dict(calls)


def layer_metrics(tracer):
    """Per-layer self times and call counts of one traced job."""
    self_s, calls = tracer.totals()
    names = {name for _, _, name in TARGETS} | set(SELF_METRICS)
    out = {SELF_METRICS.get(n, f"{n}_s"): self_s.get(n, 0.0) for n in sorted(names)}
    out["cloud.pref_calls"] = calls.get("cloud.pref", 0)
    out["objective.evaluate_calls"] = calls.get("objective.evaluate", 0)
    return out

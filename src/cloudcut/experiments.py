"""Experiment drivers: dataset assembly, sweeps, and oracle comparisons.

Everything here is deterministic for a fixed ExperimentConfig: random state
always derives from the config seed plus fixed salts, floats are written with
repr (shortest round-trip form), and rows are emitted in a fixed order, so
rerunning a command reproduces its output files byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import cloud as cloudmod
from ._table import write_table
from .cloud import AffinityTable, CloudModel, PricingMatrix, default_profiles
from .errors import ValidationError
from .graph import SocialGraph, bfs_sample, load_graph, synth_graph
from .objective import Assignment, ObjectiveParams, evaluate, total_objective
from .partition import (
    HeuristicParams,
    baseline_max_preference,
    baseline_min_propagation,
    baseline_random,
    brute_force_optimal,
    run_heuristic,
)

SWEEP_HEADER = ("alpha", "n_clouds", "algorithm", "objective",
                "pref_satisfaction", "inter_cloud_cost", "inter_cloud_edges")
ORACLE_HEADER = ("n_edges", "instance", "heuristic_objective",
                 "optimal_objective", "ratio")
ALGORITHMS = ("heuristic", "random", "min_propagation", "max_preference")
# the most each size field may ask for: the graph build keys each user pair
# as src * n_users + dst, which must fit in int64
MAX_SIZE = math.isqrt(2**63 - 1)
# each bounded field's least and most value (each entry's, for a grid); inf
# and NaN are refused too, and every least value is checked before any most
_RANGES = {"synth_users": (-math.inf, MAX_SIZE), "synth_regions": (-math.inf, MAX_SIZE),
           "synth_clouds": (1, MAX_SIZE), "sample_users": (-math.inf, MAX_SIZE),
           "oracle_users": (1, MAX_SIZE), "oracle_clouds": (1, math.inf),
           "oracle_weight_scale": (0.0, math.inf), "oracle_instances": (1, math.inf),
           "sample_seeds": (1, MAX_SIZE), "rng_seed": (0, math.inf),
           "cloud_grid": (1, math.inf), "oracle_edge_grid": (0, math.inf)}
# per annotated kind: the types it takes (numpy's number scalars are numbers,
# and a path may be any os.PathLike), and how a message names one and a list
_KINDS = {"int": ((int, np.integer), "an integer", "integers"),
          "float": ((int, float, np.integer, np.floating), "a number", "numbers"),
          "str": ((str, os.PathLike), "a string", "strings"), "bool": ((bool,), "true or false")}


def _is_kind(value, kind):
    """True if value is of the annotated kind; a bool is of kind "bool" only."""
    return isinstance(value, _KINDS[kind][0]) and isinstance(value, bool) == (kind == "bool")


@dataclass(frozen=True)
class ExperimentConfig:
    """One JSON-loadable document driving every CLI command.

    File inputs are optional; whatever is missing is synthesized from the
    seed (a random graph, regions on the unit square mapped round-robin-free
    onto clouds, distance-decayed affinities, flat 0/1 pricing).  However
    it is made, each field is checked against its annotation and its range.
    """

    # dataset files (all optional; synthetic fallback otherwise)
    edges_path: str | None = None
    regions_path: str | None = None
    pricing_path: str | None = None
    affinity_path: str | None = None
    profiles_path: str | None = None
    # synthetic dataset shape
    synth_users: int = 20000
    synth_mean_degree: float = 10.0
    synth_weight_exponent: float = 2.0
    synth_regions: int = 80
    synth_clouds: int = 6
    inter_cloud_price: float = 1.0
    intra_cloud_price: float = 0.0
    affinity_scale: float = 0.3
    # optional BFS subsample applied after loading/synthesis
    sample_users: int | None = None
    sample_seeds: int = 10
    # solver selection and trade-off parameters
    algorithm: str = "heuristic"
    algorithms: tuple[str, ...] = ALGORITHMS
    alpha: float = 0.5
    cost_weight: float = 1.0
    use_normalized: bool = True
    min_gain: float = 0.0
    touched_budget: float = 0.2
    # sweep grids
    alpha_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    cloud_grid: tuple[int, ...] | None = None
    # oracle comparison instances
    oracle_users: int = 10
    oracle_clouds: int = 3
    oracle_edge_grid: tuple[int, ...] = (10, 15, 20, 25, 30)
    oracle_instances: int = 10
    oracle_weight_scale: float = 0.5
    brute_force_cap: int = 10_000_000
    # bookkeeping
    rng_seed: int = 0
    output_dir: str = "out"
    telemetry: bool = False

    def __post_init__(self):
        # each field's kind, from its annotation: int, float, str, bool or a
        # tuple of one ("| None" where None is allowed); a list is a tuple
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, f.name, value)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional == "None":
                continue
            if kind.startswith("tuple["):
                item = kind.removeprefix("tuple[").partition(",")[0]
                if not (isinstance(value, tuple) and all(_is_kind(x, item) for x in value)):
                    raise ValidationError(f"{f.name} must be a list of {_KINDS[item][2]}, "
                                          f"got {value!r}")
            elif not _is_kind(value, kind):
                raise ValidationError(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
        # an empty list would run nothing and write a header-only file
        for name, value in vars(self).items():
            if isinstance(value, tuple) and not value:
                raise ValidationError(f"{name} must not be empty")

        def entries(name):
            value = getattr(self, name)
            return value if isinstance(value, tuple) else () if value is None else (value,)
        for name, (low, _) in _RANGES.items():
            for x in entries(name):
                if not low <= x < math.inf:
                    raise ValidationError(f"{name} must be finite and >= {low}, got {x!r}")
        for name, (_, high) in _RANGES.items():
            for x in entries(name):
                if x > high:
                    raise ValidationError(f"{name} must be at most {high}, got {x!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"algorithm must be one of {ALGORITHMS}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValidationError(f"unknown algorithm {a!r}")
        # the objective and walk parameters, refused before any command works
        self.heuristic_params()
        for alpha in self.alpha_grid:
            try:
                self.objective_params(alpha)
            except ValidationError as exc:
                raise ValidationError(f"alpha_grid entry {alpha!r}: {exc}") from None

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # malformed JSON or text that is not UTF-8
                raise ValidationError(f"config {path} is not a JSON document: {exc}") from None
        return cls.from_dict(doc)

    def with_overrides(self, **kw):
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self

    def to_dict(self):
        return asdict(self)

    def objective_params(self, alpha=None):
        return ObjectiveParams(
            alpha=self.alpha if alpha is None else alpha,
            cost_weight=self.cost_weight,
            use_normalized=self.use_normalized,
        )

    def heuristic_params(self, alpha=None):
        return HeuristicParams(
            objective=self.objective_params(alpha),
            min_gain=self.min_gain,
            touched_budget=self.touched_budget,
        )


def _rng(config, *salts):
    """Child generator derived from the config seed and integer salts."""
    return np.random.default_rng(np.random.SeedSequence([config.rng_seed, *salts]))


# -- dataset assembly --------------------------------------------------------

def _synth_regions(config):
    """Random region geometry: unit-square coordinates, every cloud covered."""
    rng = _rng(config, 11)
    R, C = config.synth_regions, config.synth_clouds
    if R < C:
        raise ValidationError("synth_regions must be >= synth_clouds")
    xy = rng.uniform(0.0, 1.0, size=(R, 2))
    region_cloud = np.concatenate([
        np.arange(C, dtype=np.int64),
        rng.integers(0, C, size=R - C, dtype=np.int64),
    ])
    cloud_labels = [f"c{k}" for k in range(C)]
    region_labels = [f"r{j}" for j in range(R)]
    return cloud_labels, region_labels, region_cloud, xy


def build_dataset(config):
    """(graph, model) per the config, loading files where given."""
    if config.edges_path:
        graph = load_graph(config.edges_path)
    else:
        graph = synth_graph(config.synth_users, config.synth_mean_degree,
                            config.synth_weight_exponent, config.rng_seed)
    sampled = config.sample_users is not None
    if sampled:
        graph = bfs_sample(graph, config.sample_seeds, config.sample_users,
                           rng_seed=config.rng_seed)

    region_xy = None
    if config.regions_path:
        cloud_labels, region_labels, region_cloud, region_xy = cloudmod.load_regions(config.regions_path)
    else:
        cloud_labels, region_labels, region_cloud, region_xy = _synth_regions(config)

    if config.pricing_path:
        price_labels, pricing = PricingMatrix.from_csv(config.pricing_path)
        if list(price_labels) != list(cloud_labels):
            raise ValidationError("pricing cloud labels disagree with region file")
    else:
        pricing = PricingMatrix.uniform(len(cloud_labels), config.inter_cloud_price,
                                        config.intra_cloud_price)

    if config.profiles_path:
        vol, blend, home = cloudmod.load_profiles(
            config.profiles_path, graph, region_labels, ignore_unknown_users=sampled)
    else:
        vol, blend = default_profiles(graph)
        home = _rng(config, 12).integers(0, len(region_labels), size=graph.n_users,
                                         dtype=np.int64)

    if config.affinity_path:
        affinity = cloudmod.load_affinities(
            config.affinity_path, graph, region_labels, ignore_unknown_users=sampled)
    else:
        if region_xy is None:
            raise ValidationError(
                "no affinity file and regions carry no coordinates to derive one")
        if np.any(home < 0):
            raise ValidationError(
                "deriving affinities from geography needs a home region per user")
        user_xy = region_xy[home]
        affinity = AffinityTable.from_coordinates(user_xy, region_xy, config.affinity_scale)

    model = CloudModel(cloud_labels, region_labels, region_cloud, pricing,
                       affinity, vol, blend, home)
    return graph, model


def solve(graph, model, config, algorithm=None, alpha=None, telemetry=None, *, psi=None):
    """Run one algorithm and return its Assignment.  psi, when given, is the
    raw preference_matrix(graph, model), which the solvers then share."""
    algorithm = algorithm or config.algorithm
    if algorithm == "heuristic":
        return run_heuristic(graph, model, config.heuristic_params(alpha), telemetry=telemetry,
                             psi=psi)
    if algorithm == "random":
        return baseline_random(graph, model, rng_seed=config.rng_seed)
    if algorithm == "min_propagation":
        return baseline_min_propagation(graph, model, psi=psi)
    if algorithm == "max_preference":
        return baseline_max_preference(graph, model, psi=psi)
    raise ValidationError(f"unknown algorithm {algorithm!r}")


# -- output helpers ----------------------------------------------------------

def _outdir(config):
    """The output directory, made when a command is about to write into it:
    a command that fails on its input leaves none behind."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands ----------------------------------------------------------------

def cmd_partition(config):
    """Partition the dataset once; writes assignment.csv and report.json."""
    graph, model = build_dataset(config)
    psi = cloudmod.preference_matrix(graph, model)
    telemetry = io.StringIO() if config.telemetry and config.algorithm == "heuristic" else None
    assignment = solve(graph, model, config, telemetry=telemetry, psi=psi)
    report = evaluate(assignment, graph, model, config.objective_params(), psi=psi)
    out = _outdir(config)
    if telemetry is not None:
        (out / "telemetry.jsonl").write_text(telemetry.getvalue(), encoding="utf-8", newline="")
    assignment.to_csv(out / "assignment.csv", graph, model)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    return {"assignment": str(out / "assignment.csv"),
            "report": str(out / "report.json"),
            **report.to_dict()}


def cmd_evaluate(config, assignment_path):
    """Score an existing assignment file; writes report.json."""
    graph, model = build_dataset(config)
    assignment = Assignment.from_csv(assignment_path, graph, model)
    report = evaluate(assignment, graph, model, config.objective_params())
    out = _outdir(config)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    return {"report": str(out / "report.json"), **report.to_dict()}


def cmd_synth(config):
    """Write the synthetic dataset itself (edges, regions, pricing, profiles)."""
    for p in (config.edges_path, config.regions_path, config.pricing_path,
              config.affinity_path, config.profiles_path):
        if p:
            raise ValidationError("synth generates a fresh dataset; remove input paths")
    graph, model = build_dataset(config)
    out = _outdir(config)
    graph.to_csv(out / "edges.csv")
    cloud_labels, region_labels, region_cloud, xy = _synth_regions(config)
    cloud_of = np.array(cloud_labels, dtype=object)[region_cloud]
    write_table(out / "regions.csv", [region_labels, cloud_of, *xy.T])
    model.pricing.to_csv(out / "pricing.csv", model.cloud_labels)
    # synth refuses input paths, so every user has a home region
    home = np.array(model.region_labels, dtype=object)[model.home_region]
    write_table(out / "profiles.csv",
                [graph.labels, model.upload_volume, model.blend_weight, home])
    return {"edges": str(out / "edges.csv"), "regions": str(out / "regions.csv"),
            "pricing": str(out / "pricing.csv"), "profiles": str(out / "profiles.csv"),
            "n_users": graph.n_users, "n_edges": graph.n_edges}


def _sweep(config, name, alphas, default_grid):
    """Algorithm set x cloud-count grid x alphas; writes <name>.csv.

    Without a cloud_grid in the config, default_grid(n_clouds) gives the
    cloud counts.
    """
    graph, model = build_dataset(config)
    grid = default_grid(model.n_clouds) if config.cloud_grid is None else config.cloud_grid
    for k in grid:
        if not 1 <= k <= model.n_clouds:
            raise ValidationError(f"cloud_grid entry {k} outside 1..{model.n_clouds}")
    rows = []
    for k in map(int, grid):
        sub = model.restrict(k)
        psi = cloudmod.preference_matrix(graph, sub)
        for algorithm in config.algorithms:
            for alpha in alphas:
                assignment = solve(graph, sub, config, algorithm=algorithm, alpha=alpha, psi=psi)
                report = evaluate(assignment, graph, sub, config.objective_params(alpha), psi=psi)
                rows.append((float(alpha), k, algorithm,
                             report.objective_value,
                             report.preference_satisfaction,
                             report.inter_cloud_cost,
                             report.inter_cloud_edge_count))
    path = _outdir(config) / f"{name}.csv"
    write_table(path, zip(*rows), header=SWEEP_HEADER)
    return {"sweep": str(path), "rows": len(rows)}


def cmd_sweep_alpha(config):
    """Alpha grid x algorithm set x cloud-count grid (default: all clouds);
    writes sweep_alpha.csv."""
    return _sweep(config, "sweep_alpha", [float(a) for a in config.alpha_grid],
                  lambda n: [n])


def cmd_sweep_providers(config):
    """Cloud-count grid (default: 1..all clouds) at fixed alpha; writes
    sweep_providers.csv."""
    return _sweep(config, "sweep_providers", [config.alpha], lambda n: range(1, n + 1))


def make_oracle_instance(config, n_edges, instance):
    """Small random instance: exact directed edge count, one region per cloud,
    independent uniform affinities.

    Edge weights are uniform on (0, oracle_weight_scale], sized so the cost
    and preference terms of the score are commensurate at alpha = 0.5; the
    weight unit is otherwise uncalibrated in the model.
    """
    n = config.oracle_users
    C = config.oracle_clouds
    if n_edges > n * (n - 1):
        raise ValidationError("n_edges exceeds the number of ordered pairs")
    rng = _rng(config, 7001, n_edges, instance)
    codes = rng.choice(n * (n - 1), size=n_edges, replace=False)
    src = codes // (n - 1)
    rem = codes % (n - 1)
    dst = rem + (rem >= src)
    weights = rng.uniform(0.0, config.oracle_weight_scale, size=n_edges)
    graph = SocialGraph([f"u{i}" for i in range(n)], src, dst, weights)

    affinity = AffinityTable(rng.uniform(0.0, 1.0, size=(n, C)),
                             rng.uniform(0.0, 1.0, size=(n, C)))
    vol, blend = default_profiles(graph)
    model = CloudModel(
        [f"c{k}" for k in range(C)], [f"r{k}" for k in range(C)],
        np.arange(C, dtype=np.int64),
        PricingMatrix.uniform(C, config.inter_cloud_price, config.intra_cloud_price),
        affinity, vol, blend,
    )
    return graph, model


def oracle_heuristic_params(config, alpha=None):
    """Full re-hosting pass for oracle-scale instances: on a handful of
    connections a touched budget would examine almost nothing, so the budget
    is lifted and the stop is the gain threshold alone."""
    return replace(config.heuristic_params(alpha), touched_budget=1.0)


def cmd_oracle_compare(config):
    """Heuristic vs exhaustive optimum on small instances; writes oracle.csv."""
    rows = []
    for n_edges in config.oracle_edge_grid:
        for instance in range(config.oracle_instances):
            graph, model = make_oracle_instance(config, int(n_edges), instance)
            psi = cloudmod.preference_matrix(graph, model)
            heur = run_heuristic(graph, model, oracle_heuristic_params(config), psi=psi)
            obj = config.objective_params()
            opt = brute_force_optimal(graph, model, obj, cap=config.brute_force_cap, psi=psi)
            h_val = total_objective(heur, graph, model, obj, psi=psi)
            o_val = total_objective(opt, graph, model, obj, psi=psi)
            if o_val == 0.0:
                ratio = 1.0 if abs(h_val) < 1e-12 else math.nan
            else:
                ratio = h_val / o_val
            rows.append((int(n_edges), instance, h_val, o_val, ratio))
    path = _outdir(config) / "oracle.csv"
    write_table(path, zip(*rows), header=ORACLE_HEADER)
    return {"oracle": str(path), "rows": len(rows)}

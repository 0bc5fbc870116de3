"""cloudcut: place social-network users on cloud providers.

Partitions a propagation-weighted social graph across clouds so that users
sit near the providers they prefer while the content replicated between
clouds stays cheap.  See README.md for the model and the algorithm.

The package root holds the pipeline (build_dataset, run_heuristic,
evaluate), the types a custom experiment builds its inputs from, the
baselines and the exhaustive oracle.  Loaders and other helpers live in
their submodules (cloudcut.graph, cloudcut.cloud, cloudcut.objective,
cloudcut.partition, cloudcut.experiments).
"""

from .cloud import AffinityTable, CloudModel, PricingMatrix, default_profiles
from .errors import ParseError, SearchSpaceError, ValidationError
from .experiments import ExperimentConfig, build_dataset
from .graph import SocialGraph
from .objective import Assignment, ObjectiveParams, evaluate, total_objective
from .partition import (
    HeuristicParams,
    baseline_max_preference,
    baseline_min_propagation,
    baseline_random,
    brute_force_optimal,
    initial_hosting,
    run_heuristic,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityTable", "Assignment", "CloudModel", "ExperimentConfig",
    "HeuristicParams", "ObjectiveParams", "ParseError", "PricingMatrix",
    "SearchSpaceError", "SocialGraph", "ValidationError",
    "baseline_max_preference", "baseline_min_propagation", "baseline_random",
    "brute_force_optimal", "build_dataset", "default_profiles", "evaluate",
    "initial_hosting", "run_heuristic", "total_objective",
]

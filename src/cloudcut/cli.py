"""Command line front end.

Every subcommand reads an optional JSON config document (--config) and lets
individual flags override it.  CLOUDCUT_OUTPUT_DIR, when set, overrides the
output directory last.  On success a one-line JSON summary goes to stdout and
the exit code is 0; on failure a machine-readable JSON error object goes to
stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ValidationError
from .experiments import (
    ExperimentConfig,
    cmd_evaluate,
    cmd_oracle_compare,
    cmd_partition,
    cmd_sweep_alpha,
    cmd_sweep_providers,
    cmd_synth,
)

OUTPUT_DIR_ENV = "CLOUDCUT_OUTPUT_DIR"


def _add_common(p):
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--output-dir", help="directory for output files")
    p.add_argument("--seed", type=int, dest="rng_seed", help="root RNG seed")
    p.add_argument("--alpha", type=float, help="preference/cost trade-off in [0,1]")
    p.add_argument("--cost-weight", type=float, dest="cost_weight")
    p.add_argument("--raw-preference", action="store_true",
                   help="score with raw instead of normalized preference")
    p.add_argument("--algorithm", choices=["heuristic", "random", "min_propagation",
                                           "max_preference"])
    p.add_argument("--min-gain", type=float, dest="min_gain")
    p.add_argument("--touched-budget", type=float, dest="touched_budget")
    p.add_argument("--termination-mode", choices=["gain_threshold", "budget", "both"],
                   dest="termination_mode")
    p.add_argument("--edges", dest="edges_path", help="edge CSV (src,dst,weight)")
    p.add_argument("--regions", dest="regions_path")
    p.add_argument("--pricing", dest="pricing_path")
    p.add_argument("--affinities", dest="affinity_path")
    p.add_argument("--profiles", dest="profiles_path")
    p.add_argument("--users", type=int, dest="synth_users")
    p.add_argument("--mean-degree", type=float, dest="synth_mean_degree")
    p.add_argument("--clouds", type=int, dest="synth_clouds")
    p.add_argument("--regions-count", type=int, dest="synth_regions")
    p.add_argument("--telemetry", action="store_true",
                   help="write telemetry.jsonl next to the assignment")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cloudcut",
        description="Assign social-network users to cloud providers, trading "
                    "hosting preference against cross-cloud replication cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition one dataset and write the assignment")
    _add_common(p)

    p = sub.add_parser("evaluate", help="score an existing assignment file")
    _add_common(p)
    p.add_argument("assignment", help="assignment CSV (user_label,cloud_label)")

    p = sub.add_parser("synth", help="generate and write a synthetic dataset")
    _add_common(p)

    p = sub.add_parser("sweep-alpha", help="sweep the trade-off parameter")
    _add_common(p)

    p = sub.add_parser("sweep-providers", help="sweep the number of active clouds")
    _add_common(p)

    p = sub.add_parser("oracle-compare", help="compare against exhaustive optima "
                                              "on small instances")
    _add_common(p)

    return parser


def config_from_args(args):
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    for key in ("output_dir", "rng_seed", "alpha", "cost_weight", "algorithm",
                "min_gain", "touched_budget", "termination_mode",
                "edges_path", "regions_path", "pricing_path", "affinity_path",
                "profiles_path", "synth_users", "synth_mean_degree",
                "synth_clouds", "synth_regions"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "raw_preference", False):
        overrides["use_normalized"] = False
    if getattr(args, "telemetry", False):
        overrides["telemetry"] = True
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        overrides["output_dir"] = env_out
    return config.with_overrides(**overrides)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "partition":
            summary = cmd_partition(config)
        elif args.command == "evaluate":
            summary = cmd_evaluate(config, args.assignment)
        elif args.command == "synth":
            summary = cmd_synth(config)
        elif args.command == "sweep-alpha":
            summary = cmd_sweep_alpha(config)
        elif args.command == "sweep-providers":
            summary = cmd_sweep_providers(config)
        elif args.command == "oracle-compare":
            summary = cmd_oracle_compare(config)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import fields

import numpy as np

from .errors import ValidationError
from .experiments import (  # main finds the cmd_* functions by name
    ALGORITHMS,
    ExperimentConfig,
    cmd_evaluate,
    cmd_oracle_compare,
    cmd_partition,
    cmd_sweep_alpha,
    cmd_sweep_providers,
    cmd_synth,
)

OUTPUT_DIR_ENV = "CLOUDCUT_OUTPUT_DIR"
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _add_common(p):
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--output-dir", help="directory for output files")
    p.add_argument("--seed", type=int, dest="rng_seed", help="root RNG seed")
    p.add_argument("--alpha", type=float, help="preference/cost trade-off in [0,1]")
    p.add_argument("--cost-weight", type=float, dest="cost_weight")
    p.add_argument("--raw-preference", dest="use_normalized", action="store_false",
                   default=None, help="score with raw instead of normalized preference")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--min-gain", type=float, dest="min_gain")
    p.add_argument("--touched-budget", type=float, dest="touched_budget")
    p.add_argument("--edges", dest="edges_path", help="edge CSV (src,dst,weight)")
    p.add_argument("--regions", dest="regions_path")
    p.add_argument("--pricing", dest="pricing_path")
    p.add_argument("--affinities", dest="affinity_path")
    p.add_argument("--profiles", dest="profiles_path")
    p.add_argument("--users", type=int, dest="synth_users")
    p.add_argument("--mean-degree", type=float, dest="synth_mean_degree")
    p.add_argument("--clouds", type=int, dest="synth_clouds")
    p.add_argument("--regions-count", type=int, dest="synth_regions")
    p.add_argument("--telemetry", action="store_true", default=None,
                   help="write telemetry.jsonl next to the assignment")


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a bad command line as a
    ValidationError, so that main reports it as JSON like any bad input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
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
    # every flag whose dest names a config field overrides it when given
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        overrides["output_dir"] = env_out
    return config.with_overrides(**overrides)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        # looked up by name on each call, so a wrapped cmd_* attribute is used
        command = globals()["cmd_" + args.command.replace("-", "_")]
        extra = (args.assignment,) if args.command == "evaluate" else ()
        # numbers too large to score are bad input, not a crash
        with np.errstate(over="raise", invalid="raise"):
            summary = command(config, *extra)
    except FloatingPointError as exc:
        return _fail("ValidationError", f"input numbers too large to score ({exc})", 2)
    except ValidationError as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except OSError as exc:
        return _fail(type(exc).__name__, str(exc), 3)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _fail(error, message, code):
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:

* ``sweep``          lambda-grid angle/error curves (+ BIC markers) per pair
* ``bic``            BIC-selected runs only, one row per replication
* ``phase``          full (alpha, beta) grid summary and phase diagram
* ``counterexample`` discrete non-Gaussian demonstration over a d grid

Exit codes: 0 success, 2 configuration error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .config import (
    CONFIG_KEYS,
    DEFAULT_SEED,
    PAPER_PAIRS,
    ExperimentConfig,
    parse_config_file,
    resolve_config,
)
from .exceptions import ConfigError, DomainError, SpcaLabError
from .experiment import emit_counterexample, run_and_emit, run_counterexample

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

#: Study subcommands: help, field values under the config file, forced field values.
STUDIES = {
    "sweep": ("lambda-grid angle/error curves", {}, {"sweep": True}),
    "bic": ("BIC-selected runs", {}, {"bic": True}),
    "phase": ("full (alpha, beta) grid summary",
              {"pairs": PAPER_PAIRS, "methods": ("rspca",)}, {"bic": True}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcalab",
        description="Sparse-PCA consistency experiments in the d >> n regime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--config", type=Path, help="key=value config file")
    # Flags stay strings so that they go through the config file's parsers.
    for key in CONFIG_KEYS:
        kind = {"action": argparse.BooleanOptionalAction} if key.is_bool else {"choices": key.choices}
        study.add_argument(key.flag, dest=key.name, help=key.help, **kind)
    for command, (help_text, _, _) in STUDIES.items():
        sub.add_parser(command, help=help_text, parents=[study])

    p_ce = sub.add_parser("counterexample", help="non-Gaussian counterexample study")
    p_ce.add_argument("--d-grid", type=str, default="50,100,200,400",
                      help="comma list of dimensions")
    p_ce.add_argument("--alpha", type=float, default=0.5)
    p_ce.add_argument("--reps", type=int, default=10000)
    p_ce.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ce.add_argument("--out", type=Path, required=True)
    return parser


def study_config(args: argparse.Namespace) -> ExperimentConfig:
    """The resolved config of a study subcommand's parsed arguments."""
    _, defaults, forced = STUDIES[args.command]
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {key.name: getattr(args, key.name) for key in CONFIG_KEYS}
    return resolve_config(file_values, flags, defaults=defaults, forced=forced)


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    The first statement moves every object alive at the call (numpy, spcalab,
    argparse and the rest of the import graph) into the garbage collector's
    permanent generation.  Its collections then skip those objects, both the
    one at interpreter exit, which would otherwise walk the whole import graph,
    and those in forked ``--threads`` workers, which would otherwise write to the
    parent's object headers and so copy the pages that hold them.  An
    in-process caller, such as a test, should know that the objects alive when
    it calls ``main`` are never cyclic-collected afterwards.
    """
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command in STUDIES:
            run_and_emit(study_config(args))
        elif args.command == "counterexample":
            try:
                dims = [float(x) for x in args.d_grid.split(",") if x.strip()]
            except ValueError as exc:  # a malformed --d-grid entry
                raise ConfigError(str(exc)) from exc
            try:
                result = run_counterexample(dims, args.alpha, args.reps, args.seed)
            except DomainError as exc:  # raised only by its argument checks, before any draw
                raise ConfigError(str(exc)) from exc
            emit_counterexample(result, args.out)
    except ConfigError as exc:
        print(f"spcalab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpcaLabError, OSError, ValueError, ArithmeticError) as exc:
        print(f"spcalab: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

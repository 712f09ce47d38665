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
import sys
from pathlib import Path

from .exceptions import ConfigError, SpcaLabError
from .experiment import (
    CONFIG_KEYS,
    DEFAULT_SEED,
    PAPER_PAIRS,
    ExperimentConfig,
    check_counterexample,
    emit_counterexample,
    parse_config_file,
    resolve_config,
    run_and_emit,
    run_counterexample,
)

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

    for command, (help_text, _, _) in STUDIES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, help="key=value config file")
        # Flags stay strings so that they go through the config file's parsers.
        for key in CONFIG_KEYS:
            kind = {"action": argparse.BooleanOptionalAction} if key.is_bool else {"choices": key.choices}
            p.add_argument(key.flag, dest=key.name, help=key.help, **kind)

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
    args = build_parser().parse_args(argv)
    try:
        if args.command in STUDIES:
            run_and_emit(study_config(args))
        elif args.command == "counterexample":
            try:
                dims = check_counterexample(
                    [x for x in args.d_grid.split(",") if x.strip()], args.alpha, args.reps
                )
            except ValueError as exc:  # a malformed --d-grid entry or a DomainError
                raise ConfigError(str(exc)) from exc
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            result = run_counterexample(dims, args.alpha, args.reps, args.seed)
            emit_counterexample(result, out)
    except ConfigError as exc:
        print(f"spcalab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpcaLabError, OSError, ValueError, ArithmeticError) as exc:
        print(f"spcalab: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

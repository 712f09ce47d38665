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
    DEFAULT_SEED,
    PAPER_PAIRS,
    _CONFIG_PARSERS,
    _convert,
    emit_counterexample,
    parse_config_file,
    resolve_config,
    run_and_emit,
    run_counterexample,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--alpha", type=float, help="spike index (with --beta: single pair)")
    p.add_argument("--beta", type=float, help="sparsity index (with --alpha: single pair)")
    p.add_argument("--pairs", type=str, help="comma list of alpha:beta pairs")
    p.add_argument("--d", type=int, help="ambient dimension")
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--reps", type=int, dest="replications", help="replications per pair")
    p.add_argument("--method", type=str, dest="methods", help="comma list from pca,st,rspca,oracle")
    p.add_argument("--penalty", choices=["soft", "hard", "scad"], help="RSPCA penalty family")
    p.add_argument("--scad-a", type=float, dest="scad_a", help="SCAD shape parameter")
    p.add_argument("--lambda-min", type=float, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, dest="lambda_max")
    p.add_argument("--lambda-points", type=int, dest="lambda_points")
    p.add_argument("--bic", action=argparse.BooleanOptionalAction, default=None,
                   help="BIC-select lambda per replication")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--profile", choices=["paper", "desk"], help="preset scale")
    p.add_argument("--threads", type=int, help="worker processes")
    p.add_argument("--timing", action=argparse.BooleanOptionalAction, default=None,
                   help="record wall-clock runtime_ms (breaks byte-determinism)")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--delta", type=float, help="lower-bound exponent on log(d)")
    p.add_argument("--gamma", type=float, help="upper-bound exponent (default: midpoint)")


def _flags_dict(args: argparse.Namespace) -> dict:
    out = {}
    for key, kind in _CONFIG_PARSERS.items():
        v = getattr(args, key, None)
        if v is None:
            continue
        # Flags share the config file's list syntax; argparse types the rest.
        out[key] = _convert(key, v) if kind in ("pairs", "methods") else v
    return out


def _build_config(args: argparse.Namespace, *, sweep: bool, bic_default: bool, force_bic: bool = False):
    file_values = parse_config_file(args.config) if args.config else {}
    flags = _flags_dict(args)
    if force_bic:
        flags["bic"] = True
    cfg = resolve_config(file_values, flags, sweep=sweep, bic_default=bic_default)
    if cfg.output_dir is None:
        raise ConfigError("an output directory is required (--out DIR or out= in the config file)")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spcalab",
        description="Sparse-PCA consistency experiments in the d >> n regime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="lambda-grid angle/error curves")
    _add_common(p_sweep)
    p_bic = sub.add_parser("bic", help="BIC-selected runs")
    _add_common(p_bic)
    p_phase = sub.add_parser("phase", help="full (alpha, beta) grid summary")
    _add_common(p_phase)

    p_ce = sub.add_parser("counterexample", help="non-Gaussian counterexample study")
    p_ce.add_argument("--d-grid", type=str, default="50,100,200,400",
                      help="comma list of dimensions")
    p_ce.add_argument("--alpha", type=float, default=0.5)
    p_ce.add_argument("--reps", type=int, default=10000)
    p_ce.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ce.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            cfg = _build_config(args, sweep=True, bic_default=True)
            run_and_emit(cfg)
        elif args.command == "bic":
            cfg = _build_config(args, sweep=False, bic_default=True, force_bic=True)
            run_and_emit(cfg)
        elif args.command == "phase":
            if args.pairs is None and args.alpha is None:
                args.pairs = ",".join(f"{a:g}:{b:g}" for a, b in PAPER_PAIRS)
            if args.methods is None:
                args.methods = "rspca"
            cfg = _build_config(args, sweep=False, bic_default=True, force_bic=True)
            run_and_emit(cfg)
        elif args.command == "counterexample":
            dims = [int(x) for x in args.d_grid.split(",") if x.strip()]
            if not dims:
                raise ConfigError("--d-grid must list at least one dimension")
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

"""The package's public surface: ``spcalab.__all__``, its bad-input table and the README example."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import pickle
import re
import subprocess
import sys
import types
from dataclasses import fields
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

import spcalab
from spcalab import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    NumericError,
    SpcaLabError,
)
from spcalab.config import resolve_config
from spcalab.figures import counterexample_figure, phase_figure, sweep_figure
from spcalab.metrics import _Truth, frobenius_sq
from spcalab.model import KEY_BLOCK, counterexample_hits, stream_keys
from spcalab.theory import counterexample_tail_probability, pair_lambda_bounds

README = Path(__file__).resolve().parents[1] / "README.md"


class TestAll:
    def test_no_duplicates(self):
        assert len(spcalab.__all__) == len(set(spcalab.__all__))

    def test_every_entry_resolves(self):
        missing = [name for name in spcalab.__all__ if not hasattr(spcalab, name)]
        assert missing == []

    def test_every_public_attribute_listed(self):
        public = {
            name
            for name, value in vars(spcalab).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public - set(spcalab.__all__) == set()

    @pytest.mark.parametrize("module, name", [
        ("estimators", "LoadingVector"),
        ("metrics", "RateDiagnostic"),
        ("metrics", "fit_rate"),
        ("metrics", "GAP_FLOOR"),
        ("penalties", "threshold_scalar"),
        ("experiment", "emit_plots"),
        ("experiment", "emit_phase"),
        ("metrics", "LambdaBounds"),
        ("metrics", "theorem_lambda_bounds"),
        ("metrics", "gamma_is_valid"),
        ("metrics", "default_gamma"),
        ("model", "counterexample_tail_probability"),
        ("model", "failure_probability"),
        ("experiment", "_pair_bounds"),
        ("experiment", "ConfigKey"),
        ("experiment", "CONFIG_KEYS"),
        ("experiment", "resolve_config"),
        ("experiment", "write_resolved_config"),
        ("experiment", "parse_config_file"),
        ("experiment", "PROFILES"),
        ("model", "_make_rng"),
        ("experiment", "check_counterexample"),
        ("model", "EigenSystem"),
    ])
    def test_removed_names_are_gone(self, module, name):
        # Estimates are plain arrays; the rate fit and the scalar threshold
        # are test references in tests/_oracles.py; run_and_emit writes the
        # figures itself.  The threshold range and the counterexample law
        # live in theory, and the package exports theory's objects.  Every
        # config fact lives in config.  numpy seeds Philox from a checked seed
        # directly, and run_counterexample checks its own arguments.  A
        # SpikedSpec gives u1 and its support, and is what sample_gaussian takes.
        assert not hasattr(importlib.import_module(f"spcalab.{module}"), name)
        if name in spcalab.__all__:
            assert getattr(spcalab, name) is getattr(importlib.import_module("spcalab.theory"), name)
        else:
            assert not hasattr(spcalab, name)

    @pytest.mark.parametrize("module, name, keyword", [
        ("metrics", "select_lambda_bic", "xv"),
        ("metrics", "select_lambda_bic", "fro2"),
        ("estimators", "rspca", "fro2"),
        ("estimators", "rspca", "bic_per_iteration"),
        ("metrics", "evaluate_estimate", "lam"),
    ])
    def test_removed_keywords_are_gone(self, module, name, keyword):
        # BIC computes X v1 and ||X||_F^2 itself, and a metric row does not
        # echo lambda back.
        func = getattr(importlib.import_module(f"spcalab.{module}"), name)
        assert keyword not in inspect.signature(func).parameters

    def test_select_lambda_bic_takes_exactly_its_four_parameters(self):
        assert list(inspect.signature(spcalab.select_lambda_bic).parameters) == [
            "x", "v1", "grid", "penalty"]

    def test_canonical_sign_is_internal_to_eigen(self):
        assert "canonical_sign" not in spcalab.__all__
        assert not hasattr(spcalab, "canonical_sign")
        assert callable(importlib.import_module("spcalab.eigen").canonical_sign)


# ---------------------------------------------------------------------------
# Bad input at the public boundary
# ---------------------------------------------------------------------------

#: A d x n sample every data-matrix argument below starts from, and its dual.
X = np.random.default_rng(0).standard_normal((20, 2))
DUAL = spcalab.dual_first_component(X)


def _set(a, index, value):
    """A float copy of ``a`` with one entry replaced."""
    out = np.array(a, dtype=float)
    out[index] = value
    return out


#: Valid keyword arguments of each callable the table calls.
CALLS = {
    spcalab.DataMatrix: dict(x=X),
    spcalab.SpikedSpec: dict(d=10, n=5, alpha=0.5, beta=0.5),
    spcalab.PenaltySpec: dict(family="hard", lam=1.0),
    spcalab.PenaltySpec.hard: dict(lam=1.0),
    spcalab.PenaltySpec.soft: dict(lam=1.0),
    spcalab.PenaltySpec.scad: dict(lam=0.1, a=3.7),
    spcalab.PenaltySpec.with_lambda: dict(self=spcalab.PenaltySpec.scad(0.1).with_lambda(np.float64(0.2)),
                                          lam=0.3),
    spcalab.threshold: dict(x=np.ones(3), penalty=spcalab.PenaltySpec.scad(0.5)),
    spcalab.ExperimentConfig: dict(d=120, n=8, replications=3, methods=("pca", "oracle")),
    resolve_config: dict(file_values={}, flag_values={}),
    spcalab.sample_gaussian: dict(spec=spcalab.SpikedSpec(50, 4, 0.6, 0.3), seed=0),
    stream_keys: dict(base_seed=0, d_index=0, reps=range(3)),
    counterexample_hits: dict(d=50, alpha=0.5, keys=[np.zeros((1, 2), dtype=np.uint64)]),
    spcalab.dual_first_component: dict(x=X),
    spcalab.pca_first: dict(x=X),
    spcalab.st_estimator: dict(x=X, lam=1.0),
    spcalab.rspca: dict(x=X, penalty=spcalab.PenaltySpec.hard(0.0),
                        lambda_grid=spcalab.default_lambda_grid(DUAL.u_tilde, points=4), dual=DUAL),
    spcalab.oracle_estimator: dict(x=X, support=[0, 1]),
    spcalab.angle_degrees: dict(u=[0.0, 0.0], v=[0.0, 1.0]),
    spcalab.support_errors: dict(estimate=np.ones(3), truth_support=[0]),
    spcalab.evaluate_estimate: dict(estimate=np.ones(5), u1=np.ones(5) / 5**0.5, truth_support=[0, 1]),
    spcalab.select_lambda_bic: dict(x=X, v1=DUAL.v1, grid=[0.0, 1.0]),
    spcalab.default_lambda_grid: dict(u_tilde=np.ones(3), lambda_min=1.0),
    spcalab.theorem_lambda_bounds: dict(d=2000, theta=0.0, gamma=1.0, delta=1.0),
    pair_lambda_bounds: dict(d=2000, alpha=0.6, beta=0.1, delta=1.0, gamma=None),
    spcalab.default_gamma: dict(theta=0.0, alpha=0.6, eta=0.1),
    spcalab.gamma_is_valid: dict(gamma=0.25, theta=0.0, alpha=0.6, eta=0.1),
    spcalab.failure_probability: dict(d=50, alpha=0.5),
    counterexample_tail_probability: dict(d=50, alpha=0.5),
    spcalab.run_counterexample: dict(dims=[50], alpha=0.5, reps=2, base_seed=1),
    spcalab.emit_csv: dict(records=[spcalab.ReplicationRecord(0.6, 0.3, "pca", 0, 0.0, 1.0, 0.0, 0.0, 6,
                                                              final=True)], path="r.csv"),
    spcalab.emit_summary_csv: dict(summary=[spcalab.SummaryRow(0.6, 0.1, "pca", 1, None, 6.0, *[1.0] * 9)],
                                   path="s.csv"),
    spcalab.run_and_emit: dict(cfg=spcalab.ExperimentConfig(d=20, n=4, replications=1, methods=("pca",),
                                                            output_dir="out")),
    sweep_figure: dict(pair=(0.6, 0.1), curves=[[(0.0, 50.0, 0.0, 1.0), (1.0, 20.0, 0.0, 0.1)]],
                       bic_points=[], bounds=None, path="fig.svg"),
    phase_figure: dict(entries=[(0.6, 0.1, 10.0)], path="phase.svg"),
    counterexample_figure: dict(dims=[50], empirical=[0.1], predicted=[0.1], path="ce.svg"),
}


def _row(function, name, bad, error, fragment, label, **valid):
    """``function`` called with ``name=bad`` over its valid arguments (updated by ``valid``)
    raises ``error`` with a message matching the regex ``fragment``."""
    return pytest.param(function, {**CALLS[function], **valid}, name, bad, error, fragment,
                        id=f"{function.__qualname__}-{name}-{label}")


#: One wrong-typed value per ExperimentConfig field, with the key its error names.
WRONG_TYPES = [
    ("pairs", [(0.6,)], "pairs"),
    ("pairs", [(0.6, "0.1")], "pairs"),
    ("pairs", [(True, 0.1)], "pairs"),
    ("d", 100.5, "d"),
    ("d", True, "d"),
    ("n", 5.5, "n"),
    ("replications", 2.5, "replications"),
    ("methods", "pca", "methods"),
    ("methods", ("pca", 1), "methods"),
    ("penalty", 1, "penalty"),
    ("scad_a", "3.7", "scad_a"),
    ("lambda_min", True, "lambda_min"),
    ("lambda_max", "20", "lambda_max"),
    ("lambda_points", 3.5, "lambda_points"),
    ("bic", "no", "bic"),
    ("sweep", 1, "sweep"),
    ("base_seed", 1.5, "seed"),
    ("output_dir", 5, "out"),
    ("threads", 1.5, "threads"),
    ("timing", 1, "timing"),
    ("max_iter", 200.5, "max_iter"),
    ("delta", None, "delta"),
    ("gamma", "0.3", "gamma"),
]

#: The theorem's range functions, each of whose real arguments must be a finite real number.
RANGE_FUNCTIONS = (spcalab.theorem_lambda_bounds, pair_lambda_bounds, spcalab.default_gamma,
                   spcalab.gamma_is_valid)

#: Every bad-input case of the package's callables: the callable, its valid arguments,
#: the one bad argument, the ``SpcaLabError`` subclass it raises and a regex of its
#: message.  A bad value of an object-typed parameter (a penalty, a spec, a config,
#: records) is out of scope: such an object checks its own values when it is built, and
#: an object of another type fails with Python's own error.
BAD_INPUT = [
    # model
    _row(spcalab.DataMatrix, "x", np.ones(3), DimensionError, "x must be a 2-d data matrix", "vector"),
    _row(spcalab.DataMatrix, "x", _set(X, (0, 0), nan), NumericError, "contains non-finite entries",
         "nan"),
    _row(spcalab.SpikedSpec, "d", 0, DomainError, "d must be >= 1", "zero"),
    _row(spcalab.SpikedSpec, "n", 0, DomainError, "n must be >= 1", "zero"),
    _row(spcalab.SpikedSpec, "alpha", -0.1, DomainError, r"alpha must lie in \[0, 1.5\]", "negative"),
    _row(spcalab.SpikedSpec, "alpha", 1.6, DomainError, r"alpha must lie in \[0, 1.5\]", "above"),
    _row(spcalab.SpikedSpec, "beta", 1.5, DomainError, r"beta must lie in \[0, 1\]", "above"),
    _row(spcalab.SpikedSpec, "d", 100.5, DomainError, "must be an integer", "fraction"),
    _row(spcalab.SpikedSpec, "n", 5.5, DomainError, "must be an integer", "fraction"),
    _row(spcalab.SpikedSpec, "d", 100.0, DomainError, "must be an integer", "float"),
    _row(spcalab.SpikedSpec, "d", True, DomainError, "must be an integer", "bool"),
    _row(spcalab.SpikedSpec, "n", True, DomainError, "must be an integer", "bool"),
    _row(spcalab.SpikedSpec, "alpha", "0.5", DomainError, "alpha must be a real number", "str"),
    _row(spcalab.SpikedSpec, "beta", None, DomainError, "beta must be a real number", "none"),
    _row(spcalab.SpikedSpec, "alpha", True, DomainError, "alpha must be a real number", "bool"),
    _row(spcalab.SpikedSpec, "beta", False, DomainError, "beta must be a real number", "bool"),
    _row(spcalab.SpikedSpec, "d", 10**400, DomainError, "int too large to convert to float",
         "power_overflows"),
    *(_row(spcalab.sample_gaussian, "seed", seed, DomainError,
           f"seed must be an integer, got {re.escape(repr(seed))}", label)
      for seed, label in [(1.5, "fraction"), (2.0, "float"), ("7", "string"), (True, "bool"),
                          (None, "none")]),
    _row(spcalab.sample_gaussian, "seed", -1, DomainError, "seed must be >= 0, got -1", "negative"),
    _row(stream_keys, "base_seed", -1, DomainError, "seed must be >= 0", "negative"),
    _row(stream_keys, "base_seed", 1.5, DomainError, "seed must be an integer, got 1.5", "fraction"),
    _row(stream_keys, "base_seed", True, DomainError, "seed must be an integer, got True", "bool"),
    _row(stream_keys, "base_seed", "7", DomainError, "seed must be an integer, got '7'", "string"),
    _row(stream_keys, "d_index", -1, DomainError, "d_index must be >= 0", "negative"),
    _row(stream_keys, "d_index", 1.5, DomainError, "d_index must be an integer, got 1.5", "fraction"),
    _row(stream_keys, "reps", range(-1, 3), DomainError, "unit-step range from 0 up", "negative_rep"),
    _row(stream_keys, "reps", range(2**32 + 1), DomainError, r"reps must be <= 2\*\*32, got 4294967297",
         "rep_past_one_word"),
    _row(stream_keys, "reps", range(0, 6, 2), DomainError, "unit-step range from 0 up", "step"),
    _row(counterexample_hits, "keys", [np.zeros((KEY_BLOCK + 1, 2), dtype=np.uint64)], DimensionError,
         f"at most {KEY_BLOCK} keys", "oversized_block"),
    # penalties
    _row(spcalab.PenaltySpec, "family", "ridge", DomainError, "unknown penalty family 'ridge'", "ridge"),
    _row(spcalab.PenaltySpec.hard, "lam", -0.5, DomainError, "lambda must be >= 0", "negative"),
    _row(spcalab.PenaltySpec.soft, "lam", nan, DomainError, "lambda must be >= 0", "nan"),
    _row(spcalab.PenaltySpec.scad, "a", 2.0, DomainError, "SCAD shape a must be > 2", "two"),
    _row(spcalab.PenaltySpec.hard, "lam", "1", DomainError, "lam must be a real number", "str"),
    _row(spcalab.PenaltySpec.hard, "lam", True, DomainError, "lam must be a real number", "bool"),
    _row(spcalab.PenaltySpec.soft, "lam", None, DomainError, "lam must be a real number", "none"),
    _row(spcalab.PenaltySpec.scad, "a", "3.7", DomainError, "scad_a must be a real number", "str"),
    _row(spcalab.PenaltySpec.with_lambda, "lam", False, DomainError, "lam must be a real number", "bool"),
    *(_row(spcalab.PenaltySpec.scad, "a", a, DomainError, f"scad_a must be finite, got {a}", label)
      for a, label in [(inf, "inf"), (-inf, "-inf"), (nan, "nan")]),
    _row(spcalab.threshold, "x", ["0.5", "a"], DomainError, "x must be an array of real numbers", "str"),
    # eigen and estimators
    _row(spcalab.dual_first_component, "x", np.full((4, 2), 1e200), NumericError, "non-finite",
         "overflowing_gram"),
    _row(spcalab.dual_first_component, "x", np.zeros((5, 3)), DegenerateInputError, "identically zero",
         "all_zero"),
    _row(spcalab.dual_first_component, "x", _set(np.ones((4, 2)), (1, 1), inf), NumericError,
         "non-finite", "inf"),
    _row(spcalab.dual_first_component, "x", np.ones(3), DimensionError, "x must be a 2-d data matrix",
         "vector"),
    _row(spcalab.dual_first_component, "x", "abc", DomainError, "x must be an array of real numbers",
         "str"),
    _row(spcalab.pca_first, "x", "abc", DomainError, "x must be an array of real numbers", "str"),
    _row(spcalab.st_estimator, "lam", nan, DomainError, "lambda must be >= 0, got nan", "nan"),
    _row(spcalab.st_estimator, "lam", -1.0, DomainError, "lambda must be >= 0", "negative"),
    _row(spcalab.rspca, "max_iter", 0, DomainError, "max_iter must be >= 1", "zero"),
    _row(spcalab.rspca, "max_iter", 1.5, DomainError, "max_iter must be an integer, got 1.5", "fraction"),
    _row(spcalab.rspca, "max_iter", True, DomainError, "max_iter must be an integer, got True", "bool"),
    _row(spcalab.rspca, "lambda_grid", ["0", "a"], DomainError,
         "lambda grid must be an array of real numbers", "str"),
    # The dual is taken from clean data, so only ||X||_F^2 sees the NaN.
    _row(spcalab.rspca, "x", _set(X, (3, 1), nan), NumericError, r"\|\|X\|\|_F\^2 must be finite, got nan",
         "nan_with_dual"),
    _row(spcalab.oracle_estimator, "x", np.ones(5), DimensionError, "2-d data matrix", "1d"),
    _row(spcalab.oracle_estimator, "x", np.ones((5, 2, 1)), DimensionError, "2-d data matrix", "3d"),
    _row(spcalab.oracle_estimator, "support", [], DomainError, "support must be non-empty", "empty"),
    *(_row(spcalab.oracle_estimator, "support", support, DomainError, r"support indices outside \[0, d\)",
           label)
      for support, label in [([25], "past_d"), ([20], "d"), ([-1], "negative"), ([3, -1], "one_negative")]),
    _row(spcalab.oracle_estimator, "support", [False, True, False, True, True], DomainError,
         "integer indices", "bool_mask"),
    _row(spcalab.oracle_estimator, "support", [1.9, 3.2], DomainError, "integer indices", "fractional"),
    _row(spcalab.oracle_estimator, "support", [[0], [1]], DimensionError, "support must be 1-d", "2d"),
    # metrics
    _row(spcalab.angle_degrees, "v", np.ones(4), DimensionError, "shape mismatch", "longer"),
    _row(spcalab.angle_degrees, "u", np.ones((2, 2)), DimensionError, "must be 1-d", "matrix"),
    _row(spcalab.angle_degrees, "u", 1.0, DimensionError, "must be 1-d", "scalar"),
    _row(spcalab.angle_degrees, "v", np.ones((4, 1)), DimensionError, "must be 1-d", "column"),
    _row(spcalab.angle_degrees, "u", [nan, 1.0], NumericError, "finite norm", "nan"),
    _row(spcalab.angle_degrees, "v", [1.0, inf], NumericError, "finite norm", "inf_against_zero"),
    _row(spcalab.angle_degrees, "u", "ab", DomainError, "u must be an array of real numbers", "str"),
    _row(spcalab.support_errors, "truth_support", [], DomainError, "truth support must be non-empty",
         "empty"),
    _row(spcalab.support_errors, "truth_support", [3], DomainError, "indices outside", "past_d"),
    _row(spcalab.support_errors, "truth_support", [False, True, False, True], DomainError,
         "integer indices", "bool_mask"),
    _row(spcalab.support_errors, "truth_support", [1.9, 3.2], DomainError, "integer indices",
         "fractional"),
    _row(spcalab.support_errors, "truth_support", [[0], [1]], DimensionError,
         "truth support must be 1-d", "2d"),
    *(_row(spcalab.support_errors, "estimate", [bad, 0.0, 1.0], NumericError,
           "estimate must have a finite norm", str(bad)) for bad in (nan, inf)),
    _row(spcalab.evaluate_estimate, "estimate", np.ones(4), DimensionError, "shape mismatch", "short"),
    _row(spcalab.evaluate_estimate, "estimate", np.ones(4), DimensionError, "shape mismatch",
         "short_against_truth", truth_support=_Truth.of(np.ones(5), [0, 1])),
    _row(spcalab.evaluate_estimate, "estimate", np.ones((5, 1)), DimensionError, "1-d",
         "column_against_truth", truth_support=_Truth.of(np.ones(5), [0, 1])),
    *(_row(spcalab.evaluate_estimate, "estimate", [bad, 0.0, 0.0, 0.0, 0.0], NumericError,
           f"estimate must have a finite norm, got {bad}", str(bad)) for bad in (nan, inf)),
    *(_row(spcalab.evaluate_estimate, "u1", [bad, 0.0, 0.0, 0.0, 0.0], NumericError,
           f"u1 must have a finite norm, got {bad}", str(bad)) for bad in (nan, inf)),
    *(_row(spcalab.select_lambda_bic, "v1", v1, DomainError, "v1 must be unit-norm", label)
      for v1, label in [([nan, 0.0], "nan"), ([nan, nan], "all_nan"), ([inf, 0.0], "inf")]),
    # v1 comes from the clean data, so only ||X||_F^2 sees the bad entry.
    *(_row(spcalab.select_lambda_bic, "x", _set(X, (7, 1), bad), NumericError,
           f"must be finite, got {bad}", f"{bad}_data") for bad in (nan, inf)),
    _row(spcalab.select_lambda_bic, "x", X[:, 0], DimensionError, "x must be a 2-d data matrix", "vector"),
    *(_row(spcalab.select_lambda_bic, "grid", grid, DomainError, "lambda grid must be a non-empty 1-d array",
           label) for grid, label in [([], "empty"), ([[0.0, 1.0]], "matrix")]),
    *(_row(spcalab.select_lambda_bic, "grid", grid, DomainError,
           "lambda grid must be finite, non-negative and ascending", label)
      for grid, label in [([1.0, 0.5], "descending"), ([-1.0, 0.5], "negative"), ([nan], "nan"),
                          ([0.0, nan, 1.0], "inner_nan"), ([nan, 1.0], "first_nan"),
                          ([0.0, nan], "last_nan"), ([inf], "inf"), ([0.0, inf], "last_inf"),
                          ([-inf, 0.0], "-inf")]),
    _row(spcalab.select_lambda_bic, "grid", ["0", "a"], DomainError,
         "lambda grid must be an array of real numbers", "str"),
    _row(spcalab.default_lambda_grid, "points", 0, DomainError, "lambda_points must be >= 1", "zero"),
    _row(spcalab.default_lambda_grid, "lambda_min", 0.0, DomainError, "lambda_min must be > 0", "zero"),
    *(_row(spcalab.default_lambda_grid, key, bad, DomainError, f"{key} must be finite, got {bad}",
           str(bad)) for key in ("lambda_min", "lambda_max") for bad in (nan, inf)),
    *(_row(spcalab.default_lambda_grid, "lambda_max", top, DomainError, "lambda_max must exceed lambda_min",
           label) for top, label in [(0.5, "below_min"), (1.0, "at_min")]),
    *(_row(spcalab.default_lambda_grid, "points", points, DomainError,
           f"lambda_points must be an integer, got {points}", label)
      for points, label in [(2.5, "fraction"), (True, "bool")]),
    *(_row(spcalab.default_lambda_grid, key, bad, DomainError, f"^{key} must be a real number", label)
      for key in ("lambda_min", "lambda_max") for bad, label in [("0.1", "str"), (True, "bool")]),
    _row(spcalab.default_lambda_grid, "u_tilde", [1.0, nan], DomainError,
         r"1.5 max \|u_tilde\| must be finite", "nan"),
    _row(spcalab.default_lambda_grid, "u_tilde", np.array([]), DomainError, "u_tilde must be non-empty",
         "empty"),
    _row(spcalab.default_lambda_grid, "u_tilde", np.ones((3, 3)), DimensionError,
         "u_tilde must be 1-d, got shape", "matrix"),
    _row(spcalab.default_lambda_grid, "u_tilde", np.float64(2.0), DimensionError,
         "u_tilde must be 1-d, got shape", "scalar"),
    _row(spcalab.default_lambda_grid, "u_tilde", "abc", DomainError,
         "u_tilde must be an array of real numbers", "str"),
    # theory
    *(_row(function, name, bad, DomainError,
           f"^{name} must be finite, got nan" if bad is nan else f"^{name} must be a real number", label)
      for function in RANGE_FUNCTIONS for name in CALLS[function] if name != "d"
      for bad, label in [("0.5", "str"), (True, "bool"), (nan, "nan")]),
    _row(spcalab.theorem_lambda_bounds, "gamma", 0.0, DomainError, "gamma must exceed theta", "at_theta"),
    _row(spcalab.theorem_lambda_bounds, "delta", 0.5, DomainError, "delta must be > 1/2", "half"),
    _row(spcalab.theorem_lambda_bounds, "delta", inf, DomainError, "delta must be finite", "inf"),
    _row(spcalab.theorem_lambda_bounds, "gamma", inf, DomainError, "gamma must be finite", "inf"),
    _row(spcalab.theorem_lambda_bounds, "theta", -inf, DomainError, "theta must be finite", "-inf"),
    *(_row(function, "d", d, DomainError, "d must be an integer", label)
      for function in (spcalab.theorem_lambda_bounds, pair_lambda_bounds)
      for d, label in [(100.5, "fraction"), (100.0, "float"), (True, "bool")]),
    _row(pair_lambda_bounds, "delta", inf, DomainError, "delta must be finite, got inf", "inf"),
    *(_row(pair_lambda_bounds, "delta", delta, DomainError, f"delta must be finite, got {delta}",
           f"{delta}_no_range", alpha=0.2, beta=0.7) for delta in (inf, nan)),
    *(_row(pair_lambda_bounds, "gamma", gamma, DomainError, f"gamma must be finite, got {gamma}",
           str(gamma)) for gamma in (inf, -inf)),
    _row(spcalab.failure_probability, "alpha", "0.5", DomainError, "^alpha must be a real number", "str"),
    _row(spcalab.failure_probability, "alpha", True, DomainError, "^alpha must be a real number", "bool"),
    _row(spcalab.failure_probability, "alpha", nan, DomainError, r"^alpha must lie in \(0, 1\), got nan",
         "nan"),
    _row(spcalab.failure_probability, "alpha", 0.0, DomainError, r"alpha must lie in \(0, 1\)", "zero"),
    _row(spcalab.failure_probability, "d", 1, DomainError, "d must be >= 2", "one"),
    *(_row(law, "d", d, DomainError, message, label)
      for law in (spcalab.failure_probability, counterexample_tail_probability)
      for d, message, label in [(50.5, "d must be an integer, got 50.5", "fraction"),
                                (True, "d must be an integer, got True", "bool"),
                                (10**400, "d does not fit a float", "past_a_float")]),
    # config and experiment
    *(_row(spcalab.ExperimentConfig, name, value, ConfigError, rf"^{key} must be ", repr(value))
      for name, value, key in WRONG_TYPES),
    _row(spcalab.ExperimentConfig, "methods", ("pca", "svd"), ConfigError, "unknown method 'svd'",
         "unknown"),
    # st and rspca write rows only in BIC or sweep mode.
    *(_row(spcalab.ExperimentConfig, "methods", methods, ConfigError,
           "writes no rows with bic and sweep both off", ",".join(methods), bic=False, sweep=False)
      for methods in [("pca", "rspca"), ("rspca",), ("st", "oracle")]),
    _row(resolve_config, "file_values", {"replications": "0"}, ConfigError, "replications must be >= 1",
         "zero_replications"),
    _row(resolve_config, "flag_values", {"alpha": 0.6}, ConfigError,
         "alpha and beta must be given together", "alpha_without_beta"),
    _row(spcalab.run_and_emit, "cfg", spcalab.ExperimentConfig(d=20, n=4, replications=1, methods=("pca",)),
         ConfigError, "output_dir is required", "no_output_dir"),
    _row(spcalab.emit_csv, "records", [], DomainError, "no records to write", "empty"),
    _row(spcalab.emit_summary_csv, "summary", [], DomainError, "no summary rows to write", "empty"),
    _row(spcalab.run_counterexample, "dims", [], DomainError, "need at least one dimension", "empty"),
    _row(spcalab.run_counterexample, "reps", 0, DomainError, "reps must be >= 1", "zero"),
    _row(spcalab.run_counterexample, "dims", [50.7, 100], DomainError, "d must be an integer, got 50.7",
         "fraction"),
    *(_row(spcalab.run_counterexample, "dims", [d], DomainError, "d must be an integer", str(d))
      for d in (inf, nan)),
    *(_row(spcalab.run_counterexample, name, bad, DomainError, message, label)
      for name, bad, message, label in [
          ("reps", 2.5, "reps must be an integer, got 2.5", "fraction"),
          ("reps", True, "reps must be an integer, got True", "bool"),
          ("base_seed", 1.5, "base_seed must be an integer, got 1.5", "fraction"),
          ("base_seed", True, "base_seed must be an integer, got True", "bool"),
          ("base_seed", "1", "base_seed must be an integer, got '1'", "string"),
          ("alpha", "0.5", "alpha must be a real number, got '0.5'", "string"),
          ("alpha", True, "alpha must be a real number, got True", "bool"),
          ("dims", ["50"], "d must be an integer, got '50'", "d_string"),
          ("dims", [True], "d must be an integer, got True", "d_bool"),
          ("dims", [10**400], "d does not fit a float", "d_past_a_float"),
          ("dims", 50, "dims must be an iterable of integers, got 50", "int")]),
    # figures
    _row(sweep_figure, "curves", [], DomainError, "needs at least one non-empty lambda sweep", "empty"),
    _row(phase_figure, "entries", [], DomainError, r"needs at least one \(alpha, beta, angle\) entry",
         "empty"),
    _row(counterexample_figure, "empirical", [0.1, 0.2], DomainError, "must be equal-length and non-empty",
         "longer"),
]


@pytest.mark.parametrize("function, valid, name, bad, error, fragment", BAD_INPUT)
def test_bad_input_raises_a_typed_error(tmp_path, monkeypatch, function, valid, name, bad, error,
                                        fragment):
    monkeypatch.chdir(tmp_path)  # where the callables that write files write
    function(**valid)
    assert issubclass(error, SpcaLabError)
    with pytest.raises(error, match=fragment):
        function(**{**valid, name: bad})


#: A spiked sample whose every other column is a data matrix that is neither C- nor
#: Fortran-ordered, with a lambda grid and a threshold inside its u_tilde's range.
STRIDED_BASE = spcalab.sample_gaussian(spcalab.SpikedSpec(400, 24, 0.6, 0.3), 3).x
STRIDED_GRID = spcalab.default_lambda_grid(
    spcalab.dual_first_component(np.ascontiguousarray(STRIDED_BASE[:, ::2])).u_tilde, points=8)
STRIDED_LAM = float(STRIDED_GRID[-2])


@pytest.mark.parametrize("call", [
    spcalab.dual_first_component,
    spcalab.pca_first,
    lambda x: spcalab.st_estimator(x, STRIDED_LAM),
    lambda x: spcalab.rspca(x, spcalab.PenaltySpec.hard(STRIDED_LAM)),
    lambda x: spcalab.rspca(x, spcalab.PenaltySpec.scad(0.0), lambda_grid=STRIDED_GRID),
    lambda x: spcalab.select_lambda_bic(x, np.ones(12) / 12**0.5, STRIDED_GRID),
    frobenius_sq,
    lambda x: spcalab.oracle_estimator(x, range(5)),
], ids=["dual_first_component", "pca_first", "st_estimator", "rspca", "rspca-grid",
        "select_lambda_bic", "frobenius_sq", "oracle_estimator"])
def test_a_strided_data_matrix_gives_the_bytes_of_its_contiguous_copy(call):
    view = STRIDED_BASE[:, ::2]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    assert pickle.dumps(call(view)) == pickle.dumps(call(np.ascontiguousarray(view)))


def test_a_strided_data_matrix_gives_the_dual_of_its_contiguous_copy_on_two_blas_threads():
    # The Gram product of a strided X can differ from its transpose in the last bits there.
    code = ("import pickle, numpy as np, spcalab\n"
            "view = np.random.default_rng(0).standard_normal((2000, 120))[:, ::2]\n"
            "a, b = (pickle.dumps(spcalab.dual_first_component(x))\n"
            "        for x in (view, np.ascontiguousarray(view)))\n"
            "print(a == b)\n")
    assert _run_python(code, OPENBLAS_NUM_THREADS="2") == "True\n"


def test_every_config_field_has_a_wrong_typed_row():
    assert {name for name, _, _ in WRONG_TYPES} == {f.name for f in fields(spcalab.ExperimentConfig)}


_ERRORS = ("ConfigError", "DegenerateInputError", "DimensionError", "DomainError", "NumericError",
           "SpcaLabError", "WorkerError")
_RECORDS = ("BicValue", "CounterexampleResult", "DualComponent", "ExperimentResult",
            "LambdaBounds", "LambdaSelection", "MetricRow", "ReplicationRecord", "RspcaIteration",
            "RspcaTrace", "SummaryRow")

#: The exports with no row in ``BAD_INPUT``, each with the reason.
NO_ROW = {
    **dict.fromkeys(_ERRORS, "an exception type"),
    **dict.fromkeys(_RECORDS, "a record type, built from values the package has checked"),
    "PAPER_PAIRS": "a constant",
    "run_experiment": "its one parameter is an ExperimentConfig, which checks itself when built",
}


def test_every_export_has_a_bad_input_row_or_a_reason_for_none():
    functions = {row.values[0] for row in BAD_INPUT}
    assert set(NO_ROW) <= set(spcalab.__all__)
    assert [name for name in NO_ROW if getattr(spcalab, name) in functions] == []
    assert [name for name in spcalab.__all__
            if name not in NO_ROW and getattr(spcalab, name) not in functions] == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 2


def _run_python(code, *args, **env):
    """Standard output of ``python -c code args`` in a fresh interpreter on this checkout,
    with the environment variables ``env`` set."""
    src = str(Path(spcalab.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_lazy_numpy_modules_unloaded():
    # numpy loads these on first use, at several ms each; the CLI's startup
    # must not pay for them before a study needs them.
    lazy = ("numpy.random", "numpy.ma", "multiprocessing")
    code = f"import sys, spcalab.cli; print([m for m in {lazy!r} if m in sys.modules])"
    assert _run_python(code) == "[]\n"


def test_config_import_leaves_the_study_modules_unloaded():
    # config owns every config fact and takes each rule from its owner; the
    # modules that run, draw or parse a study build on it, not under it.
    # The package's __init__ imports every module, so a bare package object
    # stands in for it and only config's own imports run.
    studies = ("spcalab.experiment", "spcalab.figures", "spcalab.cli")
    code = ("import sys, types\n"
            "pkg = types.ModuleType('spcalab')\n"
            "pkg.__path__ = [sys.argv[1]]\n"
            "sys.modules['spcalab'] = pkg\n"
            "import spcalab.config\n"
            f"print([m for m in {studies!r} if m in sys.modules])\n")
    assert _run_python(code, str(Path(spcalab.__file__).parent)) == "[]\n"


#: The input rules no one module owns, each defined in ``exceptions`` alone.
GENERIC_RULES = {"_check_integers", "_check_real", "_check_finite", "_array", "_data_matrix", "_vector"}


def _package_imports(path: Path) -> dict[str, set[str]]:
    """The package modules ``path`` imports from, each with the names it takes from it.

    ``from . import theory`` takes the module whole, which counts as no name.
    """
    taken: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {alias.name for alias in node.names}
            if node.module:
                taken.setdefault(node.module, set()).update(names)
            else:
                taken.update({module: taken.get(module, set()) for module in names})
    return taken


def test_generic_rules_are_defined_and_imported_from_exceptions_alone():
    for path in sorted(Path(spcalab.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
        assert defined & GENERIC_RULES == (GENERIC_RULES if path.stem == "exceptions" else set()), path
        # Neither ``from .theory import _check_real`` nor ``theory._check_real(...)``.
        assert not {node.attr for node in nodes if isinstance(node, ast.Attribute)} & GENERIC_RULES, path
        for module, names in _package_imports(path).items():
            assert module == "exceptions" or not names & GENERIC_RULES, (path, module)


def test_no_module_of_the_package_calls_build_eigensystem():
    # It is kept for perfbench's checks alone, so it can go together with their call.
    for path in sorted(Path(spcalab.__file__).parent.glob("*.py")):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call)}
        assert "build_eigensystem" not in called, path


def test_theory_imports_nothing_of_the_package_but_exceptions():
    # theory states the paper's range and law; the generic rules it applies are exceptions'.
    assert set(_package_imports(Path(spcalab.__file__).parent / "theory.py")) == {"exceptions"}


def test_forked_study_leaves_multiprocessing_unloaded(tmp_path):
    # --threads forks its workers directly; the pool module would cost every
    # such study its import.
    code = ("import sys, spcalab.cli\n"
            "code = spcalab.cli.main(sys.argv[1:])\n"
            "print(code, 'multiprocessing' in sys.modules)\n")
    out = _run_python(code, "phase", "--pairs", "0.6:0.1,0.2:0.7", "--d", "100", "--n", "6",
                      "--reps", "2", "--lambda-points", "4", "--threads", "2",
                      "--out", str(tmp_path / "out"))
    assert out == "0 False\n"
    assert (tmp_path / "out" / "summary.csv").is_file()


@pytest.mark.parametrize("argv", [("phase", "--threads", "2"), ("bic", "--method", "rspca,oracle")],
                         ids=["phase", "bic-oracle"])
def test_gaussian_study_leaves_numpy_ma_unloaded(tmp_path, argv):
    # np.percentile, np.median and np.unique import numpy.ma on first use, at
    # 12-15 ms per study; the summary and the oracle must not call them.
    code = ("import sys, spcalab.cli\n"
            "code = spcalab.cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    out = _run_python(code, *argv, "--pairs", "0.6:0.1,0.2:0.7", "--d", "100", "--n", "6",
                      "--reps", "3", "--lambda-points", "4", "--out", str(tmp_path / "out"))
    assert out == "0 False\n"
    assert (tmp_path / "out" / "summary.csv").read_text().count("\n") > 1


def test_counterexample_study_leaves_numpy_random_unloaded(tmp_path):
    # The scorer computes Philox words itself; importing numpy.random costs
    # a study 12-19 ms.
    code = ("import sys, spcalab.cli\n"
            "code = spcalab.cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.random' in sys.modules)\n")
    out = _run_python(code, "counterexample", "--d-grid", "5,50", "--reps", "300",
                      "--out", str(tmp_path / "out"))
    assert out == "0 False\n"
    assert (tmp_path / "out" / "counterexample.csv").read_text().count("\n") == 3


def test_forked_study_leaves_numpy_random_unloaded_in_its_parent(tmp_path):
    # Worker 0 imports numpy.random once and then forks the other workers;
    # the parent never needs it, and holding it would raise the study's peak
    # resident set by about 5.5%.
    code = ("import sys, spcalab.cli\n"
            "code = spcalab.cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.random' in sys.modules)\n")
    out = _run_python(code, "phase", "--pairs", "0.6:0.1,0.2:0.7", "--d", "100", "--n", "6",
                      "--reps", "2", "--lambda-points", "4", "--threads", "2",
                      "--out", str(tmp_path / "out"))
    assert out == "0 False\n"
    assert (tmp_path / "out" / "summary.csv").is_file()


#: Call sites perfbench still traces under names the package no longer has;
#: bringing the benchmark up to date (ROADMAP item 1) drops or renames them.
STALE_TRACED_SITES = {
    ("experiment", "sample_counterexample"),
    ("eigen", "jacobi_eigh"),
    ("metrics", "threshold"),
    ("estimators", "select_lambda_bic"),
}


def test_names_the_benchmark_reads_are_kept(tmp_path):
    # perfbench builds samples and counts per-layer work through these; a trim
    # that drops one would otherwise surface only as a crash in a traced run.
    from spcalab.estimators import rspca
    from spcalab.experiment import ReplicationRecord, emit_csv
    from spcalab.metrics import default_lambda_grid, select_lambda_bic
    from spcalab.model import SpikedSpec, build_eigensystem, sample_gaussian
    from spcalab.penalties import PenaltySpec

    spiked = SpikedSpec(200, 6, 0.6, 0.3)
    seed = np.random.SeedSequence(1, spawn_key=(0, 0))
    x = sample_gaussian(build_eigensystem(spiked), seed).x
    assert isinstance(x, np.ndarray) and x.shape == (200, 6)
    assert x.tobytes() == sample_gaussian(spiked, seed).x.tobytes()
    dual = spcalab.dual_first_component(x)
    grid = default_lambda_grid(dual.u_tilde, points=7)
    assert len(select_lambda_bic(x, dual.v1, grid).values) == grid.size == 8
    trace = rspca(x, PenaltySpec.hard(0.0), lambda_grid=grid)[1]
    assert trace.n_iterations >= 1
    assert isinstance(trace.zero_terminated, bool)
    record = ReplicationRecord(alpha=0.6, beta=0.3, method="pca", rep=0, lam=0.0,
                               angle_deg=1.0, type1=0.0, type2=0.0, df=6, final=True)
    path = tmp_path / "replications.csv"
    assert emit_csv([record], path) == path and path.is_file()

    # perfbench wraps each traced (module, attribute) call site; one that no
    # longer resolves zeroes its layer's per-layer metrics without an error.
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", README.parent / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    sites = {site for _, call_sites, _ in layers.TRACED for site in call_sites}
    stale = {(module, name) for module, name in sites
             if not hasattr(importlib.import_module(f"spcalab.{module}"), name)}
    assert stale == STALE_TRACED_SITES

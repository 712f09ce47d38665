"""The package's public surface: ``spcalab.__all__`` and the README example."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import spcalab

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
    ])
    def test_removed_names_are_gone(self, module, name):
        # Estimates are plain arrays; the rate fit and the scalar threshold
        # are test references in tests/_oracles.py; run_and_emit writes the
        # figures itself.  The threshold range and the counterexample law
        # live in theory, and the package exports theory's objects.  Every
        # config fact lives in config.  numpy seeds Philox from a checked seed
        # directly, and run_counterexample checks its own arguments.
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


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 2


def _run_python(code, *args):
    """Standard output of ``python -c code args`` in a fresh interpreter on this checkout."""
    src = str(Path(spcalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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

    system = build_eigensystem(SpikedSpec(200, 6, 0.6, 0.3))
    x = sample_gaussian(system, np.random.SeedSequence(1, spawn_key=(0, 0))).x
    assert isinstance(x, np.ndarray) and x.shape == (200, 6)
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

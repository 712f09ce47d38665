"""CLI behaviour: subcommands, flag/file precedence, exit codes."""

import argparse
import os
import re
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import spcalab
from spcalab import NumericError, config, experiment
from spcalab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, STUDIES, build_parser, main, study_config
from spcalab.config import CONFIG_KEYS
from _oracles import rspca_reference

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*argv):
    return main(list(argv))


def subprocess_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's spcalab."""
    src = str(Path(spcalab.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class CliError(NamedTuple):
    """One way the CLI fails: its argv, exit code and a fragment of its stderr.

    ``argv`` is split on whitespace; ``{out}`` is a fresh directory path and
    ``{file}`` a file path, which holds ``file`` when that is given, and may
    appear in ``message`` too.  ``patch(monkeypatch)`` runs before the CLI.
    ``absent`` is what the run must not leave under ``{out}``: the directory
    itself, unless a study fails after it wrote ``config.resolved``.
    """

    id: str
    argv: str
    code: int
    message: str
    file: bytes | None = None
    patch: Callable | None = None
    absent: str = "."


def _raise(target, error):
    """A patch under which the callable at dotted path ``target`` raises ``error``."""
    def patch(monkeypatch):
        def fail(*args):
            raise error
        monkeypatch.setattr(target, fail)
    return patch


def _fail_in_worker(error):
    """A patch under which each forked worker's replication raises ``error``, or is
    killed by SIGKILL when ``error`` is None."""
    def patch(monkeypatch):
        parent, real = os.getpid(), experiment._run_replication
        def patched(*task):
            if os.getpid() != parent:
                if error is None:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise error
            return real(*task)
        monkeypatch.setattr(experiment, "_run_replication", patched)
    return patch


BIC = "bic --alpha 0.6 --beta 0.1 --d 50 --n 4"
PHASE = "phase --pairs 0.6:0.1,0.2:0.7 --d 100 --n 6 --reps 2 --lambda-points 4 --threads 2"
# Only PenaltySpec states the families, so the flag and the file print this same line.
LASSO = "spcalab: config error: unknown penalty family 'lasso'; expected one of ('soft', 'hard', 'scad')\n"

#: Every error case of the CLI; each config-error example of the README is one of its rows.
CLI_ERRORS = [
    CliError("missing_out", BIC, EXIT_CONFIG, "output_dir is required"),
    CliError("bad_pair", "bic --alpha 2.5 --beta 0.1 --d 50 --n 4 --out {out}", EXIT_CONFIG,
             "alpha must lie in [0, 1.5], got 2.5"),
    CliError("unknown_config_key", "bic --config {file} --out {out}", EXIT_CONFIG,
             "{file}:1: unknown key 'banana'", file=b"banana=1\n"),
    *(CliError(f"bic_{id}", f"{BIC} --reps 1 --method pca,st --penalty scad {flags} --out {{out}}",
               EXIT_CONFIG, message)
      for id, flags, message in [
          ("scad_a", "--scad-a 1.5", "SCAD shape a must be > 2, got 1.5"),
          ("max_iter", "--max-iter 0", "max_iter must be >= 1, got 0"),
          ("delta", "--delta 0.3", "delta must be > 1/2, got 0.3"),
          ("d", "--d 1", "d must be >= 2, got 1"),
          ("seed", "--seed -1", "seed must be >= 0, got -1"),
          ("n", "--n 0", "n must be >= 1, got 0"),
          ("d_overflows_a_float", "--d 1" + "0" * 400, "int too large to convert to float"),
      ]),
    # alpha <= beta admits no gamma, so the pair has no threshold range to compute.
    *(CliError(f"no_range_{id}", "bic --alpha 0.2 --beta 0.7 --n 4 --reps 1 --method pca "
               f"{flags} --out {{out}}", EXIT_CONFIG, message)
      for id, flags, message in [("d", "--d 1", "d must be >= 2, got 1"),
                                 ("delta", "--delta 0.3", "delta must be > 1/2, got 0.3")]),
    # "--key=-inf" keeps argparse from reading the value as a flag.
    *(CliError(f"{key}={value}", "sweep --pairs 0.6:0.1 --d 200 --n 6 --reps 1 --lambda-points 4 "
               f"--penalty scad --{key.replace('_', '-')}={value} --out {{out}}",
               EXIT_CONFIG, f"{key} must be finite, got {float(value)}")
      for key in ["lambda_min", "lambda_max", "delta", "gamma", "scad_a"]
      for value in ["nan", "inf", "-inf"]),
    *(CliError(id, f"sweep --pairs {pairs} --d 200 --n 4 --reps 1 --out {{out}}", EXIT_CONFIG,
               "share the label 0.6:0.1")
      for id, pairs in [("same_pair", "0.6:0.1,0.6:0.1"), ("same_label", "0.6:0.1,0.60000001:0.1")]),
    CliError("repeated_method", f"{BIC} --reps 2 --method pca,pca --out {{out}}", EXIT_CONFIG,
             "method 'pca' is listed twice"),
    *(CliError(f"counterexample_{id}", f"counterexample {flags} --out {{out}}", EXIT_CONFIG, message)
      for id, flags, message in [
          ("reps", "--reps 0", "reps must be >= 1"),
          ("d_grid_small", "--d-grid 1", "d must be >= 2, got 1"),
          ("d_grid_malformed", "--d-grid 50,x", "'x'"),
          ("d_grid_empty", "--d-grid ,", "need at least one dimension"),
          ("d_grid_fractional", "--d-grid 50.7", "d must be an integer, got 50.7"),
          ("d_grid_repeated", "--d-grid 50,100,50", "d=50 is listed twice"),
          ("d_grid_twice", "--d-grid 50,50", "d=50 is listed twice"),
          ("alpha", "--alpha 1.5", "alpha must lie in (0, 1), got 1.5"),
          ("seed", "--seed -1", "seed must be >= 0, got -1"),
          ("reps_past_one_word", f"--reps {2**32 + 1}", "reps must be <= 2**32, got 4294967297"),
          ("tail_ties_spike", f"--d-grid 50,4 --alpha {1.0 - 2.0**-52!r}", "does not exceed the spike"),
          ("tail_ties_spike_at_4", "--d-grid 4 --alpha 0.9999999999999998",
           "does not exceed the spike"),
      ]),
    # Only the --d-grid parse and run_counterexample's argument checks exit 2.
    CliError("counterexample_scorer_failure", "counterexample --reps 10 --out {out}", EXIT_RUNTIME,
             "spcalab: error: scorer failed",
             patch=_raise("spcalab.experiment.counterexample_hits", NumericError("scorer failed"))),
    CliError("config_missing", "bic --config {file} --out {out}", EXIT_CONFIG,
             "cannot read config file {file}"),
    CliError("config_not_utf8", "bic --config {file} --out {out}", EXIT_CONFIG,
             "cannot read config file {file}", file=b"d=50\n\xff\n"),
    CliError("malformed_flag_value", "bic --d ten --out {out}", EXIT_CONFIG,
             "invalid value for 'd': 'ten'"),
    CliError("argparse_usage", "bic --profile huge", 2, "argument --profile: invalid choice: 'huge'"),
    CliError("lasso_flag", "bic --d 50 --n 4 --penalty lasso --out {out}", EXIT_CONFIG, LASSO),
    CliError("lasso_file", "bic --d 50 --n 4 --config {file} --out {out}", EXIT_CONFIG, LASSO,
             file=b"penalty=lasso\n"),
    CliError("pairs_and_alpha_beta_flags",
             "bic --pairs 0.6:0.1,0.2:0.7 --alpha 0.4 --beta 0.3 --d 80 --n 5 --reps 1 --method pca "
             "--out {out}", EXIT_CONFIG, "give pairs or alpha and beta, not both"),
    CliError("pairs_and_alpha_beta_file", "bic --config {file} --d 80 --n 5 --reps 1 --method pca "
             "--out {out}", EXIT_CONFIG, "give pairs or alpha and beta, not both",
             file=b"pairs=0.6:0.1,0.2:0.7\nalpha=0.4\nbeta=0.3\n"),
    CliError("threads_without_fork", f"{PHASE} --out {{out}}", EXIT_CONFIG,
             "threads > 1 needs os.fork", patch=lambda monkeypatch: monkeypatch.delattr(os, "fork")),
    CliError("unwritable_out", f"{BIC} --reps 1 --method pca --out {{file}}", EXIT_RUNTIME,
             "File exists: '{file}'", file=b"not a directory"),
    CliError("eigensolver_failure", f"{BIC} --reps 1 --method pca,st --out {{out}}", EXIT_RUNTIME,
             "eigensolve failed", absent="replications.csv",
             patch=_raise("spcalab.eigen.np.linalg.eigh",
                          np.linalg.LinAlgError("Eigenvalues did not converge"))),
    CliError("worker_exception", f"{PHASE} --out {{out}}", EXIT_RUNTIME,
             "spcalab: error: replication failed in a worker", absent="replications.csv",
             patch=_fail_in_worker(NumericError("replication failed in a worker"))),
    CliError("worker_sigkill", f"{PHASE} --out {{out}}", EXIT_RUNTIME,
             "spcalab: error: worker 0 of 2 was killed by signal", absent="replications.csv",
             patch=_fail_in_worker(None)),
]

#: How ``main`` starts the one line that reports an error, by exit code.
PREFIX = {EXIT_CONFIG: "spcalab: config error: ", EXIT_RUNTIME: "spcalab: error: "}


class TestExitCodes:
    @pytest.mark.parametrize("case", CLI_ERRORS, ids=lambda case: case.id)
    def test_cli_error(self, tmp_path, monkeypatch, capsys, case):
        out, file = tmp_path / "out", tmp_path / "file"
        if case.file is not None:
            file.write_bytes(case.file)
        if case.patch is not None:
            case.patch(monkeypatch)
        try:
            code = run_cli(*(arg.format(out=out, file=file) for arg in case.argv.split()))
        except SystemExit as exc:  # argparse rejects the argv and prints its usage first
            code = exc.code
        err = capsys.readouterr().err
        assert code == case.code
        assert case.message.format(file=file) in err
        if not err.startswith("usage:"):
            # main's own report is one line, so a fragment that is a whole line is all of stderr.
            assert err.startswith(PREFIX[code]) and err.count("\n") == 1
        assert not (out / case.absent).exists()
        with pytest.raises(ChildProcessError):  # no forked worker outlives the run
            os.waitpid(-1, os.WNOHANG)

    def test_readme_config_errors_are_rows(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
        examples = [" ".join(e.split()) for e in re.findall(r"`(--[a-z-]+ [^`]+)`", paragraph)]
        rows = [f" {' '.join(c.argv.split())} " for c in CLI_ERRORS if c.code == EXIT_CONFIG]
        assert len(examples) >= 18
        assert [e for e in examples if not any(f" {e} " in row for row in rows)] == []

    def test_one_thread_runs_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert run_cli(*PHASE.replace("--threads 2", "--threads 1").split(),
                       "--out", str(tmp_path / "out")) == EXIT_OK

    def test_bic_small_run(self, tmp_path):
        code = run_cli(
            "bic",
            "--alpha", "0.6", "--beta", "0.1",
            "--d", "100", "--n", "6", "--reps", "2",
            "--method", "pca,st",
            "--lambda-points", "5",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        assert (tmp_path / "out" / "replications.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "config.resolved").exists()

    def test_bic_without_figure_methods_writes_csvs_only(self, tmp_path):
        code = run_cli(
            "bic",
            "--alpha", "0.6", "--beta", "0.1",
            "--d", "100", "--n", "6", "--reps", "2",
            "--method", "pca,oracle",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        assert (tmp_path / "out" / "replications.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert not (tmp_path / "out" / "phase.svg").exists()

    def test_help_names_every_penalty_family(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("bic", "--help")
        assert "soft,hard,scad" in capsys.readouterr().out


class TestSweepCommand:
    def test_writes_sweep_figures(self, tmp_path):
        code = run_cli(
            "sweep",
            "--alpha", "0.6", "--beta", "0.1",
            "--d", "120", "--n", "6", "--reps", "2",
            "--method", "st",
            "--lambda-points", "4",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        out = tmp_path / "out"
        assert (out / "sweep_a0.6_b0.1.svg").exists()
        assert (out / "phase.svg").exists()
        header, *rows = (out / "replications.csv").read_text().splitlines()
        # 2 reps x (5 sweep rows + 1 BIC row)
        assert len(rows) == 12

    def test_rerun_into_the_same_out_gives_the_same_bytes(self, tmp_path):
        out = tmp_path / "out"
        argv = ("sweep", "--alpha", "0.6", "--beta", "0.1", "--d", "120", "--n", "6",
                "--reps", "2", "--method", "st,rspca", "--lambda-points", "4", "--out", str(out))
        outputs = []
        for _ in range(2):
            assert run_cli(*argv) == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert sorted(outputs[0]) == [
            "config.resolved", "phase.svg", "replications.csv", "summary.csv",
            "sweep_a0.6_b0.1.svg",
        ]
        assert outputs[0] == outputs[1]

    def test_flag_overrides_config_pairs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("pairs=0.4:0.3,0.8:0.5\n")
        code = run_cli(
            "sweep",
            "--config", str(cfg),
            "--alpha", "0.6", "--beta", "0.1",
            "--d", "80", "--n", "5", "--reps", "1",
            "--method", "st", "--lambda-points", "3",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        resolved = (tmp_path / "out" / "config.resolved").read_text()
        assert "pairs=0.6:0.1\n" in resolved

    def test_without_bic_writes_sweeps_only(self, tmp_path):
        code = run_cli(
            "sweep",
            "--alpha", "0.6", "--beta", "0.1",
            "--d", "120", "--n", "6", "--reps", "2",
            "--method", "st", "--no-bic",
            "--lambda-points", "4",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        out = tmp_path / "out"
        assert "bic=false\n" in (out / "config.resolved").read_text()
        header, *rows = (out / "replications.csv").read_text().splitlines()
        assert len(rows) == 10  # 2 reps x 5 sweep rows
        svg = (out / "sweep_a0.6_b0.1.svg").read_text()
        assert 'class="rep"' in svg and 'class="bic"' not in svg
        assert not (out / "summary.csv").exists()
        assert not (out / "phase.svg").exists()

    def test_rspca_reference_writes_the_same_bytes(self, tmp_path, monkeypatch):
        argv = ["sweep", "--profile", "desk", "--reps", "1", "--pairs", "0.6:0.1,0.2:0.7",
                "--method", "st,rspca"]
        assert run_cli(*argv, "--out", str(tmp_path / "fast")) == EXIT_OK
        monkeypatch.setattr("spcalab.experiment.rspca", rspca_reference)
        assert run_cli(*argv, "--out", str(tmp_path / "reference")) == EXIT_OK
        fast, reference = tmp_path / "fast", tmp_path / "reference"
        names = sorted(p.name for p in fast.iterdir() if p.suffix in (".csv", ".svg"))
        assert len(names) == 5  # two CSVs, two sweep figures, the phase diagram
        for name in names:
            assert (fast / name).read_bytes() == (reference / name).read_bytes()

    def test_pairs_flag_overrides_config_alpha_beta(self, tmp_path):
        cfg = tmp_path / "g.txt"
        cfg.write_text("alpha=0.6\nbeta=0.1\n")
        code = run_cli(
            "bic",
            "--config", str(cfg),
            "--pairs", "0.2:0.7",
            "--d", "80", "--n", "5", "--reps", "1", "--method", "pca",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        resolved = (tmp_path / "out" / "config.resolved").read_text()
        assert "pairs=0.2:0.7\n" in resolved


class TestPhaseCommand:
    def test_small_grid(self, tmp_path):
        code = run_cli(
            "phase",
            "--pairs", "0.6:0.1,0.2:0.7",
            "--d", "100", "--n", "6", "--reps", "2",
            "--lambda-points", "4",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        assert (tmp_path / "out" / "phase.svg").exists()
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + 2 pairs (rspca only)

    def test_alpha_above_one_is_drawn_inside_the_panel(self, tmp_path):
        code = run_cli("phase", "--pairs", "1.2:0.5,0.6:0.1", "--d", "200", "--n", "5",
                       "--reps", "2", "--lambda-points", "4", "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        root = ET.parse(tmp_path / "out" / "phase.svg").getroot()
        frame = root.find(f"{SVG_NS}g/{SVG_NS}rect")
        left = float(frame.get("x"))
        right = left + float(frame.get("width"))
        cxs = [float(c.get("cx")) for c in root.iter(f"{SVG_NS}circle") if c.get("class") == "pair"]
        assert sorted(cxs) == [left + 0.5 * (right - left), right]

    def test_config_file_sets_pairs_and_methods(self, tmp_path):
        cfg = tmp_path / "f.txt"
        cfg.write_text("pairs=0.6:0.1\nmethods=pca\nd=60\nn=4\nreplications=1\n")
        code = run_cli("phase", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        resolved = (tmp_path / "out" / "config.resolved").read_text()
        assert "pairs=0.6:0.1\n" in resolved and "methods=pca\n" in resolved
        header, *rows = (tmp_path / "out" / "replications.csv").read_text().splitlines()
        assert [r.split(",")[:3] for r in rows] == [["0.6", "0.1", "pca"]]


class TestBlasThreads:
    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # At d=5000, beta=0.7 the head block has m=388 rows: a BLAS product
        # of that size runs threaded and rounds differently at 2 threads.
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "spcalab.cli", "bic", "--alpha", "0.2", "--beta", "0.7",
                 "--d", "5000", "--reps", "2", "--method", "pca,oracle", "--out", str(out)],
                env=env, check=True,
            )
            outputs.append([(out / f).read_bytes() for f in ("replications.csv", "summary.csv")])
        assert outputs[0] == outputs[1]


class TestFrozenHeap:
    """``main`` freezes the heap it starts from; these run it as a study does, in a fresh process."""

    def test_forked_pool_gives_the_same_bytes_as_one_worker(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "spcalab.cli", "phase", "--pairs", "0.6:0.1,0.2:0.7",
                 "--d", "100", "--n", "6", "--reps", "2", "--lambda-points", "4",
                 "--threads", threads, "--out", str(out)],
                env=subprocess_env(), check=True,
            )
            outputs.append([(out / f).read_bytes()
                            for f in ("replications.csv", "summary.csv", "phase.svg")])
        assert outputs[0] == outputs[1]

    def test_main_freezes_the_heap(self, tmp_path):
        code = (
            "import gc, sys, spcalab.cli\n"
            "before = gc.get_freeze_count()\n"
            "code = spcalab.cli.main(sys.argv[1:])\n"
            "print(code, before, gc.get_freeze_count() > 0)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "counterexample", "--d-grid", "30", "--reps", "20",
             "--out", str(tmp_path / "out")],
            env=subprocess_env(), check=True, capture_output=True, text=True,
        )
        assert result.stdout == "0 0 True\n"


class TestCounterexampleCommand:
    def test_small_run(self, tmp_path):
        code = run_cli(
            "counterexample",
            "--d-grid", "30,60",
            "--alpha", "0.5",
            "--reps", "200",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        assert (tmp_path / "out" / "counterexample.csv").exists()
        assert (tmp_path / "out" / "counterexample.svg").exists()


#: One non-default value per config key, as written in a config file.
KEY_VALUES = [
    {"pairs": "0.4:0.3,0.8:0.5"},
    {"alpha": "0.4", "beta": "0.3"},
    {"d": "300"},
    {"n": "9"},
    {"replications": "4"},
    {"methods": "pca,oracle"},
    {"penalty": "scad"},
    {"scad_a": "3.1"},
    {"lambda_min": "0.01"},
    {"lambda_max": "20"},
    {"lambda_points": "7"},
    {"bic": "false"},
    {"seed": "5"},
    {"out": "somewhere"},
    {"profile": "desk"},
    {"threads": "2"},
    {"timing": "true"},
    {"max_iter": "40"},
    {"delta": "0.9"},
    {"gamma": "0.3"},
]


def _as_flags(values):
    keys = {k.name: k for k in CONFIG_KEYS}
    argv = []
    for name, value in values.items():
        key = keys[name]
        if key.is_bool:
            argv.append(key.flag if value == "true" else "--no-" + key.flag[2:])
        else:
            argv += [key.flag, value]
    return argv


def _per_command_parser():
    """The study subcommands as they were built before sharing one parent parser."""
    parser = argparse.ArgumentParser(prog="spcalab")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in STUDIES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, help="key=value config file")
        for key in CONFIG_KEYS:
            kind = {"action": argparse.BooleanOptionalAction} if key.is_bool else {"choices": key.choices}
            p.add_argument(key.flag, dest=key.name, help=key.help, **kind)
    return parser


def _help(parser, command, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestConfigSchema:
    @pytest.mark.parametrize("command", list(STUDIES))
    def test_help_is_unchanged_by_the_shared_parent_parser(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = _help(build_parser(), command, capsys)
        assert text == _help(_per_command_parser(), command, capsys)
        assert text.startswith(f"usage: spcalab {command} [-h] [--config CONFIG] [--pairs PAIRS]")
        assert all(key.flag in text for key in CONFIG_KEYS)

    def test_every_key_has_a_sample_value(self):
        assert sorted(k for v in KEY_VALUES for k in v) == sorted(k.name for k in CONFIG_KEYS)

    @pytest.mark.parametrize("values", KEY_VALUES, ids=lambda v: "+".join(v))
    def test_flag_and_file_give_the_same_config(self, tmp_path, values):
        cfg = tmp_path / "f.txt"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        parser = build_parser()
        from_file = study_config(parser.parse_args(["sweep", "--config", str(cfg)]))
        from_flags = study_config(parser.parse_args(["sweep", *_as_flags(values)]))
        assert from_flags == from_file
        assert from_file != study_config(parser.parse_args(["sweep"]))
        # config.resolved reads back into the config it echoes.
        echo = config.write_resolved_config(from_file, tmp_path / "config.resolved")
        assert study_config(parser.parse_args(["sweep", "--config", str(echo)])) == from_file

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Config keys:", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"`([a-z_]+)`", paragraph) == [k.name for k in CONFIG_KEYS]

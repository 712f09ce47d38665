"""CLI behaviour: subcommands, flag/file precedence, exit codes."""

import argparse
import os
import re
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

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


class TestExitCodes:
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

    def test_missing_out_is_config_error(self):
        assert run_cli("bic", "--alpha", "0.6", "--beta", "0.1", "--d", "50", "--n", "4") == EXIT_CONFIG

    def test_bad_pair_is_config_error(self, tmp_path):
        code = run_cli(
            "bic", "--alpha", "2.5", "--beta", "0.1",
            "--d", "50", "--n", "4", "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("banana=1\n")
        assert run_cli("bic", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--scad-a", "1.5", "SCAD shape a must be > 2, got 1.5"),
            ("--max-iter", "0", "max_iter must be >= 1, got 0"),
            ("--delta", "0.3", "delta must be > 1/2, got 0.3"),
            ("--d", "1", "d must be >= 2, got 1"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--n", "0", "n must be >= 1, got 0"),
            ("--d", "1" + "0" * 400, "int too large to convert to float"),
        ],
        ids=["scad_a", "max_iter", "delta", "d", "seed", "n", "d_overflows_a_float"],
    )
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, flag, value, message):
        code = run_cli(
            "bic", "--alpha", "0.6", "--beta", "0.1",
            "--d", "50", "--n", "4", "--reps", "1", "--method", "pca,st",
            "--penalty", "scad", flag, value, "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--d", "1", "d must be >= 2, got 1"), ("--delta", "0.3", "delta must be > 1/2, got 0.3")],
        ids=["d", "delta"],
    )
    def test_range_rules_hold_when_no_pair_has_a_range(self, tmp_path, capsys, flag, value, message):
        # alpha <= beta admits no gamma, so the pair has no threshold range to compute.
        code = run_cli(
            "bic", "--alpha", "0.2", "--beta", "0.7", "--n", "4", "--reps", "1",
            "--method", "pca", flag, value, "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["lambda_min", "lambda_max", "delta", "gamma", "scad_a"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, value):
        # "--key=-inf" keeps argparse from reading the value as a flag.
        flag = "--" + key.replace("_", "-")
        code = run_cli(
            "sweep", "--pairs", "0.6:0.1", "--d", "200", "--n", "6", "--reps", "1",
            "--lambda-points", "4", "--penalty", "scad", f"{flag}={value}",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert f"{key} must be finite, got {float(value)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "pairs", ["0.6:0.1,0.6:0.1", "0.6:0.1,0.60000001:0.1"], ids=["exact", "same_label"]
    )
    def test_pairs_that_share_a_label_are_config_error(self, tmp_path, capsys, pairs):
        code = run_cli(
            "sweep", "--pairs", pairs, "--d", "200", "--n", "4", "--reps", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert "share the label 0.6:0.1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_method_is_config_error(self, tmp_path, capsys):
        code = run_cli(
            "bic", "--alpha", "0.6", "--beta", "0.1", "--d", "50", "--n", "4", "--reps", "2",
            "--method", "pca,pca", "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert "method 'pca' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--reps", "0", "reps must be >= 1"),
            ("--d-grid", "1", "d must be >= 2, got 1"),
            ("--d-grid", "50,x", "'x'"),
            ("--alpha", "1.5", "alpha must lie in (0, 1), got 1.5"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--reps", str(2**32 + 1), "reps must be <= 2**32, got 4294967297"),
            ("--d-grid", "50,100,50", "d=50 is listed twice"),
        ],
        ids=["reps", "d_grid_small", "d_grid_malformed", "alpha", "seed", "reps_past_one_word",
             "d_grid_repeated"],
    )
    def test_counterexample_bad_value_is_config_error(self, tmp_path, capsys, flag, value, message):
        code = run_cli("counterexample", flag, value, "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_counterexample_tail_that_cannot_beat_the_spike_is_config_error(self, tmp_path, capsys):
        code = run_cli("counterexample", "--d-grid", "50,4", "--alpha", repr(1.0 - 2.0**-52),
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert "does not exceed the spike" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_counterexample_error_after_the_checks_is_runtime_error(self, tmp_path, capsys,
                                                                     monkeypatch):
        # Only the --d-grid parse and run_counterexample's argument checks exit 2.
        def fail(*args):
            raise NumericError("scorer failed")

        monkeypatch.setattr(experiment, "counterexample_hits", fail)
        code = run_cli("counterexample", "--reps", "10", "--out", str(tmp_path / "out"))
        assert code == EXIT_RUNTIME
        assert "spcalab: error: scorer failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, b"d=50\n\xff\n"], ids=["missing", "not_utf8"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "study.cfg"
        if content is not None:
            path.write_bytes(content)
        code = run_cli("bic", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert f"cannot read config file {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_flag_value_is_config_error(self, tmp_path, capsys):
        code = run_cli("bic", "--d", "ten", "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert "invalid value for 'd': 'ten'" in capsys.readouterr().err

    def test_argparse_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bic", "--profile", "huge")
        assert exc.value.code == 2

    def test_unknown_penalty_reads_the_same_from_flag_and_file(self, tmp_path, capsys):
        # Only PenaltySpec states the families, so both paths show its message.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("penalty=lasso\n")
        errors = []
        for source in (["--penalty", "lasso"], ["--config", str(cfg)]):
            code = run_cli("bic", "--d", "50", "--n", "4", *source, "--out", str(tmp_path / "out"))
            assert code == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "spcalab: config error: unknown penalty family 'lasso'; "
            "expected one of ('soft', 'hard', 'scad')\n")
        assert not (tmp_path / "out").exists()

    def test_help_names_every_penalty_family(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("bic", "--help")
        assert "soft,hard,scad" in capsys.readouterr().out

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        from spcalab.cli import EXIT_RUNTIME

        code = run_cli(
            "bic", "--alpha", "0.6", "--beta", "0.1",
            "--d", "50", "--n", "4", "--reps", "1",
            "--method", "pca", "--out", str(blocker),
        )
        assert code == EXIT_RUNTIME

    def test_eigensolver_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        from spcalab.cli import EXIT_RUNTIME

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("spcalab.eigen.np.linalg.eigh", fail)
        code = run_cli(
            "bic", "--alpha", "0.6", "--beta", "0.1",
            "--d", "50", "--n", "4", "--reps", "1",
            "--method", "pca,st", "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_RUNTIME
        assert "eigensolve failed" in capsys.readouterr().err


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

    def test_pairs_and_alpha_beta_flags_together_are_config_error(self, tmp_path, capsys):
        code = run_cli(
            "bic", "--pairs", "0.6:0.1,0.2:0.7", "--alpha", "0.4", "--beta", "0.3",
            "--d", "80", "--n", "5", "--reps", "1", "--method", "pca",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert "give pairs or alpha and beta, not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pairs_and_alpha_beta_in_one_file_are_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "g.txt"
        cfg.write_text("pairs=0.6:0.1,0.2:0.7\nalpha=0.4\nbeta=0.3\n")
        code = run_cli(
            "bic", "--config", str(cfg), "--d", "80", "--n", "5", "--reps", "1",
            "--method", "pca", "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_CONFIG
        assert "give pairs or alpha and beta, not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


class TestForkedWorkers:
    PHASE = ("phase", "--pairs", "0.6:0.1,0.2:0.7", "--d", "100", "--n", "6", "--reps", "2",
             "--lambda-points", "4", "--threads", "2")

    @pytest.mark.parametrize(
        "failure, message",
        [
            (NumericError("replication failed in a worker"), "replication failed in a worker"),
            (None, "worker 0 of 2 was killed by signal"),
        ],
        ids=["exception", "sigkill"],
    )
    def test_worker_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys, failure, message):
        parent = os.getpid()
        real = experiment._run_replication

        def patched(*task):
            if os.getpid() != parent:
                if failure is None:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise failure
            return real(*task)

        monkeypatch.setattr(experiment, "_run_replication", patched)
        assert run_cli(*self.PHASE, "--out", str(tmp_path / "out")) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(f"spcalab: error: {message}")
        assert not (tmp_path / "out" / "replications.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_threads_without_fork_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        assert run_cli(*self.PHASE, "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert "threads > 1 needs os.fork" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert run_cli(*self.PHASE[:-1], "1", "--out", str(tmp_path / "one")) == EXIT_OK


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

    def test_empty_grid_is_config_error(self, tmp_path):
        assert (
            run_cli("counterexample", "--d-grid", ",", "--out", str(tmp_path)) == EXIT_CONFIG
        )


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

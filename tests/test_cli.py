"""CLI behaviour: subcommands, flag/file precedence, exit codes."""

import numpy as np
import pytest

from spcalab.cli import EXIT_CONFIG, EXIT_OK, main


def run_cli(*argv):
    return main(list(argv))


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

    def test_argparse_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bic", "--penalty", "ridge")
        assert exc.value.code == 2

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

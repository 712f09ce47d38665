"""Harness tests: config resolution, runner determinism, CSV emission."""

import errno
import hashlib
import math
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from spcalab import (
    ConfigError,
    DomainError,
    ExperimentConfig,
    NumericError,
    ReplicationRecord,
    SpcaLabError,
    SpikedSpec,
    SummaryRow,
    WorkerError,
    angle_degrees,
    build_eigensystem,
    dual_first_component,
    emit_csv,
    emit_summary_csv,
    pca_first,
    run_counterexample,
    run_experiment,
    sample_gaussian,
)
from spcalab import experiment
from spcalab.cli import main
from spcalab.experiment import (
    CSV_HEADER,
    DEFAULT_SEED,
    METHODS,
    PAPER_PAIRS,
    SUMMARY_HEADER,
    parse_config_file,
    resolve_config,
    run_and_emit,
    write_resolved_config,
)
from _oracles import counterexample_hits_by_pca, summarize_reference


def small_config(**overrides):
    base = dict(
        pairs=((0.6, 0.1),),
        d=120,
        n=8,
        replications=3,
        methods=("pca", "st", "rspca", "oracle"),
        lambda_points=6,
        bic=True,
        sweep=False,
        base_seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigFile:
    def test_parse_and_resolve(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "# comment\n"
            "pairs=0.6:0.1,0.2:0.7\n"
            "d=300\n"
            "n=9\n"
            "replications=4\n"
            "methods=pca,rspca\n"
            "bic=true\n"
            "seed=123\n"
            f"out={tmp_path / 'out'}\n"
        )
        cfg = resolve_config(parse_config_file(p), {})
        assert cfg.pairs == ((0.6, 0.1), (0.2, 0.7))
        assert cfg.d == 300 and cfg.n == 9 and cfg.replications == 4
        assert cfg.methods == ("pca", "rspca")
        assert cfg.base_seed == 123

    def test_defaults_match_paper_profile(self):
        cfg = resolve_config({}, {})
        assert cfg.d == 10000 and cfg.n == 25 and cfg.replications == 100

    def test_desk_profile(self):
        cfg = resolve_config({"profile": "desk"}, {})
        assert cfg.d == 2000 and cfg.replications == 50

    def test_profile_overridden_by_explicit_values(self):
        cfg = resolve_config({"profile": "desk", "d": "777"}, {})
        assert cfg.d == 777 and cfg.replications == 50

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("pairs=0.4:0.3,0.8:0.5\nd=500\n")
        cfg = resolve_config(parse_config_file(p), {"alpha": 0.6, "beta": 0.1})
        assert cfg.pairs == ((0.6, 0.1),)
        assert cfg.d == 500

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("dimension=100\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("d=100\nnot a kv line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("d=ten\n")
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config_file(p) and resolve_config(parse_config_file(p), {})

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"replications": "0"}, {}).validate()

    def test_alpha_without_beta_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({}, {"alpha": 0.6})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            small_config(methods=("pca", "svd")).validate()

    @pytest.mark.parametrize("settings", [
        dict(lambda_points=0), dict(lambda_min=0.0), dict(lambda_min=math.nan),
        dict(lambda_max=-math.inf), dict(lambda_min=1.0, lambda_max=1.0),
    ], ids=["points", "lambda_min_zero", "lambda_min_nan", "lambda_max_minus_inf",
            "lambda_max_equal"])
    def test_grid_settings_are_checked_by_the_grid_builder(self, settings):
        # The config states no grid rule of its own: it shows default_lambda_grid's message.
        grid_kwargs = {"points" if k == "lambda_points" else k: v for k, v in settings.items()}
        with pytest.raises(DomainError) as grid_error:
            experiment.default_lambda_grid(np.ones(3), **grid_kwargs)
        with pytest.raises(ConfigError) as config_error:
            small_config(**settings)
        assert str(config_error.value) == str(grid_error.value)

    @pytest.mark.parametrize("methods", [("pca", "rspca"), ("rspca",), ("st", "oracle")],
                             ids=",".join)
    def test_method_without_rows_is_rejected(self, methods):
        # st and rspca write rows only in BIC or sweep mode.  The config is
        # not built, so run_and_emit cannot write config.resolved for it.
        with pytest.raises(ConfigError, match="writes no rows with bic and sweep both off"):
            small_config(methods=methods, bic=False, sweep=False)

    def test_resolved_echo_bytes(self, tmp_path):
        cfg = small_config(output_dir=Path("out"), penalty="scad", lambda_max=20.0)
        path = write_resolved_config(cfg, tmp_path / "config.resolved")
        assert path.read_bytes() == (
            b"pairs=0.6:0.1\nd=120\nn=8\nreplications=3\nmethods=pca,st,rspca,oracle\n"
            b"penalty=scad\nscad_a=3.7\nlambda_min=0.001\nlambda_max=20.0\nlambda_points=6\n"
            b"bic=true\nseed=77\nout=out\nthreads=1\ntiming=false\n"
            b"max_iter=200\ndelta=1.0\n# sweep=false\n"
        )

    def test_resolved_echo_roundtrip(self, tmp_path):
        # Every value reads back exactly; sweep mode is the subcommand's to set.
        for overrides in (
            {},
            {"pairs": ((0.60000001, 0.1), (0.2, 0.7)), "sweep": True, "gamma": 0.3},
            {"penalty": "soft", "lambda_max": 1 / 3, "delta": 0.75, "bic": False, "timing": True,
             "methods": ("pca", "oracle")},
        ):
            cfg = small_config(output_dir=tmp_path, **overrides)
            path = write_resolved_config(cfg, tmp_path / "config.resolved")
            echoed = resolve_config(parse_config_file(path), {}, forced={"sweep": cfg.sweep})
            assert echoed == cfg

    def test_lists_are_kept_as_tuples(self, tmp_path):
        # A config built from lists is the config built from tuples: it hashes
        # and writes the same bytes.
        base = dict(d=100, n=5, replications=2, lambda_points=3, output_dir=tmp_path)
        from_lists = ExperimentConfig(pairs=[[0.6, 0.1], (0.2, 0.7)], methods=["pca", "rspca"],
                                      **base)
        from_tuples = ExperimentConfig(pairs=((0.6, 0.1), (0.2, 0.7)), methods=("pca", "rspca"),
                                       **base)
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        outputs = []
        for cfg in (from_lists, from_tuples):
            run_and_emit(cfg)
            outputs.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
        assert outputs[0] == outputs[1]


class TestRunExperiment:
    def test_record_layout_bic_mode(self):
        result = run_experiment(small_config())
        by_method = {}
        for r in result.records:
            by_method.setdefault(r.method, []).append(r)
        # one final row per method per replication, no sweep rows
        assert len(by_method["pca"]) == 3
        assert len(by_method["st"]) == 3
        assert len(by_method["rspca"]) == 3
        assert len(by_method["oracle"]) == 3
        assert all(r.final for r in result.records)
        assert all(r.lam is None for r in by_method["oracle"])
        assert all(r.lam == 0.0 for r in by_method["pca"])

    def test_sweep_row_count(self):
        cfg = small_config(methods=("st",), sweep=True, bic=True, lambda_points=6)
        result = run_experiment(cfg)
        sweep_rows = [r for r in result.records if not r.final]
        selected = [r for r in result.records if r.final]
        # grid = lambda_points + 1 (the extra 0), plus one selected row per rep
        assert len(sweep_rows) == 3 * 7
        assert len(selected) == 3
        assert len(result.records) == 3 * 7 + 3

    def test_sweep_row_count_hundred_reps(self):
        # 100 reps x 51 lambda values x 1 pair, sweep only
        cfg = small_config(
            replications=100, methods=("st",), sweep=True, bic=False, lambda_points=50
        )
        result = run_experiment(cfg)
        assert len(result.records) == 100 * 51

    def test_canonical_order(self):
        cfg = small_config(pairs=((0.6, 0.1), (0.2, 0.7)), methods=("st", "pca"))
        result = run_experiment(cfg)
        keys = [
            (r.alpha, r.beta, r.method, r.rep, -1.0 if r.lam is None else r.lam, r.final)
            for r in result.records
        ]
        assert keys == sorted(keys)

    def test_same_data_across_methods(self):
        # the pca record must match an independent recomputation from the
        # identical seeded matrix used for every other method
        cfg = small_config()
        result = run_experiment(cfg)
        spec = SpikedSpec(cfg.d, cfg.n, 0.6, 0.1)
        system = build_eigensystem(spec)
        for rep in range(cfg.replications):
            dm = sample_gaussian(system, np.random.SeedSequence(77, spawn_key=(0, rep)))
            expected = angle_degrees(pca_first(dm.x), system.u1)
            got = [
                r.angle_deg
                for r in result.records
                if r.method == "pca" and r.rep == rep
            ]
            assert got == [expected]

    def test_thread_count_does_not_change_records(self):
        cfg1 = small_config(threads=1)
        cfg2 = small_config(threads=2)
        assert run_experiment(cfg1).records == run_experiment(cfg2).records

    def test_rerun_is_identical(self):
        cfg = small_config()
        assert run_experiment(cfg).records == run_experiment(cfg).records

    def test_summary_quartiles(self):
        result = run_experiment(small_config(replications=5, methods=("pca",)))
        (row,) = result.summary
        assert row.method == "pca" and row.count == 5
        angles = sorted(
            r.angle_deg for r in result.records if r.method == "pca" and r.final
        )
        assert row.angle_median == angles[2]
        assert row.angle_q25 <= row.angle_median <= row.angle_q75

    @pytest.mark.parametrize("sweep", [False, True], ids=["no_sweep", "sweep"])
    @pytest.mark.parametrize("bic", [True, False], ids=["bic", "no_bic"])
    def test_each_method_gives_one_final_row_per_replication(self, bic, sweep):
        # The batched summary stacks each (pair, method)'s final rows as one
        # row of a (group, replication) array, so it needs exactly this.  With
        # bic and sweep both off, st and rspca are rejected (they write no rows).
        methods = METHODS if bic or sweep else ("pca", "oracle")
        cfg = small_config(pairs=((0.6, 0.1), (0.2, 0.7)), replications=2, methods=methods,
                           bic=bic, sweep=sweep)
        records = run_experiment(cfg).records
        for method in methods:
            expected = 1 if bic or method in ("pca", "oracle") else 0
            for alpha, beta in cfg.pairs:
                for rep in range(cfg.replications):
                    finals = [r for r in records if r.final and r.method == method
                              and (r.alpha, r.beta, r.rep) == (alpha, beta, rep)]
                    assert len(finals) == expected, (method, alpha, beta, rep)

    def test_summary_matches_per_group_reductions(self):
        records = run_experiment(small_config(pairs=((0.6, 0.1), (0.2, 0.7)), replications=5)).records
        rng = np.random.default_rng(5)
        # Ties and exact zeros, as Type I/II rates and small dfs have them, and
        # all-None lambdas, as the oracle has them.  Group sizes 1 to 12 meet
        # every (count - 1) % 4 of the quartile positions and both parities of
        # the median, three times each.
        synthetic = [[
            ReplicationRecord(alpha=a, beta=0.1, method=m, rep=rep,
                              lam=None if m == "oracle" else float(rng.integers(0, 4)) / 4,
                              angle_deg=float(rng.choice([0.0, 45.0, rng.random() * 90])),
                              type1=float(rng.integers(0, 3)) / 2,
                              type2=float(rng.integers(0, 5)) / 4, df=int(rng.integers(0, 6)), final=True)
            for a in (0.4, 0.8) for m in ("oracle", "st") for rep in range(count)
        ] for count in (*range(1, 13), 50)]
        for batch in (records, *synthetic):
            assert experiment._summarize(batch) == summarize_reference(batch)
        assert experiment._summarize([r for r in records if not r.final]) == []

    def test_bic_selected_lambdas_cluster(self):
        # (0.6, 0.1) at desk scale: the per-replication BIC choices land
        # in a narrow band (well under one decade IQR on the plot axis).
        cfg = small_config(
            d=2000, n=25, replications=20, methods=("st",), lambda_points=50
        )
        result = run_experiment(cfg)
        lams = np.array([r.lam for r in result.records if r.final])
        q25, q75 = np.percentile(np.log10(lams + 1e-5), [25, 75])
        assert q75 - q25 < 1.0


    def test_every_traced_call_site_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # perfbench traces the studies by patching these names on the
        # experiment module, so neither a runner nor run_and_emit may hold
        # its own reference.
        calls = {}

        def counting(name):
            fn = getattr(experiment, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        names = ("sample_gaussian", "dual_first_component", "pca_first", "st_estimator",
                 "rspca", "oracle_estimator", "select_lambda_bic", "evaluate_estimate",
                 "emit_csv", "emit_summary_csv", "sweep_figure", "phase_figure")
        for name in names:
            calls[name] = 0
            monkeypatch.setattr(experiment, name, counting(name))
        cfg = small_config(pairs=((0.6, 0.1), (0.2, 0.7)), replications=2, sweep=True,
                           output_dir=tmp_path)
        result = run_and_emit(cfg)
        draws, fits = 2 * 2, cfg.lambda_points + 2  # the grid (lambda = 0 too), then BIC's pick
        assert calls == {
            "sample_gaussian": draws,
            "dual_first_component": draws,
            "pca_first": draws,
            "st_estimator": fits * draws,
            "rspca": fits * draws,
            "oracle_estimator": draws,
            "select_lambda_bic": draws,  # ST's; rspca selects inside the estimators module
            "evaluate_estimate": (2 + 2 * fits) * draws,
            "emit_csv": 1,
            "emit_summary_csv": 1,
            "sweep_figure": 2,  # one per pair
            "phase_figure": 1,
        }
        assert len(result.records) == calls["evaluate_estimate"]

    def test_timing_fills_runtime_and_changes_nothing_else(self, tmp_path):
        untimed = run_and_emit(small_config(output_dir=tmp_path / "a", sweep=True))
        timed = run_and_emit(small_config(output_dir=tmp_path / "b", sweep=True, timing=True))
        assert all(r.runtime_ms is None for r in untimed.records)
        for r in timed.records:
            assert isinstance(r.runtime_ms, float)
            assert math.isfinite(r.runtime_ms) and r.runtime_ms >= 0.0
        col = CSV_HEADER.split(",").index("runtime_ms")

        def other_cells(sub):
            lines = (tmp_path / sub / "replications.csv").read_text().splitlines()
            return [cells[:col] + cells[col + 1:] for cells in (ln.split(",") for ln in lines)]

        assert other_cells("a") == other_cells("b")
        for name in ("summary.csv", "phase.svg", "sweep_a0.6_b0.1.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestGaussianStudyBytes:
    @pytest.mark.parametrize(
        "penalty, bic, replications_sha, summary_sha, figure_shas",
        [
            ("hard", True, "c644bcc35fe0cedbb203ec7f54f65fc4fc5c64e9f33d65126648196a41ae93fb",
             "0d2ca4227b932f37b149de15654ea3ad16c4a135038c0d74efe983a17c5a2df1",
             {"sweep_a0.6_b0.1.svg": "b2348a4006d059bf7d17abb7ad91e40b681bd9ac2dd9a67af090f9d3ea43efa5",
              "sweep_a0.2_b0.7.svg": "bd8736a941a52eb950e9d3c2db3131d4d4b2667b57f6aa94b46b796c930c9eb8",
              "phase.svg": "cf5e9359aec5b64c6b4955d44efb3cdae3e9ff641f6d2b0f2e07c26d5cd31c00"}),
            ("soft", True, "4671cd60262a72fb2724b1bf062a463a0fd27cb1146b5b2cec7ccf6ea603c240",
             "bf7510fa308a00fe5cc3ae0cb0531856dd72f90d71da9652dc10db2044f2fe54",
             {"sweep_a0.6_b0.1.svg": "97a1105e25f3d47a158d2f9a447c3a44c7dd3dbb5a24f5d88c174b8aab865a6a",
              "sweep_a0.2_b0.7.svg": "6dc70048e4a22bc26ded9c31cab55b983df38654fea73dca5284a89385b49b5a",
              "phase.svg": "4fe6ad07e55ad0907d3ccf43872e1cb5deec8eea91999085456e9136cdf1d857"}),
            ("scad", True, "fbb20ebfe9f835bf69ed11389461cf6f28f7b7c2be184d24e5f6f217cbcbb984",
             "52d9e92af3e642c21b7785e7f771b411847099281af17c036e712ce564415c78",
             {"sweep_a0.6_b0.1.svg": "6a6877d12145e723f2e24240083374931883c8d335723535a196cc7f9c073802",
              "sweep_a0.2_b0.7.svg": "47b720abeaa6d0f500d07310c835fa0c766d11642bd85eb82ecdf8ccdcb6058f",
              "phase.svg": "4fe6ad07e55ad0907d3ccf43872e1cb5deec8eea91999085456e9136cdf1d857"}),
            ("hard", False, "fc83c7eec7d6427945c0251edaade7962b00e41ccbb00058c9713a409007d251",
             "46d5b7bbe66e60446d76bb1b69ebeb5f333bf1027ec6be78ecd7936026cf5006",
             {"sweep_a0.6_b0.1.svg": "9bf10d8effec3800f22b943e4e20bf3d0feb3d8ca18b100e7237d4c8390b5d8a",
              "sweep_a0.2_b0.7.svg": "120529d412b5f7c81ad76860cc1ec1f5f6e352135e6242200bf921071a609b5c"}),
        ],
        ids=["hard", "soft", "scad", "no-bic"],
    )
    def test_sweep_bytes_are_pinned(self, tmp_path, penalty, bic, replications_sha, summary_sha,
                                    figure_shas):
        # Digests for this numerics stack (numpy, LAPACK/BLAS build, CPU
        # kernel): a sweep of every method at both paper regimes, given out
        # of canonical order.  Without BIC no method has rspca summary rows,
        # so there is no phase diagram.
        cfg = ExperimentConfig(pairs=((0.6, 0.1), (0.2, 0.7)), d=400, replications=2,
                               methods=METHODS, penalty=penalty, bic=bic, sweep=True,
                               output_dir=tmp_path)
        run_and_emit(cfg)
        shas = {"replications.csv": replications_sha, "summary.csv": summary_sha, **figure_shas}
        for name, sha in shas.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*shas, "config.resolved"])


class TestCsvEmission:
    @pytest.mark.parametrize(
        "emit, row, header, expected",
        [
            (
                emit_csv,
                ReplicationRecord(
                    alpha=0.6, beta=0.1, method="pca", rep=0, lam=0.0,
                    angle_deg=45.5, type1=0.0, type2=1.0, df=120, final=True,
                ),
                CSV_HEADER,
                "0.6,0.1,pca,0,0.0,45.5,0.0,1.0,120,,,",
            ),
            (
                emit_summary_csv,
                SummaryRow(
                    alpha=0.2, beta=0.7, method="oracle", count=3, lambda_median=None,
                    df_median=2.5, angle_q25=60.25, angle_median=68.5, angle_q75=71.0,
                    type1_q25=0.0, type1_median=0.0, type1_q75=0.0,
                    type2_q25=0.0, type2_median=0.0, type2_q75=0.125,
                ),
                SUMMARY_HEADER,
                "0.2,0.7,oracle,3,,2.5,60.25,68.5,71.0,0.0,0.0,0.0,0.0,0.0,0.125",
            ),
        ],
        ids=["record", "summary"],
    )
    def test_single_record(self, tmp_path, emit, row, header, expected):
        path = emit([row], tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == header
        assert lines[1] == expected

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_csv([], tmp_path / "r.csv")
        with pytest.raises(DomainError):
            emit_summary_csv([], tmp_path / "s.csv")

    def test_lf_endings_and_utf8(self, tmp_path):
        result = run_experiment(small_config(replications=2, methods=("pca",)))
        path = emit_csv(result.records, tmp_path / "r.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")

    def test_run_and_emit_outputs(self, tmp_path):
        cfg = small_config(output_dir=tmp_path / "out", sweep=True, methods=("st", "pca"))
        run_and_emit(cfg)
        out = tmp_path / "out"
        assert (out / "replications.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "config.resolved").exists()
        assert (out / "phase.svg").exists()
        assert (out / "sweep_a0.6_b0.1.svg").exists()

    def test_every_text_file_is_written_with_lf_endings(self, tmp_path, monkeypatch):
        from spcalab.experiment import emit_counterexample

        written = {}
        write_text = Path.write_text

        def spy(path, data, *args, **kwargs):
            written[path.name] = kwargs.get("newline")
            return write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", spy)
        run_and_emit(small_config(output_dir=tmp_path, sweep=True, methods=("st", "rspca")))
        emit_counterexample(run_counterexample([30, 60], alpha=0.5, reps=50), tmp_path)
        assert sorted(written) == [
            "config.resolved",
            "counterexample.csv",
            "counterexample.svg",
            "phase.svg",
            "replications.csv",
            "summary.csv",
            "sweep_a0.6_b0.1.svg",
        ]
        assert set(written.values()) == {"\n"}

    def test_existing_output_is_replaced_not_rewritten_in_place(self, tmp_path):
        out = tmp_path / "config.resolved"
        out.write_text("a stale and longer file\n" * 100)
        old = tmp_path / "old-link"
        old.hardlink_to(out)
        write_resolved_config(small_config(), out)
        assert out.read_text().startswith("pairs=0.6:0.1\n")
        assert old.read_text() == "a stale and longer file\n" * 100

    def test_byte_identical_across_threads(self, tmp_path):
        # 4 tasks: even and uneven strided shares, and more workers than tasks.
        texts = []
        for threads in (1, 2, 3, 8):
            out = tmp_path / f"threads{threads}"
            cfg = small_config(output_dir=out, threads=threads,
                               pairs=((0.6, 0.1), (0.2, 0.7)), replications=2)
            run_and_emit(cfg)
            texts.append(((out / "replications.csv").read_bytes(),
                          (out / "summary.csv").read_bytes()))
        assert texts[1:] == [texts[0]] * 3


def _patch_replication(monkeypatch, action, *, in_workers=True):
    """Make ``_run_replication`` call ``action`` first in forked workers (or in this process)."""
    parent = os.getpid()
    real = experiment._run_replication

    def patched(*task):
        if (os.getpid() != parent) == in_workers:
            action()
        return real(*task)

    monkeypatch.setattr(experiment, "_run_replication", patched)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    def test_the_parent_runs_no_replication(self, monkeypatch):
        cfg = small_config(pairs=((0.6, 0.1), (0.2, 0.7)), replications=2)
        expected = run_experiment(cfg)

        def fail():
            raise AssertionError("the parent ran a replication")

        _patch_replication(monkeypatch, fail, in_workers=False)
        result = run_experiment(small_config(pairs=cfg.pairs, replications=2, threads=2))
        assert (result.records, result.summary) == (expected.records, expected.summary)
        _assert_no_child_left()

    def test_worker_exception_is_raised_in_the_parent(self, monkeypatch):
        def fail():
            raise NumericError("replication failed in a worker")

        _patch_replication(monkeypatch, fail)
        with pytest.raises(NumericError, match="^replication failed in a worker$"):
            run_experiment(small_config(threads=2))
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "death, message",
        [
            (lambda: os._exit(1), "worker 0 of 2 exited with status 1 before sending its records"),
            (lambda: os._exit(0), "worker 0 of 2 exited with status 0 before sending its records"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL),
             f"worker 0 of 2 was killed by signal {int(signal.SIGKILL)} before sending its records"),
        ],
        ids=["exit1", "exit0", "sigkill"],
    )
    def test_worker_that_dies_without_writing_raises_worker_error(self, monkeypatch, death, message):
        _patch_replication(monkeypatch, death)
        with pytest.raises(WorkerError) as info:
            run_experiment(small_config(threads=2))
        assert str(info.value) == message
        assert isinstance(info.value, SpcaLabError)
        _assert_no_child_left()

    def test_failed_fork_reaps_the_started_workers(self, monkeypatch):
        real_fork = os.fork
        forks = []

        def fork():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            forks.append(real_fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", fork)
        fds = sorted(os.listdir("/dev/fd"))
        with pytest.raises(BlockingIOError, match="fork refused"):
            run_experiment(small_config(threads=3))
        _assert_no_child_left()
        assert sorted(os.listdir("/dev/fd")) == fds

    def test_threads_above_one_need_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        small_config(threads=1).validate()
        with pytest.raises(ConfigError, match="threads > 1 needs os.fork"):
            small_config(threads=2).validate()


class TestSweepBounds:
    @pytest.mark.parametrize(
        "gamma, drawn",
        [(0.45, True), (0.5, False), (0.9, False), (0.0, False)],
        ids=["admissible", "at-alpha-minus-eta", "above", "at-theta"],
    )
    def test_user_gamma_outside_the_admissible_interval_is_an_empty_range(
        self, tmp_path, gamma, drawn
    ):
        # At d=120 and delta=0.6 the range [log(d)**delta, d**(gamma/2)] is
        # non-empty for gamma > 0.39, so only admissibility hides the lines.
        cfg = small_config(output_dir=tmp_path, methods=("st",), replications=1,
                           bic=False, sweep=True, delta=0.6, gamma=gamma)
        run_and_emit(cfg)
        svg = (tmp_path / "sweep_a0.6_b0.1.svg").read_text()
        assert ('class="bound-upper"' in svg) is drawn
        assert ("threshold range empty at this d" in svg) is not drawn

    def test_lower_end_that_overflows_is_an_empty_range(self, tmp_path):
        # log(2000)**400 overflows a float; the study still finishes.
        code = main(["sweep", "--alpha", "0.6", "--beta", "0.1", "--d", "2000", "--delta", "400",
                     "--n", "8", "--reps", "1", "--lambda-points", "6", "--out", str(tmp_path)])
        assert code == 0
        svg = (tmp_path / "sweep_a0.6_b0.1.svg").read_text()
        assert "threshold range empty at this d" in svg
        assert 'class="bound-upper"' not in svg


class TestCounterexampleRunner:
    def test_small_run(self, tmp_path):
        result = run_counterexample([30, 60], alpha=0.5, reps=300, base_seed=3)
        assert len(result.empirical) == 2
        assert all(0.0 <= f <= 1.0 for f in result.empirical)
        from spcalab.experiment import emit_counterexample

        csv_path, svg_path = emit_counterexample(result, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("d,alpha,reps,")
        assert svg_path.exists()

    def test_validation(self):
        with pytest.raises(DomainError):
            run_counterexample([], 0.5, 10)
        with pytest.raises(DomainError):
            run_counterexample([50], 0.5, 0)

    def test_non_integral_d_is_rejected(self):
        # int() would truncate 50.7 to 50, and the CSV would report d=50.
        with pytest.raises(DomainError, match="d must be an integer, got 50.7"):
            run_counterexample([50.7, 100], 0.5, 100, 1)
        for d in (math.inf, math.nan):
            with pytest.raises(DomainError, match="d must be an integer"):
                run_counterexample([d], 0.5, 100, 1)
        assert run_counterexample([50.0, np.int64(100)], 0.5, 10, 1).dims == [50, 100]

    def test_hits_match_the_pca_estimator(self):
        dims, reps = [4, 10, 30], 600
        result = run_counterexample(dims, alpha=0.5, reps=reps, base_seed=11)
        hits = [round(f * reps) for f in result.empirical]
        assert hits == counterexample_hits_by_pca(dims, 0.5, reps, 11)
        assert all(hits)

    def test_csv_bytes_are_pinned(self, tmp_path):
        from spcalab.experiment import emit_counterexample

        result = run_counterexample([4, 10, 30], alpha=0.5, reps=600, base_seed=11)
        csv_path, _ = emit_counterexample(result, tmp_path)
        assert csv_path.read_bytes() == (
            b"d,alpha,reps,empirical,predicted,abs_error,binom_se\n"
            b"4,0.5,600,0.03166666666666667,0.02512626584708365,0.006540400819583018,"
            b"0.00638943615296182\n"
            b"10,0.5,600,0.023333333333333334,0.019145240005652476,0.0041880933276808585,"
            b"0.005594446620053742\n"
            b"30,0.5,600,0.005,0.0073044147357906285,0.0023044147357906284,"
            b"0.0034763631046344475\n"
        )


    def test_readme_scale_hits_are_pinned(self):
        dims, reps = [50, 100, 200, 400], 10000
        result = run_counterexample(dims, alpha=0.5, reps=reps, base_seed=DEFAULT_SEED)
        assert result.empirical == [hits / reps for hits in (60, 17, 6, 0)]


def test_paper_pairs_grid():
    assert len(PAPER_PAIRS) == 20
    assert (0.6, 0.1) in PAPER_PAIRS and (0.2, 0.7) in PAPER_PAIRS

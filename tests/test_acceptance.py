"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at desk scale (d=2000, n=25, 50 replications)
with pinned seeds.  Criterion 5's oracle clause is asserted as stated and
is expected to fail: at d=2000 the oracle's median angle at (0.2, 0.7) is
~70 degrees and only crosses 80 degrees around d~40,000 (see the
README's "Install and test" section).  The assertion is kept faithful rather than
loosened.

Criteria 4-6 also run at the seeds 1-12 (``test_criteria_4_to_6_at_more_seeds``),
which asserts every clause of theirs at every seed except criterion 5's oracle
clause.  All of them held when it was added; the thinnest margins were both
at seed 5: criterion 6's fraction positive at 0.62 (>= 0.6) and criterion 4's
PCA angle at 42.29 (> 40).

Criterion 7 fits the decay exponent of 1 - |<u_hat, u1>| across dimensions
with ``_oracles.fit_rate`` (least squares on log-log).  At desk scale only
the sign of the slope is a meaningful check, and that is what it asserts.
"""

import operator
import time

import numpy as np
import pytest

from spcalab import (
    ExperimentConfig,
    PenaltySpec,
    SpikedSpec,
    angle_degrees,
    build_eigensystem,
    dual_first_component,
    rspca,
    run_counterexample,
    run_experiment,
    sample_gaussian,
    st_estimator,
)
from spcalab.experiment import emit_csv, emit_summary_csv
from _oracles import (
    THRESHOLD_LAMBDA_GRID,
    THRESHOLD_X_GRID,
    brute_force_prox,
    fit_rate,
    threshold_scalar,
)

SEED = 20260809
MORE_SEEDS = tuple(range(1, 13))
COMPARE = {"<": operator.lt, ">": operator.gt, ">=": operator.ge}


def report(num: int | str, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}")


def desk_config(pairs, methods, seed=SEED, threads=1):
    return ExperimentConfig(
        pairs=pairs,
        d=2000,
        n=25,
        replications=50,
        methods=methods,
        penalty="hard",
        bic=True,
        sweep=False,
        base_seed=seed,
        threads=threads,
    )


def median_of(result, method, field):
    rows = [r for r in result.records if r.method == method and r.final]
    return float(np.median([getattr(r, field) for r in rows]))


def st_minus_rspca(result):
    """Per-replication ST angle minus RSPCA angle, in replication order."""
    angles = {(r.method, r.rep): r.angle_deg for r in result.records if r.final}
    reps = sorted(rep for method, rep in angles if method == "st")
    return np.array([angles["st", k] - angles["rspca", k] for k in reps])


@pytest.fixture(scope="module")
def consistency_run(tmp_path_factory):
    cfg = desk_config(((0.6, 0.1),), ("pca", "rspca"))
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    out = tmp_path_factory.mktemp("acc4")
    emit_csv(result.records, out / "replications.csv")
    emit_summary_csv(result.summary, out / "summary.csv")
    return cfg, result, elapsed, out


@pytest.fixture(scope="module")
def strong_inconsistency_run(tmp_path_factory):
    cfg = desk_config(((0.2, 0.7),), ("rspca", "oracle"))
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    out = tmp_path_factory.mktemp("acc5")
    emit_csv(result.records, out / "replications.csv")
    emit_summary_csv(result.summary, out / "summary.csv")
    return cfg, result, elapsed, out


def test_criterion_1_dual_primal_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(n, 65))
        x = rng.standard_normal((d, n))
        dc = dual_first_component(x)
        w, vecs = np.linalg.eigh(x @ x.T / n)
        worst = max(worst, angle_degrees(dc.u_tilde, vecs[:, -1]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, "dual-primal-equivalence", ok, f"max_angle={worst:.3e}deg<=1e-8 runtime={elapsed:.2f}s<5s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_scalar_threshold_oracles():
    t0 = time.perf_counter()
    # grid guard: the hard rule is discontinuous at |x| = lambda, so the
    # lambda grid must keep clear distance from every |x| on the grid
    gap = min(
        abs(abs(x) - lam) for x in THRESHOLD_X_GRID for lam in THRESHOLD_LAMBDA_GRID
    )
    assert gap > 5e-3
    cases = 0
    worst = 0.0
    for family, a in (("hard", 3.7), ("soft", 3.7), ("scad", 2.5), ("scad", 3.7)):
        for lam in THRESHOLD_LAMBDA_GRID:
            p = PenaltySpec(family, float(lam), a)
            for x in THRESHOLD_X_GRID:
                u_star = brute_force_prox(float(x), p)
                err = abs(threshold_scalar(float(x), p) - u_star)
                worst = max(worst, err)
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(
        2,
        "scalar-threshold-oracles",
        ok,
        f"cases={cases} max_err={worst:.3e}<=1e-6 runtime={elapsed:.2f}s<5s",
    )
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_3_st_rspca_hard_bit_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    pairs = [(0.6, 0.1), (0.4, 0.3), (0.2, 0.7), (0.8, 0.5), (0.6, 0.0)]
    checked = 0
    for k in range(50):
        alpha, beta = pairs[k % len(pairs)]
        system = build_eigensystem(SpikedSpec(2000, 25, alpha, beta))
        dm = sample_gaussian(system, np.random.SeedSequence(SEED, spawn_key=(90, k)))
        dc = dual_first_component(dm.x)
        lam = float(rng.uniform(0.0, 1.2 * np.abs(dc.u_tilde).max()))
        st = st_estimator(dm.x, lam)
        vec, trace = rspca(dm.x, PenaltySpec.hard(lam), max_iter=1)
        assert np.array_equal(st, vec)
        assert st.any() == vec.any()
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 50 and elapsed < 30.0
    report(3, "st-rspca-hard-bit-identity", ok, f"instances={checked} runtime={elapsed:.2f}s<30s")
    assert elapsed < 30.0


def test_criterion_4_consistency_regime(consistency_run):
    cfg, result, elapsed, _ = consistency_run
    rspca_angle = median_of(result, "rspca", "angle_deg")
    rspca_t1 = median_of(result, "rspca", "type1")
    rspca_t2 = median_of(result, "rspca", "type2")
    pca_angle = median_of(result, "pca", "angle_deg")
    ok = (
        rspca_angle < 15.0
        and rspca_t1 < 0.05
        and rspca_t2 < 0.05
        and pca_angle > 40.0
        and elapsed < 120.0
    )
    report(
        4,
        "consistency-regime(0.6,0.1)",
        ok,
        f"rspca_median_angle={rspca_angle:.2f}<15 type1={rspca_t1:.4f}<0.05 "
        f"type2={rspca_t2:.4f}<0.05 pca_median_angle={pca_angle:.2f}>40 "
        f"runtime={elapsed:.1f}s<120s",
    )
    assert rspca_angle < 15.0
    assert rspca_t1 < 0.05
    assert rspca_t2 < 0.05
    assert pca_angle > 40.0
    assert elapsed < 120.0


def test_criterion_5_strong_inconsistency_regime(strong_inconsistency_run):
    cfg, result, elapsed, _ = strong_inconsistency_run
    rspca_angle = median_of(result, "rspca", "angle_deg")
    rspca_t1 = median_of(result, "rspca", "type1")
    oracle_angle = median_of(result, "oracle", "angle_deg")
    ok = (
        rspca_angle > 80.0
        and rspca_t1 > 0.9
        and oracle_angle > 80.0
        and elapsed < 120.0
    )
    report(
        5,
        "strong-inconsistency-regime(0.2,0.7)",
        ok,
        f"rspca_median_angle={rspca_angle:.2f}>80 type1={rspca_t1:.4f}>0.9 "
        f"oracle_median_angle={oracle_angle:.2f}>80 runtime={elapsed:.1f}s<120s",
    )
    assert rspca_angle > 80.0
    assert rspca_t1 > 0.9
    assert elapsed < 120.0
    # Known to fail at desk scale: the oracle's approach to 90 degrees is an
    # asymptotic statement; at d=2000 the median sits near 70 degrees (and
    # near 77 at d=10,000).  Kept as stated rather than loosened.
    assert oracle_angle > 80.0


def test_criterion_6_relative_ordering():
    cfg = desk_config(((0.4, 0.3),), ("st", "rspca"))
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    diffs = st_minus_rspca(result)
    med = float(np.median(diffs))
    frac_pos = float(np.mean(diffs > 0))
    ok = med >= 0.0 and frac_pos >= 0.6 and elapsed < 120.0
    report(
        6,
        "relative-ordering(0.4,0.3)",
        ok,
        f"median(ST-RSPCA)={med:.2f}>=0 frac_positive={frac_pos:.2f}>=0.6 "
        f"runtime={elapsed:.1f}s<120s",
    )
    assert med >= 0.0
    assert frac_pos >= 0.6
    assert elapsed < 120.0


def test_criteria_4_to_6_at_more_seeds():
    """Criteria 4-6's clauses at the seeds 1-12, each study run as its criterion runs it."""
    t0 = time.perf_counter()
    held = {}
    for seed in MORE_SEEDS:
        c4, c5, c6 = (
            run_experiment(desk_config(pairs, methods, seed=seed, threads=2))
            for pairs, methods in ((((0.6, 0.1),), ("pca", "rspca")),
                                   (((0.2, 0.7),), ("rspca", "oracle")),
                                   (((0.4, 0.3),), ("st", "rspca")))
        )
        diffs = st_minus_rspca(c6)
        clauses = (
            ("c4_rspca_angle", median_of(c4, "rspca", "angle_deg"), "<", 15.0),
            ("c4_rspca_type1", median_of(c4, "rspca", "type1"), "<", 0.05),
            ("c4_rspca_type2", median_of(c4, "rspca", "type2"), "<", 0.05),
            ("c4_pca_angle", median_of(c4, "pca", "angle_deg"), ">", 40.0),
            ("c5_rspca_angle", median_of(c5, "rspca", "angle_deg"), ">", 80.0),
            ("c5_rspca_type1", median_of(c5, "rspca", "type1"), ">", 0.9),
            ("c6_median_st_minus_rspca", float(np.median(diffs)), ">=", 0.0),
            ("c6_frac_positive", float(np.mean(diffs > 0)), ">=", 0.6),
        )
        for name, value, op, bound in clauses:
            held[seed, name] = COMPARE[op](value, bound)
        report(
            "4-6", f"seed={seed}", all(held[seed, name] for name, *_ in clauses),
            " ".join(f"{name}={value:.4f}{op}{bound:g}" for name, value, op, bound in clauses)
            + f" c5_oracle_angle={median_of(c5, 'oracle', 'angle_deg'):.2f}(not asserted)",
        )
    print(f"criteria 4-6 at {len(MORE_SEEDS)} seeds: {time.perf_counter() - t0:.1f}s")
    assert [key for key, ok in held.items() if not ok] == []


def test_criterion_7_rate_diagnostic():
    t0 = time.perf_counter()
    alpha, beta = 0.6, 0.1
    points = []
    for di, d in enumerate((500, 2000, 8000)):
        lam = d ** ((alpha - beta) / 4.0)
        system = build_eigensystem(SpikedSpec(d, 25, alpha, beta))
        u1 = system.u1
        gaps = []
        for rep in range(30):
            dm = sample_gaussian(system, np.random.SeedSequence(SEED, spawn_key=(70 + di, rep)))
            est = st_estimator(dm.x, lam)
            gaps.append(1.0 - abs(float(est @ u1)))
        points.append((d, float(np.mean(gaps))))
    diag = fit_rate(points)
    elapsed = time.perf_counter() - t0
    ok = diag.varsigma_hat > 0.0 and elapsed < 180.0
    report(
        7,
        "rate-diagnostic",
        ok,
        f"gaps={[f'{g:.4f}' for _, g in points]} varsigma_hat={diag.varsigma_hat:.3f}>0 "
        f"runtime={elapsed:.1f}s<180s",
    )
    assert diag.varsigma_hat > 0.0
    assert elapsed < 180.0


def test_criterion_8_counterexample():
    t0 = time.perf_counter()
    result = run_counterexample([50, 100, 200, 400], alpha=0.5, reps=10000, base_seed=42)
    elapsed = time.perf_counter() - t0
    inside = True
    for emp, pred in zip(result.empirical, result.predicted):
        se = (pred * (1.0 - pred) / result.reps) ** 0.5
        inside = inside and abs(emp - pred) <= 3.0 * se
    emp_monotone = all(a >= b for a, b in zip(result.empirical, result.empirical[1:]))
    pred_monotone = all(a > b for a, b in zip(result.predicted, result.predicted[1:]))
    ok = inside and emp_monotone and pred_monotone and elapsed < 60.0
    report(
        8,
        "counterexample",
        ok,
        f"empirical={result.empirical} predicted={[f'{p:.5f}' for p in result.predicted]} "
        f"within_3se={inside} monotone={emp_monotone} runtime={elapsed:.1f}s<60s",
    )
    assert inside
    assert emp_monotone
    assert pred_monotone
    assert elapsed < 60.0


def test_criterion_9_determinism(consistency_run, strong_inconsistency_run, tmp_path):
    _, _, _, out4 = consistency_run
    _, _, _, out5 = strong_inconsistency_run
    runtimes = []
    identical = True
    for name, base_out, pairs, methods in (
        ("acc4", out4, ((0.6, 0.1),), ("pca", "rspca")),
        ("acc5", out5, ((0.2, 0.7),), ("rspca", "oracle")),
    ):
        cfg = desk_config(pairs, methods, threads=2)
        t0 = time.perf_counter()
        result = run_experiment(cfg)
        runtimes.append(time.perf_counter() - t0)
        out = tmp_path / name
        out.mkdir()
        emit_csv(result.records, out / "replications.csv")
        emit_summary_csv(result.summary, out / "summary.csv")
        for fname in ("replications.csv", "summary.csv"):
            identical = identical and (
                (out / fname).read_bytes() == (base_out / fname).read_bytes()
            )
    ok = identical and all(t < 120.0 for t in runtimes)
    report(
        9,
        "determinism-across-threads",
        ok,
        f"byte_identical={identical} runtimes={[f'{t:.1f}s' for t in runtimes]}<120s",
    )
    assert identical
    assert all(t < 120.0 for t in runtimes)

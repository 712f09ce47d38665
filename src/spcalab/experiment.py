"""Seeded Monte-Carlo harness over (alpha, beta) grids and lambda grids.

Determinism contract: every output byte is a pure function of the resolved
configuration (including ``base_seed``) and is independent of the worker
count.  Each (pair, replication) task derives its own Philox stream from
``SeedSequence(base_seed, spawn_key=(pair_index, replication))``, results
are buffered, canonically sorted, and only then written.

Wall-clock timing is therefore opt-in (``timing=True``): the runtime_ms
column stays empty by default so repeated runs are byte-identical.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .eigen import dual_first_component
from .estimators import PenaltySpec, oracle_estimator, pca_first, rspca, st_estimator
from .exceptions import ConfigError, DomainError
from .figures import counterexample_figure, phase_figure, sweep_figure
from .metrics import (
    default_gamma,
    default_lambda_grid,
    evaluate_estimate,
    select_lambda_bic,
    theorem_lambda_bounds,
)
from .model import (
    SpikedSpec,
    build_eigensystem,
    failure_probability,
    sample_counterexample,
    sample_gaussian,
)

DEFAULT_SEED = 20260809

METHODS = ("pca", "st", "rspca", "oracle")

#: The default (alpha, beta) grid of the phase-diagram study.
PAPER_PAIRS: tuple[tuple[float, float], ...] = tuple(
    (a, b) for a in (0.2, 0.4, 0.6, 0.8) for b in (0.0, 0.1, 0.3, 0.5, 0.7)
)

PROFILES = {
    "paper": {"d": 10000, "replications": 100},
    "desk": {"d": 2000, "replications": 50},
}

CSV_HEADER = "alpha,beta,method,rep,lambda,angle_deg,type1,type2,df,bic_total,converged,runtime_ms"

SUMMARY_HEADER = (
    "alpha,beta,method,count,lambda_median,df_median,"
    "angle_q25,angle_median,angle_q75,"
    "type1_q25,type1_median,type1_q75,"
    "type2_q25,type2_median,type2_q75"
)


@dataclass(frozen=True)
class ExperimentConfig:
    pairs: tuple[tuple[float, float], ...]
    d: int = 10000
    n: int = 25
    replications: int = 100
    methods: tuple[str, ...] = ("pca", "st", "rspca")
    penalty: str = "hard"
    scad_a: float = 3.7
    lambda_min: float = 1e-3
    lambda_max: float | None = None
    lambda_points: int = 50
    bic: bool = True
    sweep: bool = False
    base_seed: int = DEFAULT_SEED
    output_dir: Path | None = None
    threads: int = 1
    timing: bool = False
    max_iter: int = 200
    delta: float = 1.0
    gamma: float | None = None

    def validate(self) -> None:
        if not self.pairs:
            raise ConfigError("at least one (alpha, beta) pair is required")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected subset of {METHODS}")
        if self.penalty not in ("soft", "hard", "scad"):
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.d < 1 or self.n < 1:
            raise ConfigError("d and n must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.lambda_points < 1:
            raise ConfigError("lambda_points must be >= 1")
        if self.lambda_min <= 0:
            raise ConfigError("lambda_min must be > 0")
        if self.lambda_max is not None and self.lambda_max <= self.lambda_min:
            raise ConfigError("lambda_max must exceed lambda_min")
        for a, b in self.pairs:
            try:
                SpikedSpec(self.d, self.n, a, b)
            except Exception as exc:
                raise ConfigError(f"invalid pair ({a}, {b}): {exc}") from exc


@dataclass(frozen=True)
class ReplicationRecord:
    """One evaluated estimate; ``final`` rows feed the summary tables."""

    alpha: float
    beta: float
    method: str
    rep: int
    lam: float | None
    angle_deg: float
    type1: float
    type2: float
    df: int
    bic_total: float | None = None
    converged: bool | None = None
    runtime_ms: float | None = None
    final: bool = field(default=False, metadata={"csv": False})


@dataclass(frozen=True)
class SummaryRow:
    alpha: float
    beta: float
    method: str
    count: int
    lambda_median: float | None
    df_median: float
    angle_q25: float
    angle_median: float
    angle_q75: float
    type1_q25: float
    type1_median: float
    type1_q75: float
    type2_q25: float
    type2_median: float
    type2_q75: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[ReplicationRecord]
    summary: list[SummaryRow]


def _sort_key(r: ReplicationRecord):
    return (
        r.alpha,
        r.beta,
        r.method,
        r.rep,
        -1.0 if r.lam is None else r.lam,
        r.final,
    )


def _run_replication(cfg: ExperimentConfig, pair_index: int, rep: int) -> list[ReplicationRecord]:
    alpha, beta = cfg.pairs[pair_index]
    spec = SpikedSpec(cfg.d, cfg.n, alpha, beta)
    system = build_eigensystem(spec)
    seed = np.random.SeedSequence(cfg.base_seed, spawn_key=(pair_index, rep))
    dm = sample_gaussian(system, seed, replication=rep)
    u1 = system.u1
    truth = system.u1_support

    dc = dual_first_component(dm.x)
    grid = default_lambda_grid(dc.u_tilde, cfg.lambda_min, cfg.lambda_max, cfg.lambda_points)
    penalty = PenaltySpec(cfg.penalty, 0.0, cfg.scad_a)

    def clock():
        return time.perf_counter() if cfg.timing else None

    def elapsed_ms(t0):
        return None if t0 is None else (time.perf_counter() - t0) * 1e3

    def make_record(method, est, lam, *, bic_total=None, converged=None, runtime=None, final=False):
        row = evaluate_estimate(est, u1, truth, lam)
        return ReplicationRecord(
            alpha=alpha,
            beta=beta,
            method=method,
            rep=rep,
            lam=lam,
            angle_deg=row.angle_deg,
            type1=row.type1,
            type2=row.type2,
            df=row.df,
            bic_total=bic_total,
            converged=converged,
            runtime_ms=runtime,
            final=final,
        )

    records: list[ReplicationRecord] = []
    for method in cfg.methods:
        if method == "pca":
            t0 = clock()
            est = pca_first(dm.x, dual=dc)
            records.append(
                make_record("pca", est, 0.0, runtime=elapsed_ms(t0), final=True)
            )
        elif method == "st":
            bic_by_lam = {}
            selection = None
            if cfg.bic:
                selection = select_lambda_bic(dm.x, dc.v1, grid, PenaltySpec.hard(0.0))
                bic_by_lam = {v.lam: v.total for v in selection.values}
            if cfg.sweep:
                for lam in grid:
                    t0 = clock()
                    est = st_estimator(dm.x, float(lam), dual=dc)
                    records.append(
                        make_record(
                            "st",
                            est,
                            float(lam),
                            bic_total=bic_by_lam.get(float(lam)),
                            runtime=elapsed_ms(t0),
                        )
                    )
            if cfg.bic:
                t0 = clock()
                est = st_estimator(dm.x, selection.lambda_star, dual=dc)
                records.append(
                    make_record(
                        "st",
                        est,
                        selection.lambda_star,
                        bic_total=bic_by_lam[selection.lambda_star],
                        runtime=elapsed_ms(t0),
                        final=True,
                    )
                )
        elif method == "rspca":
            if cfg.sweep:
                for lam in grid:
                    t0 = clock()
                    vec, trace = rspca(
                        dm.x,
                        penalty.with_lambda(float(lam)),
                        max_iter=cfg.max_iter,
                        dual=dc,
                    )
                    records.append(
                        make_record(
                            "rspca",
                            vec,
                            float(lam),
                            converged=trace.converged,
                            runtime=elapsed_ms(t0),
                        )
                    )
            if cfg.bic:
                t0 = clock()
                vec, trace = rspca(
                    dm.x,
                    penalty,
                    max_iter=cfg.max_iter,
                    bic_per_iteration=True,
                    lambda_grid=grid,
                    dual=dc,
                )
                last = trace.iterations[-1]
                records.append(
                    make_record(
                        "rspca",
                        vec,
                        last.lam,
                        bic_total=last.bic_total,
                        converged=trace.converged,
                        runtime=elapsed_ms(t0),
                        final=True,
                    )
                )
        elif method == "oracle":
            t0 = clock()
            est = oracle_estimator(dm.x, truth)
            records.append(
                make_record("oracle", est, None, runtime=elapsed_ms(t0), final=True)
            )
    return records


def _summarize(records: list[ReplicationRecord]) -> list[SummaryRow]:
    groups: dict[tuple, list[ReplicationRecord]] = {}
    for r in records:
        if r.final:
            groups.setdefault((r.alpha, r.beta, r.method), []).append(r)
    out = []
    for (alpha, beta, method), rows in sorted(groups.items()):
        ang = np.array([r.angle_deg for r in rows])
        t1 = np.array([r.type1 for r in rows])
        t2 = np.array([r.type2 for r in rows])
        dfv = np.array([r.df for r in rows], dtype=float)
        lams = [r.lam for r in rows if r.lam is not None]
        out.append(
            SummaryRow(
                alpha=alpha,
                beta=beta,
                method=method,
                count=len(rows),
                lambda_median=float(np.median(lams)) if lams else None,
                df_median=float(np.median(dfv)),
                angle_q25=float(np.percentile(ang, 25)),
                angle_median=float(np.percentile(ang, 50)),
                angle_q75=float(np.percentile(ang, 75)),
                type1_q25=float(np.percentile(t1, 25)),
                type1_median=float(np.percentile(t1, 50)),
                type1_q75=float(np.percentile(t1, 75)),
                type2_q25=float(np.percentile(t2, 25)),
                type2_median=float(np.percentile(t2, 50)),
                type2_q75=float(np.percentile(t2, 75)),
            )
        )
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all (pair, replication) tasks and return canonically sorted records.

    Replications are the unit of parallelism; aggregation is
    order-insensitive and followed by a canonical sort, so the result is
    identical for any ``threads`` value.
    """
    cfg.validate()
    tasks = [(cfg, pi, rep) for pi in range(len(cfg.pairs)) for rep in range(cfg.replications)]
    if cfg.threads > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes=cfg.threads) as pool:
            chunks = pool.starmap(_run_replication, tasks)
    else:
        chunks = [_run_replication(*t) for t in tasks]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=_sort_key)
    return ExperimentResult(config=cfg, records=records, summary=_summarize(records))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv_cells(row) -> list:
    """A dataclass row's CSV values: its fields in declaration order."""
    return [getattr(row, f.name) for f in fields(row) if f.metadata.get("csv", True)]


def _write_csv(path, header: str, rows) -> Path:
    """Write ``header`` and one line per row of values (LF endings, UTF-8)."""
    path = Path(path)
    lines = [header] + [",".join(_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def emit_csv(records: list[ReplicationRecord], path) -> Path:
    """Write replication records (canonical order, LF endings, UTF-8)."""
    if not records:
        raise DomainError("no records to write")
    return _write_csv(path, CSV_HEADER, map(_csv_cells, records))


def emit_summary_csv(summary: list[SummaryRow], path) -> Path:
    if not summary:
        raise DomainError("no summary rows to write")
    return _write_csv(path, SUMMARY_HEADER, map(_csv_cells, summary))


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def _pair_bounds(cfg: ExperimentConfig, alpha: float, beta: float):
    """Threshold-range bounds for a pair, or None when gamma is inadmissible."""
    theta = 0.0
    eta = beta
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(theta, alpha, eta)
    if gamma is None or gamma <= theta:
        return None
    return theorem_lambda_bounds(cfg.d, theta, gamma, cfg.delta)


def _sweep_method(cfg: ExperimentConfig) -> str:
    for m in ("rspca", "st"):
        if m in cfg.methods:
            return m
    raise DomainError("sweep figures need the 'st' or 'rspca' method")


def emit_plots(result: ExperimentResult, out_dir) -> list[Path]:
    """Per-pair sweep figures plus the phase diagram.

    Requires sweep rows (a lambda sweep) in the result; raises DomainError
    otherwise.
    """
    cfg = result.config
    out_dir = Path(out_dir)
    method = _sweep_method(cfg)
    paths = []
    for alpha, beta in cfg.pairs:
        sweep_rows = [
            r
            for r in result.records
            if r.method == method and not r.final and r.alpha == alpha and r.beta == beta
        ]
        if not sweep_rows:
            raise DomainError(f"no lambda sweep recorded for pair ({alpha}, {beta})")
        by_rep: dict[int, list] = {}
        for r in sweep_rows:
            by_rep.setdefault(r.rep, []).append((r.lam, r.angle_deg, r.type1, r.type2))
        curves = [sorted(v) for _, v in sorted(by_rep.items())]
        markers = [
            (r.lam, r.angle_deg, r.type1, r.type2)
            for r in result.records
            if r.method == method and r.final and r.alpha == alpha and r.beta == beta
        ]
        path = out_dir / f"sweep_a{alpha:g}_b{beta:g}.svg"
        sweep_figure((alpha, beta), curves, markers, _pair_bounds(cfg, alpha, beta), path)
        paths.append(path)
    paths.append(emit_phase(result, out_dir / "phase.svg"))
    return paths


def emit_phase(result: ExperimentResult, path) -> Path:
    """Phase-diagram SVG: one marker per pair, from the summary medians."""
    method = _sweep_method(result.config)
    entries = [
        (s.alpha, s.beta, s.angle_median) for s in result.summary if s.method == method
    ]
    if not entries:
        raise DomainError(f"no summary rows for method {method!r}")
    phase_figure(entries, path)
    return Path(path)


# ---------------------------------------------------------------------------
# Counterexample study
# ---------------------------------------------------------------------------


@dataclass
class CounterexampleResult:
    alpha: float
    reps: int
    dims: list[int]
    empirical: list[float]
    predicted: list[float]


def run_counterexample(
    dims, alpha: float, reps: int, base_seed: int = DEFAULT_SEED
) -> CounterexampleResult:
    """Empirical frequency of argmax_i |u_hat_i| = 1 under the discrete model.

    One n=1 sample per replication; the first empirical eigenvector of a
    single observation is the normalized observation itself, evaluated here
    through the standard estimator path.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise DomainError("need at least one dimension")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    empirical = []
    predicted = []
    for di, d in enumerate(dims):
        hits = 0
        for rep in range(reps):
            seed = np.random.SeedSequence(base_seed, spawn_key=(di, rep))
            dm = sample_counterexample(d, alpha, 1, seed, replication=rep)
            est = pca_first(dm.x)
            if int(np.argmax(np.abs(est.entries))) == 0:
                hits += 1
        empirical.append(hits / reps)
        predicted.append(failure_probability(d, alpha))
    return CounterexampleResult(
        alpha=alpha, reps=reps, dims=dims, empirical=empirical, predicted=predicted
    )


def emit_counterexample(result: CounterexampleResult, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    rows = []
    for d, emp, pred in zip(result.dims, result.empirical, result.predicted):
        se = (pred * (1.0 - pred) / result.reps) ** 0.5
        rows.append((d, result.alpha, result.reps, emp, pred, abs(emp - pred), se))
    csv_path = _write_csv(
        out_dir / "counterexample.csv",
        "d,alpha,reps,empirical,predicted,abs_error,binom_se",
        rows,
    )
    svg_path = out_dir / "counterexample.svg"
    counterexample_figure(result.dims, result.empirical, result.predicted, svg_path)
    return csv_path, svg_path


# ---------------------------------------------------------------------------
# Config file parsing and provenance echo
# ---------------------------------------------------------------------------

_CONFIG_PARSERS = {
    "pairs": "pairs",
    "alpha": "float",
    "beta": "float",
    "d": "int",
    "n": "int",
    "replications": "int",
    "methods": "methods",
    "penalty": "str",
    "scad_a": "float",
    "lambda_min": "float",
    "lambda_max": "float",
    "lambda_points": "int",
    "bic": "bool",
    "seed": "int",
    "out": "path",
    "profile": "str",
    "threads": "int",
    "timing": "bool",
    "max_iter": "int",
    "delta": "float",
    "gamma": "float",
}


def parse_config_file(path) -> dict[str, str]:
    """Read a key=value config file; '#' comments and blank lines allowed."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"invalid boolean for {key!r}: {value!r}")


def _parse_pairs(value: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"invalid pair {item!r}; expected alpha:beta")
        a, _, b = item.partition(":")
        try:
            pairs.append((float(a), float(b)))
        except ValueError as exc:
            raise ConfigError(f"invalid pair {item!r}: {exc}") from exc
    if not pairs:
        raise ConfigError("pairs list is empty")
    return tuple(pairs)


def resolve_config(
    file_values: dict[str, str] | None = None,
    flag_values: dict[str, object] | None = None,
    *,
    sweep: bool = False,
    bic_default: bool = True,
) -> ExperimentConfig:
    """Merge defaults, profile, config file, and CLI flags (flags win)."""
    file_values = dict(file_values or {})
    flag_values = {k: v for k, v in (flag_values or {}).items() if v is not None}

    merged: dict[str, object] = {}
    for key, value in file_values.items():
        merged[key] = _convert(key, value)
    merged.update(flag_values)

    profile = merged.pop("profile", None)
    if profile is not None and profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {tuple(PROFILES)}")

    kwargs: dict[str, object] = {
        "pairs": ((0.6, 0.1),),
        "bic": bic_default,
        "sweep": sweep,
    }
    if profile is not None:
        kwargs.update(PROFILES[profile])

    alpha = merged.pop("alpha", None)
    beta = merged.pop("beta", None)
    if (alpha is None) != (beta is None):
        raise ConfigError("alpha and beta must be given together")
    if alpha is not None:
        merged["pairs"] = ((float(alpha), float(beta)),)

    rename = {"seed": "base_seed", "out": "output_dir"}
    for key, value in merged.items():
        kwargs[rename.get(key, key)] = value

    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def _convert(key: str, value: str):
    kind = _CONFIG_PARSERS[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            return _parse_bool(value, key)
        if kind == "pairs":
            return _parse_pairs(value)
        if kind == "methods":
            return tuple(m.strip() for m in value.split(",") if m.strip())
        if kind == "path":
            return Path(value)
        if kind == "str":
            return value
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {value!r} ({exc})") from exc
    raise ConfigError(f"unhandled config key {key!r}")


def write_resolved_config(cfg: ExperimentConfig, path) -> Path:
    """Echo the fully resolved configuration for provenance."""
    path = Path(path)
    items = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "pairs":
            v = ",".join(f"{a:g}:{b:g}" for a, b in v)
        elif f.name == "methods":
            v = ",".join(v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif v is None:
            v = ""
        items.append(f"{f.name}={v}")
    path.write_text("\n".join(items) + "\n", encoding="utf-8", newline="\n")
    return path


def run_and_emit(cfg: ExperimentConfig, *, plots: bool = True) -> ExperimentResult:
    """Run an experiment and write CSVs (and figures) into cfg.output_dir."""
    if cfg.output_dir is None:
        raise ConfigError("output_dir is required")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out / "config.resolved")
    result = run_experiment(cfg)
    emit_csv(result.records, out / "replications.csv")
    emit_summary_csv(result.summary, out / "summary.csv")
    if plots:
        if cfg.sweep:
            emit_plots(result, out)
        else:
            emit_phase(result, out / "phase.svg")
    return result

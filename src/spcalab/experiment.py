"""Seeded Monte-Carlo harness over (alpha, beta) grids and lambda grids.

Determinism contract: on a fixed numerics stack (numpy version, BLAS/LAPACK
build and the CPU kernel it selects) every output byte is a function of the
resolved configuration (including ``base_seed``) and is independent of the
worker count and of the BLAS thread count.  Each (pair, replication) task
derives its own Philox stream from
``SeedSequence(base_seed, spawn_key=(pair_index, replication))``, results
are buffered, canonically sorted, and only then written.

Wall-clock timing is therefore opt-in (``timing=True``): the runtime_ms
column stays empty by default so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._files import replace_text
from .eigen import DualComponent, dual_first_component
from .estimators import RSPCA_MAX_ITER, oracle_estimator, pca_first, rspca, st_estimator
from .exceptions import ConfigError, DomainError
from .figures import counterexample_figure, phase_figure, sweep_figure
from .metrics import (
    LambdaBounds,
    default_gamma,
    default_lambda_grid,
    evaluate_estimate,
    frobenius_sq,
    gamma_is_valid,
    select_lambda_bic,
    theorem_lambda_bounds,
)
from .model import (
    SpikedSpec,
    build_eigensystem,
    counterexample_hits,
    counterexample_tail_probability,
    failure_probability,
    sample_gaussian,
    stream_keys,
)
from .penalties import DEFAULT_SCAD_A, FAMILIES, PenaltySpec

DEFAULT_SEED = 20260809

#: The default (alpha, beta) grid of the phase-diagram study.
PAPER_PAIRS: tuple[tuple[float, float], ...] = tuple(
    (a, b) for a in (0.2, 0.4, 0.6, 0.8) for b in (0.0, 0.1, 0.3, 0.5, 0.7)
)

PROFILES = {
    "paper": {"d": 10000, "replications": 100},
    "desk": {"d": 2000, "replications": 50},
}

@dataclass(frozen=True)
class ExperimentConfig:
    pairs: tuple[tuple[float, float], ...]
    d: int = 10000
    n: int = 25
    replications: int = 100
    methods: tuple[str, ...] = ("pca", "st", "rspca")
    penalty: str = "hard"
    scad_a: float = DEFAULT_SCAD_A
    lambda_min: float = 1e-3
    lambda_max: float | None = None
    lambda_points: int = 50
    bic: bool = True
    sweep: bool = False
    base_seed: int = DEFAULT_SEED
    output_dir: Path | None = None
    threads: int = 1
    timing: bool = False
    max_iter: int = RSPCA_MAX_ITER
    delta: float = 1.0
    gamma: float | None = None

    def validate(self) -> None:
        if not self.pairs:
            raise ConfigError("at least one (alpha, beta) pair is required")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.base_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.base_seed}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected subset of {METHODS}")
        if self.penalty not in FAMILIES:
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.scad_a <= 2.0:
            raise ConfigError(f"SCAD shape a must be > 2, got {self.scad_a}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.delta <= 0.5:
            raise ConfigError(f"delta must be > 1/2, got {self.delta}")
        # The consistency threshold range needs log(d) > 0.
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.lambda_points < 1:
            raise ConfigError("lambda_points must be >= 1")
        if self.lambda_min <= 0:
            raise ConfigError("lambda_min must be > 0")
        if self.lambda_max is not None and self.lambda_max <= self.lambda_min:
            raise ConfigError("lambda_max must exceed lambda_min")
        # Figure names and config.resolved print each pair with :g, so two
        # pairs that print alike would overwrite each other's outputs.
        labels: dict[str, tuple[float, float]] = {}
        for a, b in self.pairs:
            try:
                SpikedSpec(self.d, self.n, a, b)
            except Exception as exc:
                raise ConfigError(f"invalid pair ({a}, {b}): {exc}") from exc
            label = f"{a:g}:{b:g}"
            if label in labels:
                raise ConfigError(f"pairs {labels[label]} and {(a, b)} share the label {label}")
            labels[label] = (a, b)


@dataclass(frozen=True)
class ReplicationRecord:
    """One evaluated estimate; ``final`` rows feed the summary tables."""

    alpha: float
    beta: float
    method: str
    rep: int
    lam: float | None = field(metadata={"column": "lambda"})
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


def _csv_columns(cls) -> tuple[str, Callable]:
    """A row dataclass's CSV header and cell getter: its fields in declaration order."""
    cols = [f for f in fields(cls) if f.metadata.get("csv", True)]
    header = ",".join(f.metadata.get("column", f.name) for f in cols)
    return header, attrgetter(*(f.name for f in cols))


CSV_HEADER, _record_cells = _csv_columns(ReplicationRecord)
SUMMARY_HEADER, _summary_cells = _csv_columns(SummaryRow)


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


@dataclass(frozen=True)
class _Draw:
    """What every method's runner reads from one (pair, replication) sample."""

    cfg: ExperimentConfig
    x: np.ndarray
    dual: DualComponent
    grid: np.ndarray
    u1: np.ndarray
    truth: np.ndarray

    @cached_property
    def fro2(self) -> float:
        """||X||_F^2, computed once for every BIC selection of the draw."""
        return frobenius_sq(self.x)


# A runner yields one (estimate, lambda, bic_total, converged, final) row per
# estimate.  Runners look the estimators up as module globals when they run,
# so a caller that patches ``experiment.rspca`` and the like sees every call.


def _run_pca(draw: _Draw):
    yield pca_first(draw.x, dual=draw.dual), 0.0, None, None, True


def _run_st(draw: _Draw):
    cfg = draw.cfg
    if cfg.bic:
        selection = select_lambda_bic(
            draw.x, draw.dual.v1, draw.grid, PenaltySpec.hard(0.0),
            xv=draw.dual.u_tilde, fro2=draw.fro2,
        )
    if cfg.sweep:
        totals = selection.totals.tolist() if cfg.bic else [None] * draw.grid.size
        for lam, total in zip(draw.grid.tolist(), totals):
            yield st_estimator(draw.x, lam, dual=draw.dual), lam, total, None, False
    if cfg.bic:
        lam = selection.lambda_star
        yield st_estimator(draw.x, lam, dual=draw.dual), lam, selection.total, None, True


def _run_rspca(draw: _Draw):
    cfg = draw.cfg
    penalty = PenaltySpec(cfg.penalty, 0.0, cfg.scad_a)
    if cfg.sweep:
        for lam in draw.grid.tolist():
            vec, trace = rspca(draw.x, penalty.with_lambda(lam), max_iter=cfg.max_iter, dual=draw.dual)
            yield vec, lam, None, trace.converged, False
    if cfg.bic:
        vec, trace = rspca(
            draw.x, penalty, max_iter=cfg.max_iter, bic_per_iteration=True,
            lambda_grid=draw.grid, dual=draw.dual, fro2=draw.fro2,
        )
        last = trace.iterations[-1]
        yield vec, last.lam, last.bic_total, trace.converged, True


def _run_oracle(draw: _Draw):
    yield oracle_estimator(draw.x, draw.truth), None, None, None, True


#: Each method's runner; ``--method`` names are these keys.
RUNNERS = {"pca": _run_pca, "st": _run_st, "rspca": _run_rspca, "oracle": _run_oracle}
METHODS = tuple(RUNNERS)


def _run_replication(cfg: ExperimentConfig, pair_index: int, rep: int) -> list[ReplicationRecord]:
    alpha, beta = cfg.pairs[pair_index]
    system = build_eigensystem(SpikedSpec(cfg.d, cfg.n, alpha, beta))
    seed = np.random.SeedSequence(cfg.base_seed, spawn_key=(pair_index, rep))
    x = sample_gaussian(system, seed).x
    dual = dual_first_component(x)
    grid = default_lambda_grid(dual.u_tilde, cfg.lambda_min, cfg.lambda_max, cfg.lambda_points)
    draw = _Draw(cfg, x, dual, grid, system.u1, system.u1_support)

    records: list[ReplicationRecord] = []
    for method in cfg.methods:
        # A row's runtime covers its runner's work since the previous row.
        t0 = time.perf_counter()
        for est, lam, bic_total, converged, final in RUNNERS[method](draw):
            runtime = (time.perf_counter() - t0) * 1e3 if cfg.timing else None
            row = evaluate_estimate(est, draw.u1, draw.truth, lam)
            records.append(ReplicationRecord(
                alpha=alpha, beta=beta, method=method, rep=rep, lam=lam,
                angle_deg=row.angle_deg, type1=row.type1, type2=row.type2, df=row.df,
                bic_total=bic_total, converged=converged, runtime_ms=runtime, final=final,
            ))
            t0 = time.perf_counter()
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


def _write_csv(path, header: str, rows) -> Path:
    """Write ``header`` and one line per row of values (LF endings, UTF-8)."""
    lines = [header] + [",".join(_cell(v) for v in row) for row in rows]
    return replace_text(path, "\n".join(lines) + "\n")


def emit_csv(records: list[ReplicationRecord], path) -> Path:
    """Write replication records (canonical order, LF endings, UTF-8)."""
    if not records:
        raise DomainError("no records to write")
    return _write_csv(path, CSV_HEADER, map(_record_cells, records))


def emit_summary_csv(summary: list[SummaryRow], path) -> Path:
    if not summary:
        raise DomainError("no summary rows to write")
    return _write_csv(path, SUMMARY_HEADER, map(_summary_cells, summary))


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def _pair_bounds(cfg: ExperimentConfig, alpha: float, beta: float) -> LambdaBounds | None:
    """Threshold-range bounds for a pair.

    None when no gamma is admissible (alpha <= beta); an empty range when
    the configured gamma lies outside (theta, alpha - eta).
    """
    # The spiked model's tail eigenvalues are 1 (theta = 0), and every
    # non-zero loading of u1 is m**-0.5 ~ d**(-beta/2) (eta = beta).
    theta = 0.0
    eta = beta
    midpoint = default_gamma(theta, alpha, eta)
    if midpoint is None:
        return None
    gamma = midpoint if cfg.gamma is None else cfg.gamma
    if not gamma_is_valid(gamma, theta, alpha, eta):
        return LambdaBounds(lower=math.inf, upper=0.0)
    return theorem_lambda_bounds(cfg.d, theta, gamma, cfg.delta)


def _figure_method(cfg: ExperimentConfig) -> str | None:
    """The method the sweep and phase figures plot, or None if none applies."""
    for m in ("rspca", "st"):
        if m in cfg.methods:
            return m
    return None


def _sweep_method(cfg: ExperimentConfig) -> str:
    method = _figure_method(cfg)
    if method is None:
        raise DomainError("sweep figures need the 'st' or 'rspca' method")
    return method


def emit_plots(result: ExperimentResult, out_dir) -> list[Path]:
    """Per-pair sweep figures.

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


def check_counterexample(dims, alpha: float, reps: int, base_seed: int) -> list[int]:
    """The d grid as ints (ValueError on a non-integer); DomainError when out of range."""
    dims = [int(d) for d in dims]
    if not dims:
        raise DomainError("need at least one dimension")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    stream_keys(base_seed, 0, range(reps))  # checks the seed and the rep count
    for d in dims:
        counterexample_tail_probability(d, alpha)
    return dims


def run_counterexample(
    dims, alpha: float, reps: int, base_seed: int = DEFAULT_SEED
) -> CounterexampleResult:
    """Empirical frequency of argmax_i |u_hat_i| = 1 under the discrete model.

    One n=1 sample x per replication, drawn from the Philox stream of
    ``SeedSequence(base_seed, spawn_key=(d_index, rep))``; ``stream_keys``
    derives those streams' keys in blocks of reps without building a
    ``SeedSequence`` per draw.  Its 1 x 1 dual has eigenvector [1], so
    ``pca_first``'s estimate is x / ||x||, whose argmax |.| is that of x,
    ties included.  The tail magnitude beats the spike, so that argmax is
    the first coordinate exactly when every tail coordinate is zero;
    ``counterexample_hits`` decides this from each draw's uniforms without
    building x or running a dual eigensolve.
    """
    dims = check_counterexample(dims, alpha, reps, base_seed)
    empirical = []
    predicted = []
    for di, d in enumerate(dims):
        hits = counterexample_hits(d, alpha, stream_keys(base_seed, di, range(reps)))
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

def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected true or false")


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


def _parse_pairs(value: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in _parse_list(value):
        if ":" not in item:
            raise ValueError(f"invalid pair {item!r}; expected alpha:beta")
        a, _, b = item.partition(":")
        pairs.append((float(a), float(b)))
    if not pairs:
        raise ValueError("pairs list is empty")
    return tuple(pairs)


@dataclass
class ConfigKey:
    """One config key, as a ``key=value`` line and as a CLI flag.

    ``attr`` is the ``ExperimentConfig`` field it sets, by default ``name``
    (``alpha``/``beta`` fold into ``pairs``; ``profile`` names a preset).
    ``flag`` defaults to ``name`` with dashes.
    """

    name: str
    parse: Callable[[str], object]
    help: str
    attr: str = ""
    flag: str = ""
    choices: tuple[str, ...] | None = None

    def __post_init__(self):
        self.attr = self.attr or self.name
        self.flag = self.flag or "--" + self.name.replace("_", "-")

    @property
    def is_bool(self) -> bool:
        return self.parse is _parse_bool

    def read(self, value):
        """``value`` parsed when it is a string, then checked against ``choices``."""
        if isinstance(value, str):
            try:
                value = self.parse(value)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {self.name!r}: {value!r} ({exc})") from exc
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"invalid value for {self.name!r}: {value!r}; expected {self.choices}")
        return value


#: Every config key, in the order README lists them.
CONFIG_KEYS = (
    ConfigKey("pairs", _parse_pairs, "comma list of alpha:beta pairs"),
    ConfigKey("alpha", float, "spike index (with --beta: single pair)"),
    ConfigKey("beta", float, "sparsity index (with --alpha: single pair)"),
    ConfigKey("d", int, "ambient dimension"),
    ConfigKey("n", int, "sample size"),
    ConfigKey("replications", int, "replications per pair", flag="--reps"),
    ConfigKey("methods", _parse_list, f"comma list from {','.join(METHODS)}", flag="--method"),
    ConfigKey("penalty", str, "RSPCA penalty family", choices=FAMILIES),
    ConfigKey("scad_a", float, "SCAD shape parameter"),
    ConfigKey("lambda_min", float, "smallest nonzero lambda of the grid"),
    ConfigKey("lambda_max", float, "largest lambda of the grid (default: max |X v1|)"),
    ConfigKey("lambda_points", int, "log-spaced lambdas of the grid (plus lambda = 0)"),
    ConfigKey("bic", _parse_bool, "BIC-select lambda per replication"),
    ConfigKey("seed", int, "base seed", attr="base_seed"),
    ConfigKey("out", Path, "output directory", attr="output_dir"),
    ConfigKey("profile", str, "preset scale", choices=tuple(PROFILES)),
    ConfigKey("threads", int, "worker processes"),
    ConfigKey("timing", _parse_bool, "record wall-clock runtime_ms (breaks byte-determinism)"),
    ConfigKey("max_iter", int, "rspca iteration cap"),
    ConfigKey("delta", float, "lower-bound exponent on log(d)"),
    ConfigKey("gamma", float, "upper-bound exponent (default: midpoint)"),
)

_KEYS = {k.name: k for k in CONFIG_KEYS}


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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _layer(values: dict[str, object]) -> dict[str, object]:
    """One layer's keys read into ``ExperimentConfig`` fields (and ``profile``)."""
    out = {}
    for name, value in values.items():
        if name not in _KEYS:
            raise ConfigError(f"unknown config key {name!r}")
        if value is not None:
            out[_KEYS[name].attr] = _KEYS[name].read(value)
    alpha = out.pop("alpha", None)
    beta = out.pop("beta", None)
    if (alpha is None) != (beta is None):
        raise ConfigError("alpha and beta must be given together")
    if alpha is not None:
        out["pairs"] = ((alpha, beta),)
    return out


def resolve_config(
    file_values: dict[str, object] | None = None,
    flag_values: dict[str, object] | None = None,
    *,
    defaults: dict[str, object] | None = None,
    forced: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Merge the layers, each over the one before, into a validated config.

    Layers: defaults (``ExperimentConfig``'s with pair (0.6, 0.1), then
    ``defaults``), profile preset, config file, CLI flags, ``forced``.  File
    and flag values are keyed by config key and go through ``ConfigKey.read``
    (None is skipped); ``defaults`` and ``forced`` are keyed by field.  The
    profile, the flags' or else the file's, sits under every explicit key.
    """
    layers = [_layer(file_values or {}), _layer(flag_values or {})]
    profile = None
    for layer in layers:
        profile = layer.pop("profile", profile)
    kwargs: dict[str, object] = {"pairs": ((0.6, 0.1),), **(defaults or {})}
    if profile is not None:
        kwargs.update(PROFILES[profile])
    for layer in layers:
        kwargs.update(layer)
    kwargs.update(forced or {})
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def write_resolved_config(cfg: ExperimentConfig, path) -> Path:
    """Echo the fully resolved configuration for provenance."""
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
    return replace_text(path, "\n".join(items) + "\n")


def run_and_emit(cfg: ExperimentConfig) -> ExperimentResult:
    """Run an experiment and write its outputs into cfg.output_dir.

    ``summary.csv`` needs a final row (pca, oracle or BIC-selected).
    Figures plot the st or rspca estimates: the sweep figures in sweep mode,
    and the phase diagram when that method has summary rows.
    """
    if cfg.output_dir is None:
        raise ConfigError("output_dir is required (--out DIR or out= in the config file)")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out / "config.resolved")
    result = run_experiment(cfg)
    emit_csv(result.records, out / "replications.csv")
    if result.summary:
        emit_summary_csv(result.summary, out / "summary.csv")
    method = _figure_method(cfg)
    if method is not None and cfg.sweep:
        emit_plots(result, out)
    if any(s.method == method for s in result.summary):
        emit_phase(result, out / "phase.svg")
    return result

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

With ``threads`` > 1 and more than one task, the tasks run in ``os.fork``
children, so that setting is POSIX-only.  Worker ``i`` of ``k`` runs the
strided share ``tasks[i::k]`` and pickles its records, or the exception that
stopped it, into its own pipe.  The parent runs no replication: it forks,
reads each pipe to EOF, reaps each worker, then sorts and summarizes as a
one-worker run does.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import theory
from ._files import replace_text
from .eigen import DualComponent, dual_first_component
from .estimators import RSPCA_MAX_ITER, oracle_estimator, pca_first, rspca, st_estimator
from .exceptions import ConfigError, DomainError, WorkerError
from .figures import counterexample_figure, phase_figure, sweep_figure
from .metrics import (
    DEFAULT_LAMBDA_MIN,
    DEFAULT_LAMBDA_POINTS,
    _check_grid_settings,
    _Truth,
    default_lambda_grid,
    evaluate_estimate,
    select_lambda_bic,
)
from .model import SpikedSpec, build_eigensystem, counterexample_hits, sample_gaussian, stream_keys
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
    """A study's settings, checked when built: invalid values raise ``ConfigError``."""

    pairs: tuple[tuple[float, float], ...] = ((0.6, 0.1),)
    d: int = 10000
    n: int = 25
    replications: int = 100
    methods: tuple[str, ...] = ("pca", "st", "rspca")
    penalty: str = "hard"
    scad_a: float = DEFAULT_SCAD_A
    lambda_min: float = DEFAULT_LAMBDA_MIN
    lambda_max: float | None = None
    lambda_points: int = DEFAULT_LAMBDA_POINTS
    bic: bool = True
    sweep: bool = False
    base_seed: int = DEFAULT_SEED
    output_dir: Path | None = None
    threads: int = 1
    timing: bool = False
    max_iter: int = RSPCA_MAX_ITER
    delta: float = 1.0
    gamma: float | None = None

    def __post_init__(self):
        # Lists of pairs or methods are stored as tuples, so that the config
        # hashes, compares and is echoed as the one built from tuples.
        object.__setattr__(self, "pairs", tuple(map(tuple, self.pairs or ())))
        object.__setattr__(self, "methods", tuple(self.methods or ()))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError for a bad value; the grid, penalty, model and range check their own."""
        if not self.pairs:
            raise ConfigError("at least one (alpha, beta) pair is required")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.base_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.base_seed}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected subset of {METHODS}")
            if m in self.methods[:i]:
                raise ConfigError(f"method {m!r} is listed twice")
            if m in ("st", "rspca") and not (self.bic or self.sweep):
                raise ConfigError(f"method {m!r} writes no rows with bic and sweep both off")
        for key in ("scad_a", "delta", "gamma"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.threads > 1 and not hasattr(os, "fork"):
            raise ConfigError("threads > 1 needs os.fork, which this platform lacks")
        # Figure file names print each pair with :g, so two pairs that print
        # alike would overwrite each other's figures.
        labels: dict[str, tuple[float, float]] = {}
        try:
            _check_grid_settings(self.lambda_min, self.lambda_max, self.lambda_points)
            PenaltySpec(self.penalty, 0.0, self.scad_a)
            for a, b in self.pairs:
                theory.pair_lambda_bounds(self.d, a, b, self.delta, self.gamma)
                SpikedSpec(self.d, self.n, a, b)
                label = f"{a:g}:{b:g}"
                if label in labels:
                    raise ConfigError(f"pairs {labels[label]} and {(a, b)} share the label {label}")
                labels[label] = (a, b)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


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
    truth: np.ndarray
    reference: _Truth


# A runner yields one (estimate, lambda, bic_total, converged, final) row per
# estimate.  Runners look the estimators up as module globals when they run,
# so a caller that patches ``experiment.rspca`` and the like sees every call.


def _run_pca(draw: _Draw):
    yield pca_first(draw.x, dual=draw.dual), 0.0, None, None, True


def _run_st(draw: _Draw):
    cfg = draw.cfg
    if cfg.bic:
        selection = select_lambda_bic(draw.x, draw.dual.v1, draw.grid, PenaltySpec.hard(0.0))
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
        vec, trace = rspca(draw.x, penalty, max_iter=cfg.max_iter, lambda_grid=draw.grid,
                           dual=draw.dual)
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
    truth = system.u1_support
    draw = _Draw(cfg, x, dual, grid, truth, _Truth.of(system.u1, truth))

    records: list[ReplicationRecord] = []
    for method in cfg.methods:
        # A row's runtime covers its runner's work since the previous row.
        t0 = time.perf_counter()
        for est, lam, bic_total, converged, final in RUNNERS[method](draw):
            runtime = (time.perf_counter() - t0) * 1e3 if cfg.timing else None
            row = evaluate_estimate(est, draw.reference.u1, draw.reference)
            records.append(ReplicationRecord(
                alpha=alpha, beta=beta, method=method, rep=rep, lam=lam,
                angle_deg=row.angle_deg, type1=row.type1, type2=row.type2, df=row.df,
                bic_total=bic_total, converged=converged, runtime_ms=runtime, final=final,
            ))
            t0 = time.perf_counter()
    return records


def _summarize(records: list[ReplicationRecord]) -> list[SummaryRow]:
    """Quartiles per (pair, method) over the final rows.

    Every runner yields one final row per replication or none, and a method's
    lambda is None in all of its rows or in none, so the groups stack into one
    (group, replication, column) array.  One sort along its replication axis
    gives every order statistic.  The quartiles are numpy's default
    ``'linear'`` percentile (Hyndman-Fan type 7), and the medians of df and
    lambda are the middle value, or the mean of the two middle values for an
    even count.  Both are computed as ``np.percentile`` and ``np.median``
    compute them, bit for bit.
    """
    groups: dict[tuple, list[tuple]] = {}
    for r in records:
        if r.final:
            groups.setdefault((r.alpha, r.beta, r.method), []).append(
                (r.angle_deg, r.type1, r.type2, r.df, math.nan if r.lam is None else r.lam)
            )
    if not groups:
        return []
    keys = sorted(groups)
    values = np.sort(np.array([groups[k] for k in keys]), axis=1)
    count = values.shape[1]
    # Hand-written because np.percentile and np.median import numpy.ma on
    # first use (numpy 2.4: through np.unique and _median_nancheck).  On a
    # 2-core Xeon the first summary of a fresh interpreter took 21-23 ms with
    # them and 1.1 ms without.  This is numpy's _lerp between the sorted
    # neighbours of position (count - 1) q.
    pos = (count - 1) * np.array([0.25, 0.5, 0.75])
    lo = pos.astype(np.intp)  # floor, as pos >= 0
    t = (pos - lo)[:, None]
    a, b = values[:, lo, :3], values[:, np.minimum(lo + 1, count - 1), :3]
    # quartiles[g] holds angle, type1 and type2's q25, median and q75, in that order.
    quartiles = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    quartiles = quartiles.transpose(0, 2, 1).reshape(len(keys), 9).tolist()
    # For an odd count both middle indices are the same, and (a + a) / 2 == a.
    medians = ((values[:, (count - 1) // 2, 3:] + values[:, count // 2, 3:]) / 2.0).tolist()
    return [
        SummaryRow(alpha, beta, method, count, None if math.isnan(lam) else lam, df, *q)
        for (alpha, beta, method), (df, lam), q in zip(keys, medians, quartiles)
    ]


def _work(share: list[tuple], fd: int) -> None:
    """Run a forked worker's ``share`` and pickle its outcome into ``fd``.

    The outcome is (True, the share's records) or (False, the exception that
    stopped the share).
    """
    try:
        outcome = (True, [r for task in share for r in _run_replication(*task)])
    except Exception as exc:
        outcome = (False, exc)
    with open(fd, "wb") as pipe:
        pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _fan_out(tasks: list[tuple], workers: int) -> list[ReplicationRecord]:
    """The records of ``tasks``, from ``workers`` forked children.

    Child ``i`` runs ``tasks[i::workers]``; its records follow those of
    child ``i - 1``, each task's together and in the order they were made.
    A child's exception is raised here as it was raised there; a child that
    ends without sending its outcome raises ``WorkerError``.  Every child is
    reaped before this returns or raises; on an error, those still running
    are killed first.
    """
    pids: list[int] = []
    pipes = []
    records: list[ReplicationRecord] = []
    try:
        for i in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    # The child never returns into the caller's frames.
                    code = 1
                    try:
                        _work(tasks[i::workers], w)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(w)
            pids.append(pid)
        for i, pipe in enumerate(pipes):
            data = pipe.read()
            status = os.waitpid(pids[i], 0)[1]
            pids[i] = 0  # no signal is handled between the reap and this store
            status = os.waitstatus_to_exitcode(status)
            if status or not data:
                how = (f"was killed by signal {-status}" if status < 0
                       else f"exited with status {status}")
                raise WorkerError(f"worker {i} of {workers} {how} before sending its records")
            ok, outcome = pickle.loads(data)
            if not ok:
                raise outcome
            records += outcome
        return records
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            import signal  # imported here: only an error path needs it, at ~1 ms per study

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all (pair, replication) tasks and return canonically sorted records.

    Replications are the unit of parallelism.  With ``threads`` > 1 and more
    than one task, ``min(threads, tasks)`` forked workers each run a strided
    share of the tasks while this process only collects them (see
    ``_fan_out``).  The records are then sorted canonically.  Two records
    tie on the sort key only when they come from one task, whose records stay
    in the order they were made, so the result is identical for any
    ``threads`` value.
    """
    tasks = [(cfg, pi, rep) for pi in range(len(cfg.pairs)) for rep in range(cfg.replications)]
    workers = min(cfg.threads, len(tasks))
    if workers > 1:
        records = _fan_out(tasks, workers)
    else:
        records = [r for t in tasks for r in _run_replication(*t)]
    records.sort(key=_sort_key)
    return ExperimentResult(config=cfg, records=records, summary=_summarize(records))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (str, Path)):
        return str(v)
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
    """The d grid as ints; DomainError on a d that is not an integer or is out of range.

    A string that does not read as a number raises ValueError, as ``float`` does.
    """
    given, dims = dims, []
    for d in given:
        if not float(d).is_integer():
            raise DomainError(f"d must be an integer, got {d}")
        dims.append(int(d))
    if not dims:
        raise DomainError("need at least one dimension")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    stream_keys(base_seed, 0, range(reps))  # checks the seed and the rep count
    for i, d in enumerate(dims):
        if d in dims[:i]:
            raise DomainError(f"d={d} is listed twice")
        theory.counterexample_tail_probability(d, alpha)
    return dims


def run_counterexample(
    dims, alpha: float, reps: int, base_seed: int = DEFAULT_SEED
) -> CounterexampleResult:
    """Empirical frequency of argmax_i |u_hat_i| = 1, against ``theory.failure_probability``.

    One n=1 sample per replication, on the Philox stream of
    ``SeedSequence(base_seed, spawn_key=(d_index, rep))``.  ``stream_keys``
    derives those keys a block of reps at a time, and ``counterexample_hits``
    scores a block from its raw Philox words (and says why that is
    ``pca_first``'s answer), without building x, a generator per draw or a
    dual eigensolve, and without importing ``numpy.random``.
    """
    dims = check_counterexample(dims, alpha, reps, base_seed)
    empirical = []
    predicted = []
    for di, d in enumerate(dims):
        hits = counterexample_hits(d, alpha, stream_keys(base_seed, di, range(reps)))
        empirical.append(hits / reps)
        predicted.append(theory.failure_probability(d, alpha))
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
    ConfigKey("penalty", str, f"RSPCA penalty family, one of {','.join(FAMILIES)}"),
    ConfigKey("scad_a", float, "SCAD shape parameter"),
    ConfigKey("lambda_min", float, "smallest nonzero lambda of the grid"),
    ConfigKey("lambda_max", float, "largest lambda of the grid (default: 1.5 max |X v1|)"),
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
        if "pairs" in out:
            raise ConfigError("give pairs or alpha and beta, not both")
        out["pairs"] = ((alpha, beta),)
    return out


def resolve_config(
    file_values: dict[str, object] | None = None,
    flag_values: dict[str, object] | None = None,
    *,
    defaults: dict[str, object] | None = None,
    forced: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Merge the layers, each over the one before, into a config (which checks itself).

    Layers: defaults (``ExperimentConfig``'s, then ``defaults``), profile
    preset, config file, CLI flags, ``forced``.  File and flag values are
    keyed by config key and go through ``ConfigKey.read`` (None is skipped);
    ``defaults`` and ``forced`` are keyed by field.  The profile, the flags'
    or else the file's, sits under every explicit key.
    """
    file, flags = _layer(file_values or {}), _layer(flag_values or {})
    profile = flags.pop("profile", file.pop("profile", None))
    return ExperimentConfig(**{**(defaults or {}), **PROFILES.get(profile, {}), **file, **flags,
                               **(forced or {})})


def write_resolved_config(cfg: ExperimentConfig, path) -> Path:
    """Echo the resolved configuration as a config file that reads back into ``cfg``.

    One ``key=value`` line per ``CONFIG_KEYS`` entry whose field is set, in
    that table's order, each value written so that its key's parser returns
    it exactly; ``sweep``, which only the subcommand sets, is a comment.
    """
    lines = []
    for key in CONFIG_KEYS:
        v = getattr(cfg, key.attr, None)
        if isinstance(v, tuple):  # pairs or methods
            v = ",".join(":".join(map(_cell, m)) if isinstance(m, tuple) else m for m in v)
        if v is not None:
            lines.append(f"{key.name}={_cell(v)}")
    lines.append(f"# sweep={_cell(cfg.sweep)}")
    return replace_text(path, "\n".join(lines) + "\n")


def run_and_emit(cfg: ExperimentConfig) -> ExperimentResult:
    """Run an experiment and write all of its files into cfg.output_dir.

    They are ``config.resolved``, ``replications.csv``, ``summary.csv`` when a
    method has final rows, and the figures of rspca (or of st when rspca is not
    run): ``sweep_a<alpha>_b<beta>.svg`` per pair in sweep mode, and ``phase.svg``
    when that method has summary rows.  One pass over its records is enough:
    sorted by (alpha, beta, method, rep, lambda, final), they hold each pair's
    replications in turn, each as its sweep rows in lambda order, then its final
    row (a BIC marker).
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
    method = next((m for m in ("rspca", "st") if m in cfg.methods), None)
    if cfg.sweep:
        rows = (r for r in result.records if r.method == method)
        for (alpha, beta), pair_rows in groupby(rows, attrgetter("alpha", "beta")):
            curves, markers = [], []
            for _, rep_rows in groupby(pair_rows, attrgetter("rep")):
                curves.append([])
                for r in rep_rows:
                    point = (r.lam, r.angle_deg, r.type1, r.type2)
                    (markers if r.final else curves[-1]).append(point)
            bounds = theory.pair_lambda_bounds(cfg.d, alpha, beta, cfg.delta, cfg.gamma)
            sweep_figure((alpha, beta), curves, markers, bounds,
                         out / f"sweep_a{alpha:g}_b{beta:g}.svg")
    entries = [(s.alpha, s.beta, s.angle_median) for s in result.summary if s.method == method]
    if entries:
        phase_figure(entries, out / "phase.svg")
    return result

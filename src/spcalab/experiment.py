"""Seeded Monte-Carlo harness over (alpha, beta) grids and lambda grids.

It runs a built ``config.ExperimentConfig`` (one runner per method, the fork
fan-out and ``run_and_emit``); every config fact is ``config``'s.

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
strided share ``tasks[i::k]``.  The parent forks worker 0 alone and runs no
replication.  Worker 0 imports ``numpy.random`` once, forks workers 1..k-1,
runs its own share, then reads and reaps theirs; each pickles its records,
or the exception that stopped it, into its own pipe.  The parent reads
worker 0's pipe to EOF, reaps it, then sorts and summarizes as a one-worker
run does.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import config, theory
from ._files import cell, replace_text
from .eigen import DualComponent, dual_first_component
from .estimators import oracle_estimator, pca_first, rspca, st_estimator
from .exceptions import ConfigError, DomainError, WorkerError
from .figures import counterexample_figure, phase_figure, sweep_figure
from .metrics import _Truth, default_lambda_grid, evaluate_estimate, select_lambda_bic
from .model import SpikedSpec, counterexample_hits, sample_gaussian, stream_keys
from .penalties import PenaltySpec

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
    config: config.ExperimentConfig
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

    cfg: config.ExperimentConfig
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


#: Each method's runner.
RUNNERS = dict(zip(config.METHODS, (_run_pca, _run_st, _run_rspca, _run_oracle), strict=True))


def _run_replication(cfg: config.ExperimentConfig, pair_index: int,
                     rep: int) -> list[ReplicationRecord]:
    alpha, beta = cfg.pairs[pair_index]
    spec = SpikedSpec(cfg.d, cfg.n, alpha, beta)
    seed = np.random.SeedSequence(cfg.base_seed, spawn_key=(pair_index, rep))
    x = sample_gaussian(spec, seed).x
    dual = dual_first_component(x)
    grid = default_lambda_grid(dual.u_tilde, cfg.lambda_min, cfg.lambda_max, cfg.lambda_points)
    truth = spec.u1_support
    draw = _Draw(cfg, x, dual, grid, truth, _Truth.of(spec.u1, truth))

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
    compute them, bit for bit, except that a mean whose sum overflows is
    halved before the add, where ``np.median`` would give inf.
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
    lower, upper = values[:, (count - 1) // 2, 3:], values[:, count // 2, 3:]
    with np.errstate(over="ignore"):
        medians = lower if count % 2 else (lower + upper) / 2.0
    # The sum overflows for lambdas near the float limit, where halving first does not.
    medians = np.where(np.isfinite(medians), medians, lower / 2.0 + upper / 2.0).tolist()
    return [
        SummaryRow(alpha, beta, method, count, None if math.isnan(lam) else lam, df, *q)
        for (alpha, beta, method), (df, lam), q in zip(keys, medians, quartiles)
    ]


def _work(run: Callable[[], list[ReplicationRecord]], fd: int) -> None:
    """Pickle the outcome of ``run()`` into ``fd``, in a forked worker.

    The outcome is (True, the records it returned) or (False, the exception
    it raised).
    """
    try:
        outcome = (True, run())
    except Exception as exc:
        outcome = (False, exc)
    with open(fd, "wb") as pipe:
        pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _share(tasks: list[tuple], workers: int, i: int) -> list[ReplicationRecord]:
    """Worker ``i``'s records: those of ``tasks[i::workers]``, task by task."""
    return [r for task in tasks[i::workers] for r in _run_replication(*task)]


def _lead(tasks: list[tuple], workers: int, fd: int) -> list[ReplicationRecord]:
    """Worker 0's records, then those of workers 1..k-1, which it forks itself.

    ``numpy.random`` is imported once here, before the forks, so that no
    other worker pays for the import.  ``fd`` is worker 0's own pipe.
    """
    import numpy.random

    return _fork_and_collect(tasks, workers, range(1, workers), fd)


def _fork_and_collect(tasks: list[tuple], workers: int, ids: range,
                      fd: int | None = None) -> list[ReplicationRecord]:
    """The records of the workers ``ids``, which this process forks.

    Worker 0 runs ``_lead``; any other worker ``i`` runs its share.  Each
    pickles its outcome into its own pipe, after closing every read end it
    inherits and ``fd``, the pipe of worker 0 when worker 0 calls this.  So
    a worker whose collector dies stops at its write, and the dead worker 0's
    reader sees EOF at once.  Worker 0 runs its own share here once the
    others are forked; its records come first, and its exception wins over
    theirs.  A worker's exception is raised here as it was raised there; a
    worker that ends without sending its outcome raises ``WorkerError``.
    Every worker is reaped before this returns or raises; on an error, those
    still running are killed first.
    """
    pids: list[int] = []
    pipes = []
    try:
        for i in ids:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    # The child never returns into the caller's frames.
                    code = 1
                    try:
                        for pipe in pipes:
                            pipe.close()
                        if fd is not None:
                            os.close(fd)
                        _work(partial(_lead, tasks, workers, w) if i == 0
                              else partial(_share, tasks, workers, i), w)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(w)
            pids.append(pid)
        records = [] if fd is None else _share(tasks, workers, 0)
        for j, (i, pipe) in enumerate(zip(ids, pipes)):
            data = pipe.read()
            status = os.waitpid(pids[j], 0)[1]
            pids[j] = 0  # no signal is handled between the reap and this store
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


def run_experiment(cfg: config.ExperimentConfig) -> ExperimentResult:
    """Run all (pair, replication) tasks and return canonically sorted records.

    Replications are the unit of parallelism.  With ``threads`` > 1 and more
    than one task, ``min(threads, tasks)`` = k forked workers each run a
    strided share: worker ``i`` runs ``tasks[i::k]``.  This process forks
    worker 0 alone and only collects from it; worker 0 forks workers
    1..k-1 after its one ``numpy.random`` import (``_lead``).  Worker ``i``'s
    records follow those of worker ``i - 1``, each task's together and in
    the order they were made.  Both levels collect and fail as
    ``_fork_and_collect`` states, so every worker is reaped before this
    returns or raises.  The records are then sorted canonically.  Two
    records tie on the sort key only when they come from one task, whose
    records stay in the order they were made, so the result is identical
    for any ``threads`` value.
    """
    tasks = [(cfg, pi, rep) for pi in range(len(cfg.pairs)) for rep in range(cfg.replications)]
    workers = min(cfg.threads, len(tasks))
    if workers > 1:
        records = _fork_and_collect(tasks, workers, range(1))
    else:
        records = [r for t in tasks for r in _run_replication(*t)]
    records.sort(key=_sort_key)
    return ExperimentResult(config=cfg, records=records, summary=_summarize(records))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _write_csv(path, header: str, rows) -> Path:
    """Write ``header`` and one line per row of values (LF endings, UTF-8)."""
    lines = [header] + [",".join(map(cell, row)) for row in rows]
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


def run_counterexample(
    dims, alpha: float, reps: int, base_seed: int = config.DEFAULT_SEED
) -> CounterexampleResult:
    """Empirical frequency of argmax_i |u_hat_i| = 1, against ``theory.failure_probability``.

    One n=1 sample per replication, on the Philox stream of
    ``SeedSequence(base_seed, spawn_key=(d_index, rep))``.  ``stream_keys``
    derives those keys a block of reps at a time, and ``counterexample_hits``
    scores a block from its raw Philox words (and says why that is
    ``pca_first``'s answer), without building x, a generator per draw or a
    dual eigensolve, and without importing ``numpy.random``.

    Every argument is checked before any draw: a DomainError names ``dims`` when it is not
    iterable, a d, ``reps`` or ``base_seed`` that is not an integer (an integral float is read as
    one) or an ``alpha`` that is not real.
    """
    alpha = config.REAL.check("alpha", alpha, DomainError)
    reps = config.INTEGER.check("reps", reps, DomainError)
    base_seed = config.INTEGER.check("base_seed", base_seed, DomainError)
    try:
        dims = iter(dims)
    except TypeError:
        raise DomainError(f"dims must be an iterable of integers, got {dims!r}") from None
    dims = [config.INTEGER.check("d", d, DomainError) for d in dims]
    if not dims:
        raise DomainError("need at least one dimension")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    for i, d in enumerate(dims):
        if d in dims[:i]:
            raise DomainError(f"d={d} is listed twice")
    predicted = [theory.failure_probability(d, alpha) for d in dims]  # checks each (d, alpha)
    # stream_keys checks the seed and the rep count when called, and derives keys lazily.
    streams = [stream_keys(base_seed, di, range(reps)) for di in range(len(dims))]
    empirical = [counterexample_hits(d, alpha, keys) / reps for d, keys in zip(dims, streams)]
    return CounterexampleResult(
        alpha=alpha, reps=reps, dims=dims, empirical=empirical, predicted=predicted
    )


def emit_counterexample(result: CounterexampleResult, out_dir) -> tuple[Path, Path]:
    """Write ``counterexample.csv`` and ``counterexample.svg`` into ``out_dir``, creating it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def run_and_emit(cfg: config.ExperimentConfig) -> ExperimentResult:
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
    config.write_resolved_config(cfg, out / "config.resolved")
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

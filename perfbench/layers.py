"""Per-layer tracing of one in-process study.

``Tracer.patch`` wraps the public functions of each spcalab module under
the names their callers look them up by (``experiment.rspca``,
``estimators.select_lambda_bic``, ...), so every call records a span: name,
start, end and parent span.  Spans stay in flat arrays while the study runs
and are written out when it ends.  A span's self time is its duration minus
the durations of its children; calls nest without overlap in one process,
so the children's durations add up to the time they cover.

A call site that a later change moves or deletes is skipped, and its layer
then reads zero calls.
"""

from __future__ import annotations

import time
import traceback
from array import array
from pathlib import Path

import numpy as np


def _sample_bytes(counters, args, out):
    counters["model.sample_gaussian.bytes"] += out.x.shape[0] * out.x.shape[1] * 8


def _dual_flops(counters, args, out):
    d, n = np.shape(args[0])
    counters["eigen.dual_first_component.flops"] += 2 * d * n * n + 2 * d * n


def _rspca_counts(counters, args, out):
    trace = out[1]
    counters["estimators.rspca.iterations"] += trace.n_iterations
    counters["estimators.rspca.zero_terminated"] += int(trace.zero_terminated)


def _grid_points(counters, args, out):
    counters["metrics.select_lambda_bic.grid_points"] += len(out.values)


def _file_bytes(name):
    def count(counters, args, out):
        counters[f"{name}.bytes"] += Path(out).stat().st_size
    return count


#: (layer.function, call sites as (module, attribute), counter hook).
TRACED = (
    ("model.sample_gaussian", (("experiment", "sample_gaussian"),), _sample_bytes),
    ("model.sample_counterexample", (("experiment", "sample_counterexample"),), None),
    ("eigen.dual_first_component",
     (("experiment", "dual_first_component"), ("estimators", "dual_first_component")), _dual_flops),
    ("eigen.jacobi_eigh", (("eigen", "jacobi_eigh"),), None),
    ("estimators.rspca", (("experiment", "rspca"),), _rspca_counts),
    ("estimators.st_estimator", (("experiment", "st_estimator"),), None),
    ("estimators.oracle_estimator", (("experiment", "oracle_estimator"),), None),
    ("estimators.pca_first", (("experiment", "pca_first"),), None),
    ("penalties.threshold", (("estimators", "threshold"), ("metrics", "threshold")), None),
    ("metrics.select_lambda_bic",
     (("experiment", "select_lambda_bic"), ("estimators", "select_lambda_bic")), _grid_points),
    ("metrics.evaluate_estimate", (("experiment", "evaluate_estimate"),), None),
    ("experiment.run_and_emit", (("cli", "run_and_emit"),), None),
    ("experiment.run_experiment", (("experiment", "run_experiment"),), None),
    ("experiment.emit_csv", (("experiment", "emit_csv"),), _file_bytes("experiment.emit_csv")),
    ("experiment.emit_summary_csv", (("experiment", "emit_summary_csv"),),
     _file_bytes("experiment.emit_summary_csv")),
    ("experiment.run_counterexample", (("cli", "run_counterexample"),), None),
    ("experiment.emit_counterexample", (("cli", "emit_counterexample"),), None),
    ("figures.sweep_figure", (("experiment", "sweep_figure"),), None),
    ("figures.phase_figure", (("experiment", "phase_figure"),), None),
    ("figures.counterexample_figure", (("experiment", "counterexample_figure"),), None),
    ("cli.main", (("cli", "main"),), None),
)

#: Functions of the computational layers report calls and self time; the
#: harness, figures and CLI report self time.
CALLS = tuple(name for name, _, _ in TRACED
              if name.split(".")[0] in ("model", "eigen", "estimators", "penalties", "metrics"))
SELF_ONLY = tuple(name for name, _, _ in TRACED if name not in CALLS)
COUNTERS = (
    ("model.sample_gaussian.bytes", "B"),
    ("eigen.dual_first_component.flops", "flop"),
    ("estimators.rspca.iterations", "count"),
    ("estimators.rspca.zero_terminated", "count"),
    ("metrics.select_lambda_bic.grid_points", "count"),
    ("experiment.emit_csv.bytes", "B"),
    ("experiment.emit_summary_csv.bytes", "B"),
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    *[(f"{f}.{k}", u) for f in CALLS for k, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"{f}.self_s", "s") for f in SELF_ONLY],
    *COUNTERS,
    ("metrics.select_lambda_bic.calls_per_rep", "calls/rep"),
    ("figures.svg_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.study_s", "s"),
    ("trace.untraced_study_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span recorder for one single-process study."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counters = {name: 0 for name, _ in COUNTERS}

    def wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                self.start[i] = t0
                self.end[i] = t1
            if hook is not None:
                hook(self.counters, args, out)
            return out

        return traced

    def patch(self, modules: dict) -> list:
        """Wrap every traced function at its call sites; returns an undo list."""
        undo = []
        for name, sites, hook in TRACED:
            present = [(modules[m], attr) for m, attr in sites if hasattr(modules[m], attr)]
            if not present:
                continue
            wrapped = self.wrap(name, getattr(*present[0]), hook)
            for mod, attr in present:
                undo.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        return undo

    def self_times(self) -> dict[str, float]:
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        by_name = np.bincount(self.name, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, by_name.tolist()))

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self.name, minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))


def traced_study(argv: list[str], out_dir: Path, tasks: int, spans_path: Path) -> tuple[int, float, dict]:
    """Run ``spcalab.cli.main(argv)`` here with tracing; return (code, study_s, metrics)."""
    import spcalab.cli
    import spcalab.eigen
    import spcalab.estimators
    import spcalab.experiment
    import spcalab.metrics

    modules = {
        "cli": spcalab.cli, "eigen": spcalab.eigen, "estimators": spcalab.estimators,
        "experiment": spcalab.experiment, "metrics": spcalab.metrics,
    }
    tracer = Tracer()
    undo = tracer.patch(modules)
    try:
        t0 = time.perf_counter()
        try:
            code = spcalab.cli.main(argv)
        except Exception:  # a crash fails the study's operations, as a non-zero exit does
            traceback.print_exc()
            code = 1
        study_s = time.perf_counter() - t0
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
    tracer.save(spans_path)

    self_s, calls = tracer.self_times(), tracer.calls()
    metrics: dict[str, float] = {}
    for f in CALLS:
        metrics[f"{f}.calls"] = calls.get(f, 0)
        metrics[f"{f}.self_s"] = self_s.get(f, 0.0)
    for f in SELF_ONLY:
        metrics[f"{f}.self_s"] = self_s.get(f, 0.0)
    metrics.update(tracer.counters)
    metrics["metrics.select_lambda_bic.calls_per_rep"] = (
        calls.get("metrics.select_lambda_bic", 0) / tasks
    )
    metrics["figures.svg_bytes"] = sum(p.stat().st_size for p in Path(out_dir).glob("*.svg"))
    metrics["trace.spans"] = len(tracer.start)
    metrics["trace.study_s"] = study_s
    return code, study_s, metrics

"""Benchmark of the spcalab Monte-Carlo lab.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload phase-desk --seed 1 --seconds 25 --trace 0

``--trace 0`` runs whole studies through the ``spcalab`` CLI, each in a fresh
interpreter, until ``--seconds`` of study wall time have passed (at least two),
checks every output against computations made apart from the program, and
reports the end-to-end metrics as medians over the studies.  ``--trace 1``
runs the study once more inside this process with every module's public
functions wrapped, and reports the per-layer metrics.  ``--workload all``
with ``--trace both`` reruns everything.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Raw per-study figures and the run's environment go to ``.perfbench/``.
See perfbench/README.md.
"""

import os

# Every study runs under a fixed BLAS thread count.  This process sets it too,
# before numpy is imported, since OpenBLAS reads it once at load.
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREADS_ENV})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import (  # noqa: E402
    BLAS_THREADS,
    CROSS_BLAS_EVERY,
    CROSS_BLAS_REPS,
    CROSS_BLAS_SEED,
    CROSS_BLAS_THREADS,
    CROSS_BLAS_WORKLOAD,
    WORKLOADS,
)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

MIN_STUDIES = 2
#: No study starts after this long, so a slow machine still ends in time.
STUDY_WINDOW_S = 100.0
LAUNCH_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("reps_per_s", "1/s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Launch:
    """One CLI process: its timings, peak memory, exit code and outputs."""

    setup_s: float
    study_s: float
    wall_s: float
    rss_mb: float
    code: int
    files: dict[str, bytes]


@dataclass
class Tally:
    """Operations attempted and failed; ``unexpected`` leaves out cross-BLAS mismatches."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: set, note: str, expected: set = frozenset()):
        self.attempted += attempted
        self.failed += len(failed)
        self.unexpected += len(failed - expected)
        if failed:
            self.notes.append(f"{note}: {len(failed)} of {attempted} failed")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.suffix in (".csv", ".svg")}


def launch(argv: list[str], out_dir: Path, blas_threads: int = BLAS_THREADS) -> Launch:
    """Run ``spcalab`` with ``argv`` (or just import it) in a fresh interpreter."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    ready_file = out_dir.with_name(out_dir.name + ".ready")
    ready_file.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update({var: str(blas_threads) for var in BLAS_THREADS_ENV})
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(LAUNCHER), str(ready_file), *argv],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    killer = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, (proc.pid,))
    killer.start()
    try:
        proc.wait()
    finally:
        killer.cancel()
    t_end = time.monotonic()
    # Lines: ready time, spcalab.cli's path, peak RSS in KiB (after a study).
    lines = ready_file.read_text(encoding="utf-8").splitlines() if ready_file.exists() else []
    ready = float(lines[0]) if lines else math.nan
    if len(lines) > 1 and not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"spcalab was imported from {lines[1]}, not from {SRC}")
    return Launch(
        setup_s=ready - t0, study_s=t_end - ready, wall_s=t_end - t0,
        rss_mb=int(lines[2]) / 1024.0 if len(lines) > 2 else math.nan,
        code=proc.returncode, files=read_outputs(out_dir) if argv else {},
    )


def study_failures(spec, seed: int, files: dict, code: int) -> set:
    """Operations of one study that failed an output check."""
    if code != 0:
        return set(range(spec.operations))
    return checks.check(spec, seed, files)


def differing(spec, a: dict, b: dict) -> set:
    return checks.differing_operations(spec, a, b, sorted(set(a) | set(b)))


class CrossBlas:
    """paper-pair's comparison: fixed inputs under one and under two BLAS threads.

    The one-thread reference is run once per invocation; every round runs the
    two-thread study afresh and fails each replication whose rows differ.
    """

    def __init__(self, spec, out: Path, tally: Tally):
        self.spec = replace(spec, reps=CROSS_BLAS_REPS)
        self.out = out
        ref = launch(self.spec.argv(CROSS_BLAS_SEED, out / "blas1"), out / "blas1")
        self.reference = ref.files
        self.reference_failed = study_failures(self.spec, CROSS_BLAS_SEED, ref.files, ref.code)
        self.tally = tally

    def round(self) -> None:
        other = launch(self.spec.argv(CROSS_BLAS_SEED, self.out / "blas2"), self.out / "blas2",
                       blas_threads=CROSS_BLAS_THREADS)
        if other.code != 0:
            broken, mismatched = set(range(self.spec.operations)), set()
        else:
            broken = set(self.reference_failed)
            mismatched = checks.differing_operations(
                self.spec, self.reference, other.files, [self.spec.rows_file]) - broken
        self.tally.add(self.spec.operations, broken | mismatched, expected=mismatched,
                       note=f"cross-BLAS, {BLAS_THREADS} against {CROSS_BLAS_THREADS} threads")


def measure(name: str, spec, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """End-to-end run: whole rounds of studies until ``seconds`` of study wall time.

    A round is one study, or for paper-pair ``CROSS_BLAS_EVERY`` studies and
    one cross-BLAS comparison.  The metrics are medians over the studies.
    """
    out = OUT / name
    tally = Tally()
    cross = CrossBlas(spec, out, tally) if name == CROSS_BLAS_WORKLOAD else None
    per_round = CROSS_BLAS_EVERY if cross is not None else 1
    studies: list[Launch] = []
    first_failed: set = set()
    started = time.monotonic()
    while len(studies) < MIN_STUDIES or (
        sum(s.wall_s for s in studies) < seconds and time.monotonic() - started < STUDY_WINDOW_S
    ):
        for _ in range(per_round):
            run = launch(spec.argv(seed, out / "study"), out / "study")
            if not studies:
                failed = first_failed = study_failures(spec, seed, run.files, run.code)
            elif run.code == 0 and run.files == studies[0].files:
                failed = first_failed
            else:
                # Byte-identical outputs are required of every repeat.
                failed = study_failures(spec, seed, run.files, run.code) | differing(
                    spec, studies[0].files, run.files)
            tally.add(spec.operations, failed, f"study {len(studies) + 1}")
            studies.append(run)
        if cross is not None:
            cross.round()
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in studies),
        "wall_s": statistics.median(s.wall_s for s in studies),
        "reps_per_s": statistics.median(spec.replications / s.study_s for s in studies),
        "peak_rss_mb": statistics.median(s.rss_mb for s in studies),
    }
    raw = {
        "studies": [{k: getattr(s, k) for k in ("setup_s", "study_s", "wall_s", "rss_mb", "code")}
                    for s in studies],
    }
    return metrics, tally, raw


def trace(name: str, spec, seed: int) -> tuple[dict, Tally, dict]:
    """Per-layer run: one traced single-process study, checked against untraced ones."""
    out = OUT / name
    tally = Tally()
    everything = set(range(spec.operations))
    pooled = launch(spec.argv(seed, out / "pooled"), out / "pooled") if spec.workers > 1 else None
    # Untraced single-process studies just before and just after the traced one.
    untraced = [launch(spec.argv(seed, out / "untraced", workers=1), out / "untraced")]
    traced_dir = out / "traced"
    shutil.rmtree(traced_dir, ignore_errors=True)
    code, study_s, metrics = layers.traced_study(
        spec.argv(seed, traced_dir, workers=1), traced_dir, spec.replications, out / "spans.npz"
    )
    untraced.append(launch(spec.argv(seed, out / "untraced", workers=1), out / "untraced"))
    files = read_outputs(traced_dir)
    failed = study_failures(spec, seed, files, code)
    # Single-process output must equal the untraced runs' at any worker count.
    for other in filter(None, (*untraced, pooled)):
        failed |= everything if other.code else differing(spec, files, other.files)
    tally.add(spec.operations, failed, "traced study")
    if name == CROSS_BLAS_WORKLOAD:
        CrossBlas(spec, out, tally).round()
    baseline = statistics.median(u.study_s for u in untraced)
    metrics["trace.untraced_study_s"] = baseline
    metrics["trace.overhead_s"] = study_s - baseline
    raw = {"traced_study_s": study_s, "untraced_study_s": [u.study_s for u in untraced],
           "pooled_study_s": pooled.study_s if pooled else None}
    return metrics, tally, raw


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    config = " ".join(str(blas.get("openblas configuration", "")).split())
    return f"{blas.get('name')} {blas.get('version')}" + (f" ({config})" if config else "")


def environment(name: str, spec, seed: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "workers": spec.workers,
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_line(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def preflight() -> None:
    if not (SRC / "spcalab" / "cli.py").is_file():
        raise BenchError(f"no spcalab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import spcalab

    if not Path(spcalab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"spcalab was imported from {spcalab.__file__}, not from {SRC}")
    # Compiles the bytecode, so that no measured launch pays for it.
    if launch([], OUT / "warmup").code != 0:
        raise BenchError("the spcalab CLI does not import")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = WORKLOADS[name]
    env = environment(name, spec, seed)
    if traced:
        values, tally, raw = trace(name, spec, seed)
        units = layers.PER_LAYER
    else:
        values, tally, raw = measure(name, spec, seed, seconds)
        units = END_TO_END
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "result": result, "notes": tally.notes, "raw": raw}
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"== {name} (seed {seed}, trace {int(traced)})")
    print("environment " + json.dumps(env))
    for note in tally.notes:
        print(f"note {note}")
    for k, u in units:
        print(f"{k:<44} {values[k]:>14.6g} {u}")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}, correct {result['correct']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args(argv)
    try:
        preflight()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = (False, True) if args.trace == "both" else (args.trace == "1",)
        results = {(n, t): run_one(n, args.seed, args.seconds, t) for n in names for t in modes}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for (n, _), r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: the CLI flags each study receives and the
shape the output checks expect from it.

An operation is one Monte-Carlo replication, a (pair, rep) task, numbered
``pair_index * reps + rep``; for the counterexample it is one dimension of
the d grid, numbered by its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

PHASE_PAIRS = tuple((a, b) for a in (0.2, 0.4, 0.6, 0.8) for b in (0.0, 0.1, 0.3, 0.5, 0.7))
#: The paper's two regimes: consistent (0.6, 0.1) and strongly inconsistent (0.2, 0.7).
PAPER_REGIMES = ((0.6, 0.1), (0.2, 0.7))


@dataclass(frozen=True)
class Study:
    """A ``sweep``/``bic``/``phase`` run; d, n, pairs and methods as the checks expect."""

    rows_file: ClassVar[str] = "replications.csv"
    command: str
    pairs: tuple[tuple[float, float], ...]
    d: int
    reps: int
    methods: tuple[str, ...]
    workers: int
    profile: str | None = None
    n: int = 25
    lambda_points: int = 50

    @property
    def sweep(self) -> bool:
        return self.command == "sweep"

    @property
    def operations(self) -> int:
        return len(self.pairs) * self.reps

    @property
    def replications(self) -> int:
        return self.operations

    def argv(self, seed: int, out, workers: int | None = None) -> list[str]:
        profile = ["--profile", self.profile] if self.profile else []
        return [
            self.command, *profile,
            "--pairs", ",".join(f"{a:g}:{b:g}" for a, b in self.pairs),
            "--d", str(self.d),
            "--reps", str(self.reps),
            "--method", ",".join(self.methods),
            "--threads", str(self.workers if workers is None else workers),
            "--seed", str(seed),
            "--out", str(out),
        ]


@dataclass(frozen=True)
class Counterexample:
    """A ``counterexample`` study on the default d grid: one n=1 draw per replication."""

    rows_file: ClassVar[str] = "counterexample.csv"
    dims: tuple[int, ...] = (50, 100, 200, 400)
    alpha: float = 0.5
    reps: int = 10000
    workers: int = 1

    @property
    def operations(self) -> int:
        return len(self.dims)

    @property
    def replications(self) -> int:
        return len(self.dims) * self.reps

    def argv(self, seed: int, out, workers: int | None = None) -> list[str]:
        return [
            "counterexample",
            "--d-grid", ",".join(map(str, self.dims)),
            "--alpha", repr(self.alpha),
            "--reps", str(self.reps),
            "--seed", str(seed),
            "--out", str(out),
        ]


WORKLOADS = {
    # Small studies, 0.6 to 1.5 s each, so that a run holds 16 or more and
    # its medians ride out slow stretches of a shared host.  The
    # desk phase study runs 2 of its 50 replications per pair; it is the
    # only workload using the pool.
    "phase-desk": Study("phase", PHASE_PAIRS, d=2000, reps=2, methods=("rspca",),
                        workers=2, profile="desk"),
    "sweep-desk": Study("sweep", PAPER_REGIMES, d=2000, reps=2, methods=("st", "rspca"),
                        workers=1, profile="desk"),
    "paper-pair": Study("bic", PAPER_REGIMES, d=10000, reps=3, methods=("rspca", "oracle"),
                        workers=1),
    # The default d grid at 2,500 of the default 10,000 draws per d.
    "counterexample": Counterexample(reps=2500),
}

#: BLAS threads every timed study runs under.
BLAS_THREADS = 1

#: paper-pair's comparison run: the same study on fixed inputs, under one and
#: under two BLAS threads.  The seed is not the workload's, so the number of
#: replications that differ is the same in every run.
CROSS_BLAS_WORKLOAD = "paper-pair"
CROSS_BLAS_SEED = 20260809
CROSS_BLAS_REPS = 3
#: Timed paper-pair studies per cross-BLAS comparison.
CROSS_BLAS_EVERY = 4
CROSS_BLAS_THREADS = 2

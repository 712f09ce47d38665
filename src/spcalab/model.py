"""Spiked population models and samplers.

The default construction is a single-component spiked covariance in
dimension d with sample size n:

* eigenvalues ``(d**alpha, 1, ..., 1)``;
* leading eigenvector u1 with ``m = floor(d**beta)`` non-zero entries, all
  equal to ``m**-0.5`` and occupying the first m coordinates;
* eigenvectors 2..m proportional to ``(1, ..., 1, -(k), 0, ..., 0)`` (k ones
  followed by -k), i.e. a Helmert-style completion of the head block;
* eigenvectors beyond m equal to coordinate vectors e_i.

Eigenvectors are materialized lazily from this pattern; no dense d x d
basis is ever stored.  Sampling accumulates the identity tail directly as
i.i.d. Gaussian noise and applies the head completion in closed form, so
the cost is O(n*d).

Randomness: all samplers take an integer seed or a ``numpy.random
.SeedSequence`` and drive a counter-based Philox generator through numpy's
``Generator`` (normals via numpy's ziggurat transform).  For a fixed numpy
version, identical seeds give bit-identical samples on any platform and
under any scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import DegenerateInputError, DimensionError, DomainError

SeedLike = "int | np.random.SeedSequence"


def _make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(ss))


def _seed_repr(seed) -> str:
    if isinstance(seed, np.random.SeedSequence):
        return f"{seed.entropy}:{tuple(seed.spawn_key)}"
    return str(int(seed))


@dataclass(frozen=True)
class Provenance:
    """Where a data matrix came from: model id, seed, replication index."""

    model: str
    seed: str
    replication: int | None = None


@dataclass(frozen=True)
class DataMatrix:
    """A d x n column-sample matrix plus generation provenance."""

    x: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        if self.x.ndim != 2:
            raise DimensionError(f"data matrix must be 2-d, got shape {self.x.shape}")
        if not np.isfinite(self.x).all():
            raise DomainError("data matrix contains non-finite entries")

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def as_matrix(x) -> np.ndarray:
    """Accept a DataMatrix or a plain array and return the ndarray view."""
    if isinstance(x, DataMatrix):
        return x.x
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SpikedSpec:
    """Parameters of the spiked model in the module docstring.

    The tail eigenvalues are fixed at 1 and every non-zero loading of u1 is
    ``m**-0.5``, so (d, n, alpha, beta) determine the population.

    Attributes
    ----------
    d, n : int
        Ambient dimension and sample size.
    alpha : float
        Spike index; the leading eigenvalue is ``d**alpha``.
    beta : float
        Sparsity index; the leading eigenvector has ``floor(d**beta)``
        non-zero entries.
    """

    d: int
    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.alpha <= 1.5:
            raise DomainError(f"alpha must lie in [0, 1.5], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")
        m = self.support_size
        if not 1 <= m <= self.d:
            raise DomainError(f"support size {m} outside [1, {self.d}]")

    @property
    def support_size(self) -> int:
        """Number of non-zero entries of u1, floor(d**beta)."""
        return int(math.floor(self.d ** self.beta))

    @property
    def lambda1(self) -> float:
        return self.d ** self.alpha


@dataclass(frozen=True)
class EigenSystem:
    """Population eigensystem, materialized lazily from its pattern."""

    spec: SpikedSpec

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        lam = np.ones(self.spec.d)
        lam[0] = self.spec.lambda1
        return lam

    @property
    def u1_support(self) -> np.ndarray:
        return np.arange(self.spec.support_size)

    def eigenvector(self, i: int) -> np.ndarray:
        """Materialize the i-th population eigenvector (0-based)."""
        d = self.spec.d
        m = self.spec.support_size
        if not 0 <= i < d:
            raise DomainError(f"eigenvector index {i} outside [0, {d})")
        u = np.zeros(d)
        if i == 0:
            u[:m] = m ** -0.5
        elif i < m:
            c = 1.0 / math.sqrt(i * (i + 1.0))
            u[:i] = c
            u[i] = -i * c
        else:
            u[i] = 1.0
        return u

    @property
    def u1(self) -> np.ndarray:
        return self.eigenvector(0)


def _helmert_head_times(z: np.ndarray) -> np.ndarray:
    """H z for the m x (m-1) head block H of eigenvectors 2..m, in O(m n).

    Column k of H (k = 1..m-1) is c_k on rows 0..k-1 and -k c_k on row k,
    with c_k = 1/sqrt(k(k+1)).  So row i of H z is the suffix sum
    sum_{k>i} c_k z_k minus i c_i z_i.  numpy's cumsum adds sequentially,
    so unlike a BLAS product the bytes do not depend on the thread count.
    """
    k = np.arange(1.0, z.shape[0] + 1.0)
    cz = (1.0 / np.sqrt(k * (k + 1.0)))[:, None] * z
    hz = np.zeros((z.shape[0] + 1, z.shape[1]))
    hz[:-1] = np.cumsum(cz[::-1], axis=0)[::-1]
    hz[1:] -= k[:, None] * cz
    return hz


def build_eigensystem(spec: SpikedSpec) -> EigenSystem:
    """Construct the population eigensystem for a spiked spec."""
    return EigenSystem(spec)


def sample_gaussian(system: EigenSystem, seed, replication: int | None = None) -> DataMatrix:
    """Draw X = d**(alpha/2) u1 z1^T + sum_{i>=2} u_i z_i^T.

    The z_i are i.i.d. standard normal n-vectors.  Draw order is fixed:
    z1 first, then the (m-1) x n head-completion block, then the
    (d-m) x n identity tail.  The tail contribution is accumulated as
    direct Gaussian noise (u_i = e_i there), keeping the cost O(n*d).
    """
    spec = system.spec
    d, n, m = spec.d, spec.n, spec.support_size
    rng = _make_rng(seed)

    z1 = rng.standard_normal(n)
    x = np.empty((d, n))
    # u1's head entries all equal m**-0.5, so its d-vector is never formed.
    x[:m] = (spec.lambda1 ** 0.5) * (m ** -0.5 * z1)
    if m > 1:
        x[:m] += _helmert_head_times(rng.standard_normal((m - 1, n)))
    if m < d:
        rng.standard_normal(out=x[m:])

    prov = Provenance(
        model=f"spiked(d={d},n={n},alpha={spec.alpha},beta={spec.beta})",
        seed=_seed_repr(seed),
        replication=replication,
    )
    return DataMatrix(x=x, provenance=prov)


def counterexample_tail_probability(d: int, alpha: float) -> float:
    """d**(-(alpha+1)/2), the chance of each sign of a counterexample tail coordinate.

    Raises DomainError when (d, alpha) admits no such law, including when
    the tail magnitude does not exceed the spike in floating point.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    p = d ** (-(alpha + 1.0) / 2.0)
    if 2.0 * p > 1.0:
        raise DomainError(f"tail probabilities 2*d**-((alpha+1)/2) = {2 * p:.4f} exceed 1")
    # (alpha+1)/4 > alpha/2 for every alpha < 1, but near alpha = 1 the two
    # powers can round to the same float; every draw would then tie, and a
    # tie goes to the spike.
    if not d ** ((alpha + 1.0) / 4.0) > d ** (alpha / 2.0):
        raise DomainError(
            f"tail magnitude d**((alpha+1)/4) does not exceed the spike d**(alpha/2)"
            f" in floating point at d={d}, alpha={alpha!r}"
        )
    return p


def sample_counterexample(d: int, alpha: float, n: int, seed, replication: int | None = None) -> DataMatrix:
    """Discrete heavy-coordinate sampler that defeats thresholding.

    Coordinates are independent: the first is +-d**(alpha/2) with equal
    probability, and each of the others is +-d**((alpha+1)/4) with
    probability d**(-(alpha+1)/2) each, else 0.

    Note: the tail coordinates have second moment exactly 2 (direct
    evaluation of the two-point mass), not 1.
    """
    p = counterexample_tail_probability(d, alpha)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")

    rng = _make_rng(seed)
    u = rng.random((d, n))
    x = np.zeros((d, n))
    spike = d ** (alpha / 2.0)
    x[0] = np.where(u[0] < 0.5, spike, -spike)
    mag = d ** ((alpha + 1.0) / 4.0)
    x[1:] = np.where(u[1:] < p, mag, np.where(u[1:] < 2.0 * p, -mag, 0.0))
    prov = Provenance(
        model=f"counterexample(d={d},n={n},alpha={alpha})",
        seed=_seed_repr(seed),
        replication=replication,
    )
    return DataMatrix(x=x, provenance=prov)


def counterexample_hits(d: int, alpha: float, seeds) -> int:
    """How many n=1 counterexample draws, one per seed, have argmax |x_i| at i = 0.

    Each draw is scored from the uniforms ``sample_counterexample`` would
    build it from, without building it: ``random(d)`` gives the same
    uniforms as the sampler's ``random((d, 1))``.  Tail coordinate i is
    zero exactly when its uniform is >= 2p, and
    ``counterexample_tail_probability`` ensures that a non-zero tail
    magnitude strictly exceeds the spike's.  So the first coordinate
    carries the largest |entry| exactly when every tail uniform is >= 2p.
    This is also ``pca_first``'s answer: at n=1 the 1 x 1 dual has
    eigenvector [1], so the estimate is x / ||x||, with the argmax of |x|.
    """
    zero_from = 2.0 * counterexample_tail_probability(d, alpha)
    hits = 0
    for seed in seeds:
        if _make_rng(seed).random(d)[1:].min() >= zero_from:
            hits += 1
    return hits


def failure_probability(d: int, alpha: float) -> float:
    """Probability that the spike coordinate dominates, (1 - 2 d**-((a+1)/2))**(d-1).

    This is the chance that every tail coordinate of one draw from the
    counterexample model is zero, which is the only way the first
    coordinate can carry the largest |entry|.  It decays to 0 as d grows.
    Raises DomainError where ``sample_counterexample`` does.
    """
    p = counterexample_tail_probability(d, alpha)
    return float((1.0 - 2.0 * p) ** (d - 1))


class Sphericity(NamedTuple):
    """Sphericity epsilon and the statistic (d*epsilon)**-1."""

    epsilon: float
    inv_d_epsilon: float


def sphericity(eigenvalues) -> Sphericity:
    """Measure of sphericity (sum lam)^2 / (d * sum lam^2) of a spectrum.

    Also returns (d*eps)**-1 = sum(lam^2)/ (sum lam)^2, the quantity whose
    vanishing makes the dual matrix concentrate.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise DimensionError("eigenvalues must be a non-empty vector")
    if np.any(lam < 0):
        raise DomainError("eigenvalues must be non-negative")
    s1 = float(lam.sum())
    s2 = float(np.square(lam).sum())
    if s2 == 0.0:
        raise DegenerateInputError("all eigenvalues are zero")
    return Sphericity(epsilon=s1 * s1 / (lam.size * s2), inv_d_epsilon=s2 / (s1 * s1))

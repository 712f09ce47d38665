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
under any scheduling.  A Philox stream is fixed by its 128-bit key alone,
so the counterexample scorer takes keys: ``stream_keys`` derives the keys
``SeedSequence(base_seed, spawn_key=(d_index, rep))`` would give, for a
block of reps per numpy pass, and each draw's generator is keyed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .exceptions import DimensionError, DomainError

SeedLike = "int | np.random.SeedSequence"


def _make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DataMatrix:
    """A finite d x n column-sample matrix."""

    x: np.ndarray

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


def sample_gaussian(system: EigenSystem, seed) -> DataMatrix:
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
    return DataMatrix(x=x)


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


def sample_counterexample(d: int, alpha: float, n: int, seed) -> DataMatrix:
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
    return DataMatrix(x=x)


#: Reps whose keys ``stream_keys`` derives in one numpy pass.  It bounds the
#: key buffer, so memory does not grow with the number of reps.
KEY_BLOCK = 4096

# numpy's SeedSequence: pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# Every operand of the hash is a uint32 scalar or array, so each step wraps in
# uint32 under numpy 1's value-based promotion and numpy 2's NEP 50 alike.
_SHIFT = np.uint32(16)


def _uint32_words(x: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits a non-negative int into."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash_steps(init: int, mult: int):
    """SeedSequence's running hash constant, as (xor, multiplier) per hash step."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value, steps):
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _SHIFT


def _philox_keys(entropy: list) -> np.ndarray:
    """``SeedSequence`` on ``entropy`` words, then ``generate_state(2, np.uint64)``.

    The last word is a uint32 array and every other word a uint32 scalar;
    row r of the (len(last), 2) result is the key for entropy ending in
    ``last[r]``.  The pool is filled and mixed as numpy does, in uint32
    arithmetic that wraps.
    """
    steps = _hash_steps(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):
        pool = [_hashmix(word, steps) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(word, steps))
        steps = _hash_steps(_INIT_B, _MULT_B)
        state = np.stack([_hashmix(word, steps) for word in pool], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def stream_keys(base_seed: int, d_index: int, reps: range):
    """The Philox key of each rep in ``reps``, two uint64 words, lazily.

    Rep r's key is ``SeedSequence(base_seed, spawn_key=(d_index, r))
    .generate_state(2, np.uint64)``; keys are derived ``KEY_BLOCK`` reps at
    a time.  Each rep must fit one uint32 word, so that every rep of a
    block hashes the same number of words.  The arguments are checked when
    this is called, before any key is derived.
    """
    if base_seed < 0:
        raise DomainError(f"seed must be >= 0, got {base_seed}")
    if d_index < 0:
        raise DomainError(f"d_index must be >= 0, got {d_index}")
    if reps.start < 0 or reps.step != 1:
        raise DomainError(f"reps must be a unit-step range from 0 up, got {reps}")
    if reps.stop > 2**32:
        raise DomainError(f"reps must be <= 2**32, got {reps.stop}")
    # A spawned SeedSequence pads its entropy with zeros to the pool size.
    prefix = _uint32_words(base_seed)
    prefix += [0] * (_POOL_SIZE - len(prefix))
    prefix = [np.uint32(w) for w in prefix + _uint32_words(d_index)]
    blocks = (
        np.arange(start, min(start + KEY_BLOCK, reps.stop), dtype=np.uint64).astype(np.uint32)
        for start in range(reps.start, reps.stop, KEY_BLOCK)
    )
    return (key for block in blocks for key in _philox_keys(prefix + [block]))


@cache
def _keyed_seed() -> type:
    """An ``ISeedSequence`` whose state is a precomputed Philox key.

    Built on first use: defining it at import time would import
    ``numpy.random`` into every ``import spcalab``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeyedSeed(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for exactly its key: two uint64 words.
            return self.key

    return KeyedSeed


def counterexample_hits(d: int, alpha: float, keys) -> int:
    """How many n=1 counterexample draws, one per Philox key, have argmax |x_i| at i = 0.

    ``keys`` are 128-bit Philox keys, two uint64 words each, as
    ``stream_keys`` yields them; each draw reads a Philox stream under its key.
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
    keyed_seed = _keyed_seed()
    generator, philox = np.random.Generator, np.random.Philox
    hits = 0
    for key in keys:
        if generator(philox(keyed_seed(key))).random(d)[1:].min() >= zero_from:
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


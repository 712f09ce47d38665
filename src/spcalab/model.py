"""Spiked population models and samplers.

The default construction is a single-component spiked covariance in
dimension d with sample size n:

* eigenvalues ``(d**alpha, 1, ..., 1)``;
* leading eigenvector u1 with ``m = floor(d**beta)`` non-zero entries, all
  equal to ``m**-0.5`` and occupying the first m coordinates;
* eigenvectors 2..m proportional to ``(1, ..., 1, -(k), 0, ..., 0)`` (k ones
  followed by -k), i.e. a Helmert-style completion of the head block;
* eigenvectors beyond m equal to coordinate vectors e_i.

The studies read only u1 and its support, so ``SpikedSpec`` forms just
u1 (in closed form) and no other eigenvector or the d x d basis.  Sampling
accumulates the identity tail directly as i.i.d. Gaussian noise and
applies the head completion in closed form, so the cost is O(n*d).

Randomness: ``sample_gaussian`` takes a non-negative integer seed or a
``numpy.random.SeedSequence`` and drives a counter-based Philox generator
through numpy's ``Generator`` (normals via numpy's ziggurat transform).
For a fixed numpy version, identical seeds give bit-identical samples on
any platform and under any scheduling.

The counterexample scorer does not go through ``numpy.random`` at all; it
recomputes in numpy arithmetic the words numpy's Philox would give.  A
Philox stream is fixed by its 128-bit key, and its blocks are a pure
function of (key, counter).  So ``stream_keys`` derives the keys
``SeedSequence(base_seed, spawn_key=(d_index, rep))`` would give, a block
of reps per numpy pass, and ``counterexample_hits`` computes the blocks of
all those keys together.  Keying one ``Generator(Philox(key))`` per draw
cost 6.3 us of a 10-12.5 us draw at d = 50-400 (2-core Xeon, numpy 2.4),
and the study paid the ``numpy.random`` import on top; the batched scorer
takes 1.6-4.2 us per draw there and stops reading a draw's words at its
first non-zero tail coordinate.  Both hand-written kernels are checked
word for word against numpy's in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theory
from .exceptions import (DimensionError, DomainError, NumericError, _check_integers, _check_real,
                         _data_matrix)


def _check_seed(seed) -> None:
    """DomainError unless ``seed`` is a non-negative integer; a bool is not one."""
    _check_integers(seed=seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class DataMatrix:
    """A finite d x n column-sample matrix, stored as a float array."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _data_matrix(self.x))
        if not np.isfinite(self.x).all():
            raise NumericError("data matrix contains non-finite entries")

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SpikedSpec:
    """Parameters of the spiked model in the module docstring, and its u1 and support.

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
        _check_integers(d=self.d, n=self.n)
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        _check_real(alpha=self.alpha, beta=self.beta)
        if not 0.0 <= self.alpha <= 1.5:
            raise DomainError(f"alpha must lie in [0, 1.5], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")
        try:
            m = self.support_size
        except OverflowError as exc:  # d ** beta: a log-space floor would move at exact powers
            raise DomainError(f"d ** beta overflows a float ({exc})") from exc
        if not 1 <= m <= self.d:
            raise DomainError(f"support size {m} outside [1, {self.d}]")

    @property
    def support_size(self) -> int:
        """Number of non-zero entries of u1, floor(d**beta)."""
        return int(math.floor(self.d ** self.beta))

    @property
    def lambda1(self) -> float:
        return self.d ** self.alpha

    @property
    def u1_support(self) -> np.ndarray:
        return np.arange(self.support_size)

    @property
    def u1(self) -> np.ndarray:
        """The leading eigenvector: ``m**-0.5`` on the first m coordinates, else 0."""
        m = self.support_size
        u = np.zeros(self.d)
        u[:m] = m ** -0.5
        return u


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


def build_eigensystem(spec: SpikedSpec) -> SpikedSpec:
    """``spec`` itself, for perfbench's checks, which still sample in two steps.

    No module of the package calls it; ROADMAP item 1 deletes it together
    with perfbench's call.
    """
    return spec


def sample_gaussian(spec: SpikedSpec, seed) -> DataMatrix:
    """Draw X = d**(alpha/2) u1 z1^T + sum_{i>=2} u_i z_i^T.

    The z_i are i.i.d. standard normal n-vectors.  Draw order is fixed:
    z1 first, then the (m-1) x n head-completion block, then the
    (d-m) x n identity tail.  The tail contribution is accumulated as
    direct Gaussian noise (u_i = e_i there), keeping the cost O(n*d).
    """
    d, n, m = spec.d, spec.n, spec.support_size
    if not isinstance(seed, np.random.SeedSequence):
        _check_seed(seed)  # numpy would read True as 1 and seed None from OS entropy
    rng = np.random.Generator(np.random.Philox(seed))

    z1 = rng.standard_normal(n)
    x = np.empty((d, n))
    # u1's head entries all equal m**-0.5, so its d-vector is never formed.
    x[:m] = (spec.lambda1 ** 0.5) * (m ** -0.5 * z1)
    if m > 1:
        x[:m] += _helmert_head_times(rng.standard_normal((m - 1, n)))
    if m < d:
        rng.standard_normal(out=x[m:])
    return DataMatrix(x=x)


#: Reps whose keys ``stream_keys`` derives, and whose draws
#: ``counterexample_hits`` scores, together.  It bounds the key buffer, so
#: memory does not grow with the number of reps.
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
    """The Philox keys of the reps in ``reps``, lazily, ``KEY_BLOCK`` reps at a time.

    Each block is a (k, 2) uint64 array, k <= ``KEY_BLOCK``, whose row for
    rep r is ``SeedSequence(base_seed, spawn_key=(d_index, r))
    .generate_state(2, np.uint64)``.  Each rep must fit one uint32 word, so
    that every rep of a block hashes the same number of words.  The
    arguments are checked when this is called, before any key is derived.
    """
    _check_seed(base_seed)
    _check_integers(d_index=d_index)
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
    return (_philox_keys(prefix + [block]) for block in blocks)


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: the
# Random123 multipliers and Weyl key increments.
_PHILOX_MULT = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32, _HALF = np.uint64(_MASK32), np.uint64(32)
# A double from ``Generator.random`` is its word's top 53 bits times 2**-53.
_TO_53_BITS = np.uint64(11)

#: Most and fewest Philox blocks (one key, one counter) in one numpy pass of
#: ``counterexample_hits``.  The most caps its temporaries at any d and any
#: number of keys, and is at least twice ``KEY_BLOCK``, so every pass holds
#: a block of each key.  A one-block pass took 200-220 us and a 4,096- to
#: 8,192-block pass 133-180 ns per block (2-core Xeon, numpy 2.4), so a pass
#: costs the call overhead of 1,200-1,500 blocks of work, and one with few
#: keys left reads more of each.  The default counterexample grid at 2,500
#: reps took 17.7-18.5 ms (best of 25) at every fewest from 64 to 2,048.
_PASS_BLOCKS = 8192
_PASS_MIN_BLOCKS = 256


def _mulhilo(m: np.uint64, x):
    """The high and low 64-bit words of m * x, from 32-bit halves."""
    mh, ml = m >> _HALF, m & _LOW32
    xh, xl = x >> _HALF, x & _LOW32
    u = mh * xl + (ml * xl >> _HALF)
    v = ml * xh + (u & _LOW32)
    return mh * xh + (u >> _HALF) + (v >> _HALF), m * x


def _philox_words(keys: np.ndarray, start: int, width: int) -> np.ndarray:
    """Words ``4*start`` up to ``4*(start+width)`` of each key's Philox stream.

    ``keys`` is a (k, 2) uint64 array; the result is (k, 4*width).  numpy's
    Philox raises its counter before each block, so block j is the counter
    (j+1, 0, 0, 0) under the key, and its words come out in order v0..v3.
    The counter's zero words stay scalars, so the first rounds run on
    arrays of the key or block count alone.
    """
    k0, k1 = keys[:, :1], keys[:, 1:]
    x0 = np.arange(start + 1, start + width + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.uint64(0)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0, k1 = k0 + _PHILOX_BUMP[0], k1 + _PHILOX_BUMP[1]
            hi0, lo0 = _mulhilo(_PHILOX_MULT[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_MULT[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(keys.shape[0], 4 * width)


def _zero_floor(two_p: float) -> np.uint64:
    """ceil(two_p * 2**53): the least ``w >> 11`` whose uniform is >= two_p.

    ``(w >> 11) * 2**-53 >= two_p`` scales exactly by a power of two, so it
    holds exactly when the integer ``w >> 11`` reaches this floor.  The
    floor is at most 2**53, so the test never overflows.
    """
    return np.uint64(math.ceil(two_p * 2.0**53))


def _all_zero(words: np.ndarray, floor: np.uint64) -> np.ndarray:
    """Per row of ``words``: does every word read a uniform >= 2p?"""
    return words.min(axis=1) >> _TO_53_BITS >= floor


def counterexample_hits(d: int, alpha: float, keys) -> int:
    """How many n=1 counterexample draws, one per Philox key, have argmax |x_i| at i = 0.

    ``keys`` is an iterable of (k, 2) uint64 blocks of 128-bit Philox keys,
    k <= ``KEY_BLOCK``, as ``stream_keys`` yields them; each draw reads a
    Philox stream under its key.
    A draw's coordinates are independent: the first is +-d**(alpha/2), and
    tail coordinate i is +-d**((alpha+1)/4) with probability p each, else 0,
    read from the i-th uniform of ``Generator.random(d)``; it is zero
    exactly when that uniform is >= 2p.  ``theory.counterexample_tail_probability``
    gives p and ensures that a non-zero tail magnitude strictly exceeds the
    spike's.  So the first coordinate carries the largest |entry| exactly
    when every tail uniform is >= 2p.
    This is also ``pca_first``'s answer: at n=1 the 1 x 1 dual has
    eigenvector [1], so the estimate is x / ||x||, with the argmax of |x|.

    The keys of a block are scored together.  Their streams' words are
    computed a few Philox blocks at a time, for the keys still alive, in
    passes whose width doubles within ``_PASS_BLOCKS`` blocks per pass; a
    key drops out at its first non-zero tail coordinate, so most draws read
    only a few of their d words.
    """
    floor = _zero_floor(2.0 * theory.counterexample_tail_probability(d, alpha))
    n_blocks = -(-d // 4)
    hits = 0
    for alive in keys:
        if len(alive) > KEY_BLOCK:  # so that a pass holds a Philox block of every key
            raise DimensionError(f"a key block holds at most {KEY_BLOCK} keys, got {len(alive)}")
        start, width = 0, 1
        while (n := alive.shape[0]) and start < n_blocks:
            width = min(max(width, _PASS_MIN_BLOCKS // n), _PASS_BLOCKS // n, n_blocks - start)
            words = _philox_words(alive, start, width)
            # Word 0 is the spike's coordinate, and words from d on are unread.
            alive = alive[_all_zero(words[:, int(start == 0):d - 4 * start], floor)]
            start += width
            width *= 2
        hits += alive.shape[0]
    return hits

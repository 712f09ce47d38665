"""Spiked-model construction and sampler tests.

Moment checks are Monte-Carlo with pinned seeds; the tolerances leave
several standard errors of headroom at the chosen sample sizes.
"""

import hashlib
import math

import numpy as np
import pytest

from spcalab import (
    DomainError,
    SpikedSpec,
    build_eigensystem,
    failure_probability,
    model,
    sample_counterexample,
    sample_gaussian,
)
from spcalab.model import (
    KEY_BLOCK,
    counterexample_hits,
    counterexample_tail_probability,
    stream_keys,
)


class TestSpikedSpec:
    def test_support_size(self):
        assert SpikedSpec(4, 5, 0.5, 0.5).support_size == 2
        assert SpikedSpec(2000, 25, 0.6, 0.1).support_size == 2
        assert SpikedSpec(2000, 25, 0.2, 0.7).support_size == 204
        assert SpikedSpec(10, 5, 0.5, 0.0).support_size == 1
        assert SpikedSpec(10, 5, 0.5, 1.0).support_size == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, n=5, alpha=0.5, beta=0.5),
            dict(d=10, n=0, alpha=0.5, beta=0.5),
            dict(d=10, n=5, alpha=-0.1, beta=0.5),
            dict(d=10, n=5, alpha=1.6, beta=0.5),
            dict(d=10, n=5, alpha=0.5, beta=1.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SpikedSpec(**kwargs)


class TestEigenSystem:
    def test_small_construction(self):
        sys = build_eigensystem(SpikedSpec(4, 5, 0.5, 0.5))
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(sys.eigenvector(0), [s, s, 0, 0], atol=1e-15)
        np.testing.assert_allclose(sys.eigenvector(1), [s, -s, 0, 0], atol=1e-15)
        np.testing.assert_array_equal(sys.eigenvector(2), [0, 0, 1, 0])
        np.testing.assert_array_equal(sys.eigenvector(3), [0, 0, 0, 1])
        np.testing.assert_array_equal(sys.eigenvalues, [2.0, 1.0, 1.0, 1.0])

    def test_beta_zero_gives_first_coordinate(self):
        sys = build_eigensystem(SpikedSpec(50, 5, 0.6, 0.0))
        u1 = sys.u1
        assert u1[0] == 1.0
        assert not u1[1:].any()

    def test_u1_entries_exact(self):
        sys = build_eigensystem(SpikedSpec(300, 5, 0.4, 0.7))
        m = sys.spec.support_size
        u1 = sys.u1
        assert np.all(u1[:m] == m**-0.5)
        assert np.all(u1[m:] == 0.0)
        assert list(sys.u1_support) == list(range(m))

    def test_head_block_gram_is_identity(self):
        sys = build_eigensystem(SpikedSpec(300, 5, 0.4, 0.7))
        m = sys.spec.support_size
        basis = np.column_stack([sys.eigenvector(i) for i in range(m)])
        np.testing.assert_allclose(basis.T @ basis, np.eye(m), atol=1e-12)

    def test_trace_identity(self):
        spec = SpikedSpec(2000, 25, 0.6, 0.1)
        sys = build_eigensystem(spec)
        assert sys.eigenvalues[0] == 2000**0.6
        assert np.all(sys.eigenvalues[1:] == 1.0)
        assert math.fsum(sys.eigenvalues) == 2000**0.6 + 1999.0

    def test_eigenvector_index_bounds(self):
        sys = build_eigensystem(SpikedSpec(10, 5, 0.5, 0.5))
        with pytest.raises(DomainError):
            sys.eigenvector(10)


class TestSampleGaussian:
    def test_bit_reproducible(self):
        sys = build_eigensystem(SpikedSpec(100, 10, 0.6, 0.3))
        a = sample_gaussian(sys, 1234)
        b = sample_gaussian(sys, 1234)
        assert a.d == 100 and a.n == 10
        assert a.x.tobytes() == b.x.tobytes()
        c = sample_gaussian(sys, 1235)
        assert a.x.tobytes() != c.x.tobytes()

    def test_pinned_bytes(self):
        # A spike head of m = 7 rows plus a Helmert block and identity tail.
        # The digest holds for numpy's Philox/ziggurat stream, which is
        # stable across platforms for a fixed numpy version.
        spec = SpikedSpec(50, 6, 0.6, 0.5)
        assert spec.support_size == 7
        dm = sample_gaussian(build_eigensystem(spec), 2026)
        assert hashlib.sha256(dm.x.tobytes()).hexdigest() == (
            "ff31d8c74cf566bb6488cb4417ec5e291f2c35e7d574fee79c63f8f0935df69d"
        )

    def test_seed_sequence_spawn_keys(self):
        sys = build_eigensystem(SpikedSpec(50, 8, 0.6, 0.3))
        s1 = np.random.SeedSequence(7, spawn_key=(0, 1))
        s2 = np.random.SeedSequence(7, spawn_key=(0, 2))
        assert sample_gaussian(sys, s1).x.tobytes() != sample_gaussian(sys, s2).x.tobytes()
        assert (
            sample_gaussian(sys, s1).x.tobytes()
            == sample_gaussian(sys, np.random.SeedSequence(7, spawn_key=(0, 1))).x.tobytes()
        )

    def test_spike_coordinate_variance(self):
        # d=200, alpha=1: Var(x_1) = d * u1[0]^2 + (1 - u1[0]^2) with beta=0
        # support {0}, so Var(x_1) = d^alpha = 200.
        sys = build_eigensystem(SpikedSpec(200, 25, 1.0, 0.0))
        samples = []
        for rep in range(500):
            dm = sample_gaussian(sys, np.random.SeedSequence(11, spawn_key=(rep,)))
            samples.append(dm.x[0])
        var = np.concatenate(samples).var()
        assert abs(var - 200.0) <= 0.2 * 200.0

    def test_no_spike_is_isotropic(self):
        sys = build_eigensystem(SpikedSpec(8, 4000, 0.0, 0.0))
        dm = sample_gaussian(sys, 5)
        emp = dm.x @ dm.x.T / dm.n
        w = np.linalg.eigvalsh(emp)
        assert w.min() > 0.8 and w.max() < 1.2

    def test_population_covariance_matches(self):
        # Empirical covariance of many columns approaches sum lam_i u_i u_i^T.
        spec = SpikedSpec(6, 20000, 0.8, 0.7)
        sys = build_eigensystem(spec)
        dm = sample_gaussian(sys, 99)
        emp = dm.x @ dm.x.T / dm.n
        m = spec.support_size
        pop = np.zeros((6, 6))
        for i in range(6):
            lam = spec.lambda1 if i == 0 else 1.0
            u = sys.eigenvector(i)
            pop += lam * np.outer(u, u)
        np.testing.assert_allclose(emp, pop, atol=0.25 * spec.lambda1**0.5 + 0.15)


class TestCounterexample:
    def test_reproducible_and_shapes(self):
        a = sample_counterexample(50, 0.5, 7, 3)
        b = sample_counterexample(50, 0.5, 7, 3)
        assert a.x.shape == (50, 7)
        assert a.x.tobytes() == b.x.tobytes()

    def test_value_set(self):
        dm = sample_counterexample(64, 0.5, 200, 9)
        spike = 64**0.25
        mag = 64**0.375
        assert set(np.unique(dm.x[0])) <= {spike, -spike}
        vals = set(np.unique(dm.x[1:]))
        assert vals <= {0.0, mag, -mag}

    def test_means_within_4_se(self):
        d, n = 50, 10000
        dm = sample_counterexample(d, 0.5, n, 21)
        means = dm.x.mean(axis=1)
        se1 = d**0.25 / math.sqrt(n)
        se_tail = math.sqrt(2.0) / math.sqrt(n)
        assert abs(means[0]) <= 4 * se1
        assert np.all(np.abs(means[1:]) <= 4 * se_tail)

    def test_second_moments(self):
        # Var(x_1) = d^alpha; tail coordinates have second moment 2 by
        # direct evaluation of the two-point mass (not 1).
        d, n = 100, 200000
        dm = sample_counterexample(d, 0.5, n, 5)
        v1 = dm.x[0].var()
        vt = dm.x[1:].var()
        assert abs(v1 - d**0.5) <= 0.05 * d**0.5
        assert abs(vt - 2.0) <= 0.1

    def test_argmax_frequency_matches_formula(self):
        d, reps = 100, 10000
        hits = 0
        for rep in range(reps):
            dm = sample_counterexample(d, 0.5, 1, np.random.SeedSequence(42, spawn_key=(rep,)))
            if int(np.argmax(np.abs(dm.x[:, 0]))) == 0:
                hits += 1
        p = failure_probability(d, 0.5)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(hits / reps - p) <= 3 * se

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_counterexample(100, 1.0, 5, 0)
        with pytest.raises(DomainError):
            sample_counterexample(100, 0.0, 5, 0)
        with pytest.raises(DomainError):
            sample_counterexample(2, 0.5, 5, 0)  # tail probabilities > 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tail_that_cannot_beat_the_spike_is_rejected(self, d):
        # Below alpha = 1 by one ulp, d**((alpha+1)/4) rounds to d**(alpha/2):
        # every draw would tie and the tie would go to the spike.
        alpha = 1.0 - 2.0**-52
        assert d ** ((alpha + 1.0) / 4.0) == d ** (alpha / 2.0)
        for call in (
            lambda: counterexample_tail_probability(d, alpha),
            lambda: sample_counterexample(d, alpha, 1, 0),
            lambda: failure_probability(d, alpha),
            lambda: counterexample_hits(d, alpha, ()),
        ):
            with pytest.raises(DomainError, match="does not exceed the spike"):
                call()


class TestCounterexampleHits:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("d", [3, 10, 50, 400])
    def test_each_draw_agrees_with_the_sampler(self, d, alpha):
        seeds = [np.random.SeedSequence(7, spawn_key=(d, rep)) for rep in range(500)]
        keys = list(stream_keys(7, d, range(500)))
        if 2 * d ** (-(alpha + 1) / 2) > 1:  # d=3, alpha=0.05 admits no law
            with pytest.raises(DomainError):
                sample_counterexample(d, alpha, 1, seeds[0])
            with pytest.raises(DomainError):
                counterexample_hits(d, alpha, keys)
            return
        by_sampler = [
            int(np.argmax(np.abs(sample_counterexample(d, alpha, 1, s).x[:, 0]))) == 0
            for s in seeds
        ]
        by_scorer = [counterexample_hits(d, alpha, [k]) == 1 for k in keys]
        assert by_scorer == by_sampler
        assert counterexample_hits(d, alpha, keys) == sum(by_sampler)


def reference_key(base_seed, d_index, rep):
    return np.random.SeedSequence(base_seed, spawn_key=(d_index, rep)).generate_state(2, np.uint64)


class TestStreamKeys:
    SEEDS = [0, 1, 7, 20260809, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**130 + 17]
    D_INDICES = [0, 1, 3, 2**31, 2**33]

    @pytest.mark.parametrize("d_index", D_INDICES)
    @pytest.mark.parametrize("base_seed", SEEDS)
    def test_keys_equal_seed_sequence_state(self, base_seed, d_index):
        # Rep 0, both sides of the first block boundary, and the last rep
        # that fits one uint32 word.
        keys = np.array(list(stream_keys(base_seed, d_index, range(KEY_BLOCK + 2))))
        assert keys.shape == (KEY_BLOCK + 2, 2) and keys.dtype == np.uint64
        for rep in (0, 1, 2, KEY_BLOCK - 1, KEY_BLOCK, KEY_BLOCK + 1):
            assert keys[rep].tolist() == reference_key(base_seed, d_index, rep).tolist()
        top = list(stream_keys(base_seed, d_index, range(2**32 - 2, 2**32)))
        for key, rep in zip(top, (2**32 - 2, 2**32 - 1)):
            assert key.tolist() == reference_key(base_seed, d_index, rep).tolist()

    def test_hash_has_only_uint32_operands(self, monkeypatch):
        # numpy 1 promotes a uint32 scalar op with a Python int to int64,
        # which would break the wrapping; numpy 2 would not show it.
        class Uint32:
            def __init__(self, v):
                assert v.dtype == np.uint32
                self.v = v

            def __array__(self, dtype=None, copy=None):
                return np.asarray(self.v)

            def op(f, swap=False):
                def apply(self, other):
                    assert isinstance(other, Uint32), f"operand {other!r} is not uint32"
                    a, b = (other.v, self.v) if swap else (self.v, other.v)
                    return Uint32(f(a, b))
                return apply

            __xor__, __rxor__ = op(np.bitwise_xor), op(np.bitwise_xor, True)
            __mul__, __rmul__ = op(np.multiply), op(np.multiply, True)
            __sub__, __rsub__ = op(np.subtract), op(np.subtract, True)
            __rshift__ = op(np.right_shift)

        hash_steps = model._hash_steps
        monkeypatch.setattr(
            model, "_hash_steps", lambda *a: ((Uint32(x), Uint32(m)) for x, m in hash_steps(*a))
        )
        for name in ("_SHIFT", "_MIX_MULT_L", "_MIX_MULT_R"):
            monkeypatch.setattr(model, name, Uint32(getattr(model, name)))
        words = [Uint32(np.uint32(w)) for w in (7, 0, 0, 0, 3)]
        keys = model._philox_keys(words + [Uint32(np.arange(3, dtype=np.uint32))])
        for rep in range(3):
            assert keys[rep].tolist() == reference_key(7, 3, rep).tolist()

    def test_keys_are_derived_lazily(self):
        first = next(stream_keys(5, 2, range(2**32)))
        assert first.tolist() == reference_key(5, 2, 0).tolist()

    @pytest.mark.parametrize(
        "args, message",
        [((-1, 0, range(3)), "seed must be >= 0"),
         ((0, -1, range(3)), "d_index must be >= 0"),
         ((0, 0, range(-1, 3)), "unit-step range from 0 up"),
         ((0, 0, range(2**32 + 1)), r"reps must be <= 2\*\*32, got 4294967297"),
         ((0, 0, range(0, 6, 2)), "unit-step range from 0 up")],
        ids=["seed", "d_index", "negative_rep", "rep_past_one_word", "step"],
    )
    def test_out_of_range_stream_is_domain_error(self, args, message):
        # Checked on the call, before the first key is asked for.
        with pytest.raises(DomainError, match=message):
            stream_keys(*args)


class TestFailureProbability:
    def test_direct_values(self):
        with pytest.raises(DomainError):
            failure_probability(2, 0.5)  # tail probabilities 2 * 2**-0.75 > 1
        assert failure_probability(3, 0.5) == (1 - 2 * 3**-0.75) ** 2
        d = 400
        assert failure_probability(d, 0.5) == pytest.approx(
            (1 - 2 * d ** -0.75) ** (d - 1), rel=1e-15
        )

    def test_vanishes_monotonically_in_d(self):
        vals = [failure_probability(d, 0.3) for d in (10, 100, 1000, 10000, 100000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_probability_bounds(self):
        for d in (10, 50, 1000):
            for alpha in (0.1, 0.5, 0.9):
                if 2 * d ** (-(alpha + 1) / 2) <= 1:
                    assert 0.0 <= failure_probability(d, alpha) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            failure_probability(1, 0.5)
        with pytest.raises(DomainError):
            failure_probability(100, 0.0)


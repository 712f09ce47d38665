"""Metric, BIC, bound, and rate-diagnostic tests.

The BIC oracle evaluates the stacked regression form literally (explicit
Kronecker design, residual norms) and is compared against the closed-form
implementation over every support pattern of a small instance.
"""

import math
from math import inf

import numpy as np
import pytest

from spcalab import (
    DomainError,
    PenaltySpec,
    SpikedSpec,
    angle_degrees,
    default_gamma,
    default_lambda_grid,
    dual_first_component,
    evaluate_estimate,
    gamma_is_valid,
    rspca,
    sample_gaussian,
    select_lambda_bic,
    support_errors,
    theorem_lambda_bounds,
    threshold,
)
from spcalab.config import PAPER_PAIRS
from spcalab.metrics import _angle, _norm, _Truth
from spcalab.penalties import FAMILIES
from spcalab.theory import pair_lambda_bounds
from _oracles import angle_degrees_reference, bic, fit_rate, support_errors_reference


class TestAngle:
    def test_self_is_zero(self):
        u = np.array([0.3, -0.4, 1.2])
        assert angle_degrees(u, u) == 0.0

    def test_orthogonal_is_ninety(self):
        assert angle_degrees(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 90.0

    def test_sign_invariance(self):
        u = np.array([0.6, 0.8])
        assert angle_degrees(u, -u) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            a = angle_degrees(u, v)
            assert a == angle_degrees(v, u)
            assert 0.0 <= a <= 90.0
            assert angle_degrees(u, -v) == a

    def test_scale_invariance(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([-0.5, 0.1, 0.7])
        assert angle_degrees(u, v) == pytest.approx(angle_degrees(4.0 * u, 0.25 * v), abs=1e-12)

    def test_zero_vector_convention(self):
        assert angle_degrees(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 90.0

    def test_resolves_tiny_angles(self):
        u = np.array([1.0, 0.0])
        eps = 1e-10
        v = np.array([1.0, eps])
        assert angle_degrees(u, v) == pytest.approx(math.degrees(eps), rel=1e-6)


def _at_cosine(c, d=40, seed=0):
    """A unit vector u and a vector v with cos(u, v) = c up to rounding."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(d)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return u, 3.0 * (c * u + math.sqrt(1.0 - c * c) * w)


class TestAngleMatchesReference:
    """The norm and angle kernels against ``np.linalg.norm`` arithmetic, bit for bit."""

    def assert_same(self, u, v):
        got = angle_degrees(u, v)
        assert repr(got) == repr(angle_degrees_reference(u, v))
        return got

    def test_zero_vectors(self):
        z = np.zeros(5)
        assert self.assert_same(z, z) == 90.0
        assert self.assert_same(z, np.arange(5.0)) == 90.0
        assert self.assert_same(np.arange(5.0), z) == 90.0

    def test_equal_and_antiparallel(self):
        u = np.random.default_rng(1).standard_normal(300)
        self.assert_same(u, u)
        self.assert_same(u, -u)
        self.assert_same(u, -2.5 * u)

    @pytest.mark.parametrize("c", [0.9 - 1e-9, 0.9 + 1e-9, -0.9 + 1e-9, -0.9 - 1e-9])
    def test_either_side_of_the_chord_switch(self, c):
        u, v = _at_cosine(c)
        cos = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert (abs(cos) < 0.9) == (abs(c) < 0.9)
        self.assert_same(u, v)
        self.assert_same(v, u)

    @pytest.mark.parametrize("c", [0.95, -0.95, 0.5, -0.5])
    def test_unit_vector_handed_back_and_taken(self, c):
        # rspca passes each step's a / na on as the next step's b / nb; the
        # chord branch must give the same bits whether it divides or not.
        u, v = _at_cosine(c)
        nu, nv = _norm(u), _norm(v)
        angle, unit = _angle(u, v, nu, nv)
        assert repr(angle) == repr(angle_degrees_reference(u, v))
        if abs(c) < 0.9:
            assert unit is None
        else:
            assert unit.tobytes() == (u / nu).tobytes()
        given = _angle(u, v, nu, nv, v / nv)
        assert repr(given[0]) == repr(angle)
        assert (given[1] is None) == (unit is None)

    def test_strided_column_views(self):
        m = np.random.default_rng(2).standard_normal((500, 9))
        m[:, 4] = m[:, 1] + 1e-7 * m[:, 2]  # a near-parallel pair: chord branch
        assert not m[:, 1].flags.c_contiguous
        for j, k in [(1, 2), (1, 4), (4, 1), (3, 3)]:
            self.assert_same(m[:, j], m[:, k])
        self.assert_same(m[:, 1], np.ascontiguousarray(m[:, 4]))

    def test_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.standard_normal(64)
            self.assert_same(u, u + rng.uniform(1e-12, 2.0) * rng.standard_normal(64))


class TestSupportErrorsMatchReference:
    """The counting form of ``support_errors`` against the boolean-mask form."""

    def test_all_zero_estimate(self):
        e = np.zeros(30)
        assert support_errors(e, [2, 5, 7]) == support_errors_reference(e, [2, 5, 7])

    def test_full_support_truth(self):
        e = np.array([0.0, 1.0, -2.0, 0.0])
        got = support_errors(e, [0, 1, 2, 3])
        assert got == support_errors_reference(e, [0, 1, 2, 3])
        assert got[1] == 0.0

    def test_random_sparse_estimates(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(2, 60))
            e = rng.standard_normal(d) * (rng.random(d) < rng.random())
            truth = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
            got = support_errors(e, truth)
            ref = support_errors_reference(e, truth)
            assert repr(got) == repr(ref)


class TestSupportErrors:
    def test_exact_recovery(self):
        e = np.array([0.5, 0.5, 0.0, 0.0])
        assert support_errors(e, [0, 1]) == (0.0, 0.0)

    def test_all_zero_estimate(self):
        assert support_errors(np.zeros(5), [0, 1]) == (1.0, 0.0)

    def test_dense_estimate(self):
        assert support_errors(np.ones(5), [0, 1]) == (0.0, 1.0)

    def test_partial(self):
        e = np.array([0.7, 0.0, 0.3, 0.0])
        t1, t2 = support_errors(e, [0, 1])
        assert t1 == 0.5 and t2 == 0.5

    def test_full_truth_type2_zero(self):
        assert support_errors(np.ones(3), [0, 1, 2]) == (0.0, 0.0)

    def test_python_int_truth_is_accepted(self):
        assert support_errors([0.0, 1.0, 0.0, 1.0], [1, 3]) == (0.0, 0.0)


def _bic_kron_oracle(x, v1, candidate, lam):
    """Literal evaluation of the stacked-regression BIC."""
    d, n = x.shape
    y = x.reshape(-1)  # rows stacked
    design = np.kron(np.eye(d), v1.reshape(n, 1))
    u_ols = np.linalg.lstsq(design, y, rcond=None)[0]
    rss_ols = float(np.sum((y - design @ u_ols) ** 2))
    sigma2 = rss_ols / (n * d - d)
    rss = float(np.sum((y - design @ candidate) ** 2))
    df = int(np.count_nonzero(candidate))
    return rss / (n * d * sigma2) + math.log(n * d) / (n * d) * df


class TestBic:
    def _instance(self, seed=0, d=5, n=3):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((d, n))
        v1 = rng.standard_normal(n)
        v1 /= np.linalg.norm(v1)
        return x, v1

    def test_ols_candidate(self):
        x, v1 = self._instance()
        d, n = x.shape
        candidate = x @ v1
        val = bic(x, v1, candidate, 0.0)
        assert val.df == d
        assert val.rss_term == pytest.approx((n * d - d) / (n * d), rel=1e-12)
        assert val.total == val.rss_term + val.df_term

    def test_zero_candidate(self):
        x, v1 = self._instance(seed=1)
        d, n = x.shape
        val = bic(x, v1, np.zeros(d), math.inf)
        assert val.df == 0
        assert val.df_term == 0.0
        assert val.rss_term == pytest.approx(
            float(np.sum(x * x)) / (n * d * val.sigma2), rel=1e-12
        )

    def test_matches_kronecker_oracle_on_all_patterns(self):
        x, v1 = self._instance(seed=2)
        d = x.shape[0]
        u_ols = x @ v1
        for pattern in range(2**d):
            mask = np.array([(pattern >> i) & 1 for i in range(d)], dtype=bool)
            candidate = np.where(mask, u_ols, 0.0)
            ours = bic(x, v1, candidate, 0.0)
            oracle = _bic_kron_oracle(x, v1, candidate, 0.0)
            assert ours.total == pytest.approx(oracle, rel=1e-10)

    def test_entry_inclusion_tradeoff(self):
        # Adding entry i changes BIC by log(nd)/nd - u_i^2/(nd*sigma2):
        # worthwhile exactly when u_i^2 > sigma2*log(nd).
        x, v1 = self._instance(seed=3)
        d, n = x.shape
        u_ols = x @ v1
        base = np.zeros(d)
        b0 = bic(x, v1, base, 0.0)
        for i in range(d):
            cand = base.copy()
            cand[i] = u_ols[i]
            b1 = bic(x, v1, cand, 0.0)
            gain = b0.total - b1.total
            predicted = u_ols[i] ** 2 / (n * d * b0.sigma2) - math.log(n * d) / (n * d)
            assert gain == pytest.approx(predicted, rel=1e-9, abs=1e-12)

    def test_degenerate_rank_one(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(6)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        x = np.outer(u, v)
        val = bic(x, v, x @ v, 0.0)
        assert val.degenerate
        assert val.rss_term == 0.0
        assert val.total == val.df_term


class TestSelectLambdaBic:
    def _spiked(self, seed=5):
        rng = np.random.default_rng(seed)
        d, n = 120, 10
        u1 = np.zeros(d)
        u1[:3] = 3**-0.5
        x = 9.0 * np.outer(u1, rng.standard_normal(n)) + rng.standard_normal((d, n))
        return x

    def test_singleton_grid(self):
        x = self._spiked()
        dc = dual_first_component(x)
        sel = select_lambda_bic(x, dc.v1, [0.7])
        assert sel.lambda_star == 0.7
        assert len(sel.values) == 1

    def test_tie_break_toward_larger_lambda(self):
        x = self._spiked(seed=6)
        dc = dual_first_component(x)
        lo = float(np.abs(dc.u_tilde).min())
        grid = [lo * 0.01, lo * 0.1, lo * 0.5]  # all below min |u_i|: identical candidates
        sel = select_lambda_bic(x, dc.v1, grid)
        assert sel.lambda_star == grid[-1]
        totals = [v.total for v in sel.values]
        assert totals[0] == totals[1] == totals[2]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_brute_force_over_grid(self, family):
        x = self._spiked(seed=7)
        dc = dual_first_component(x)
        penalty = PenaltySpec(family, 0.0)
        au = np.abs(dc.u_tilde)
        # Grid points on |u_i|, |u_i|/2 and |u_i|/a put entries exactly on
        # every band edge of ``threshold`` (lam, 2 lam and a lam).
        edges = np.concatenate([au[:8], au[:8] / 2.0, au[:8] / penalty.scad_a])
        grid = np.sort(np.concatenate([default_lambda_grid(dc.u_tilde, points=40), edges]))
        sel = select_lambda_bic(x, dc.v1, grid, penalty)
        best_lam = None
        best_total = math.inf
        totals, dfs = [], []
        for lam in grid:
            cand = threshold(dc.u_tilde, penalty.with_lambda(float(lam)))
            val = bic(x, dc.v1, cand, float(lam))
            totals.append(val.total)
            dfs.append(val.df)
            if val.total <= best_total:
                best_total = val.total
                best_lam = float(lam)
        assert sel.lambda_star == best_lam
        assert sel.dfs.tolist() == dfs
        np.testing.assert_allclose(sel.totals, totals, rtol=1e-12, atol=0.0)
        assert [v.total for v in sel.values] == sel.totals.tolist()
        assert [v.df for v in sel.values] == dfs
        assert sel.total == sel.totals.min()

    @pytest.mark.parametrize("a", [1e154, 1e155, 1e300, 1e308])
    def test_scad_band_with_a_too_large_to_square(self, a):
        # At a = 1e154, a lam * a lam overflows; from 1e155, (a - 2)**2 does too,
        # and at 1e308 so does a lam.
        x = sample_gaussian(SpikedSpec(50, 3, 0.6, 0.1), seed=1).x
        dc = dual_first_component(x)
        grid = default_lambda_grid(dc.u_tilde)
        penalty = PenaltySpec.scad(0.0, a)
        sel = select_lambda_bic(x, dc.v1, grid, penalty)
        totals = [bic(x, dc.v1, threshold(dc.u_tilde, penalty.with_lambda(lam)), lam).total
                  for lam in grid.tolist()]
        assert np.isfinite(sel.totals).all()
        assert sel.totals.tolist() == pytest.approx(totals, rel=1e-10)
        assert sel.total == sel.totals.min()
        _, trace = rspca(x, penalty, lambda_grid=grid, dual=dc)
        assert all(math.isfinite(it.bic_total) for it in trace.iterations)

    @pytest.mark.parametrize("lambda_max", [1e200, 1e308])
    @pytest.mark.parametrize("penalty", [PenaltySpec.soft(0.0), PenaltySpec.scad(0.0),
                                         PenaltySpec.scad(0.0, 1e300)], ids=["soft", "scad", "scad_a_1e300"])
    def test_lambda_too_large_to_square(self, penalty, lambda_max):
        # From about 1.34e154, lam * lam overflows.  Where lam >= max |u_i| every family
        # zeroes every entry, so its total is hard's there.
        x = sample_gaussian(SpikedSpec(50, 3, 0.6, 0.1), seed=1).x
        dc = dual_first_component(x)
        grid = default_lambda_grid(dc.u_tilde, lambda_max=lambda_max)
        sel = select_lambda_bic(x, dc.v1, grid, penalty)
        hard = select_lambda_bic(x, dc.v1, grid, PenaltySpec.hard(0.0))
        zeroed = grid >= np.abs(dc.u_tilde).max()
        assert np.isfinite(sel.totals).all() and zeroed.any()
        assert sel.totals[zeroed].tolist() == hard.totals[zeroed].tolist()
        assert sel.total == sel.totals.min()
        _, trace = rspca(x, penalty, lambda_grid=grid, dual=dc)
        assert all(math.isfinite(it.bic_total) for it in trace.iterations)

    def test_degenerate_rank_one(self):
        # X = u v^T fits exactly: sigma2 = 0, so every total is its df term
        # and the tie among the emptiest supports goes to the largest lambda.
        rng = np.random.default_rng(4)
        u = rng.standard_normal(6)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        x = np.outer(u, v)
        grid = default_lambda_grid(x @ v, lambda_max=10.0 * float(np.abs(u).max()), points=20)
        sel = select_lambda_bic(x, v, grid)
        assert sel.sigma2 == 0.0
        assert all(val.degenerate for val in sel.values)
        assert all(val.rss_term == 0.0 for val in sel.values)
        assert all(val.total == val.df_term for val in sel.values)
        tied = [val.lam for val in sel.values if val.total == min(sel.totals)]
        assert len(tied) > 1
        assert sel.lambda_star == max(tied)

    def test_selected_lambda_keeps_planted_support(self):
        # BIC keeps coordinates with u_i^2 > sigma2*log(nd); the planted
        # signal clears that easily while at most a stray noise coordinate
        # or two can cross it at this (d, n).
        x = self._spiked(seed=8)
        dc = dual_first_component(x)
        sel = select_lambda_bic(x, dc.v1, default_lambda_grid(dc.u_tilde))
        cand = dc.u_tilde * (np.abs(dc.u_tilde) > sel.lambda_star)
        kept = set(np.flatnonzero(cand).tolist())
        assert {0, 1, 2} <= kept
        assert len(kept) <= 6

    def test_soft_family_candidates(self):
        x = self._spiked(seed=10)
        dc = dual_first_component(x)
        sel = select_lambda_bic(x, dc.v1, [0.0, 1.0, 5.0], PenaltySpec.soft(0.0))
        assert len(sel.values) == 3
        assert sel.values[0].df >= sel.values[-1].df

    def test_selected_lambda_separates_noise_from_signal(self):
        # "BIC works well" operationally: between the noise cut
        # ~sqrt(sigma2*log(nd)) and the smallest signal magnitude the BIC
        # curve is flat to ~1e-6, so the exact lambda position inside that
        # valley is grid/tie-break noise; what is stable is that the
        # selection clears the noise floor (lambda* above sqrt(log d),
        # the widest theorem lower bound) and never cuts into the signal.
        from spcalab import SpikedSpec, angle_degrees, sample_gaussian

        d, n, alpha, beta = 10000, 25, 0.6, 0.1
        lo = math.log(d) ** 0.5001  # lower bound at delta -> 1/2+
        system = SpikedSpec(d, n, alpha, beta)
        angles = []
        for rep in range(20):
            dm = sample_gaussian(system, np.random.SeedSequence(13, spawn_key=(rep,)))
            dc = dual_first_component(dm.x)
            sel = select_lambda_bic(dm.x, dc.v1, default_lambda_grid(dc.u_tilde))
            assert sel.lambda_star > lo
            signal_floor = float(np.abs(dc.u_tilde[:2]).min())
            assert sel.lambda_star < signal_floor
            kept = dc.u_tilde * (np.abs(dc.u_tilde) > sel.lambda_star)
            angles.append(angle_degrees(kept, system.u1))
        assert float(np.median(angles)) < 15.0


class TestDefaultLambdaGrid:
    def test_shape_and_range(self):
        ut = np.array([0.1, -4.0, 2.0])
        grid = default_lambda_grid(ut, points=50)
        assert grid.shape == (51,)
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(6.0)
        assert np.all(np.diff(grid) > 0)


class TestThresholdBounds:
    def test_empty_range_at_small_gamma(self):
        b = theorem_lambda_bounds(10000, theta=0.0, gamma=0.25, delta=1.0)
        assert b.lower == pytest.approx(math.log(10000.0), rel=1e-12)
        assert b.upper == pytest.approx(10000.0**0.125, rel=1e-12)
        assert b.is_empty

    def test_wide_range(self):
        b = theorem_lambda_bounds(10000, theta=0.0, gamma=0.5, delta=1.0)
        assert b.upper == pytest.approx(10000.0**0.25, rel=1e-12)
        assert not b.is_empty

    @pytest.mark.parametrize("d, gamma, delta, lower, upper", [
        (2000, 0.25, 400.0, inf, 2000.0**0.125),  # log(d)**delta overflows
        (10**6, 200.0, 1.0, math.log(10**6), inf),  # d**(gamma/2) overflows
    ], ids=["lower", "upper"])
    def test_an_end_that_overflows_is_inf(self, d, gamma, delta, lower, upper):
        b = theorem_lambda_bounds(d, theta=0.0, gamma=gamma, delta=delta)
        assert (b.lower, b.upper) == (lower, upper)
        assert b.is_empty is (lower == inf)

    def test_lower_end_is_the_direct_product_at_ordinary_exponents(self):
        # The lower end is evaluated in log space only; it is the product it stands for.
        for d in (2, 3, 50, 2000, 10**4, 40000, 10**6, 10**12):
            for theta in (-2.0, -0.5, 0.0, 0.3, 0.9):
                for delta in (0.51, 0.75, 1.0, 2.0, 5.0, 10.0):
                    direct = math.log(d) ** delta * d ** (theta / 2.0)
                    lower = theorem_lambda_bounds(d, theta, theta + 1.0, delta).lower
                    assert lower == pytest.approx(direct, rel=1e-12, abs=0.0), (d, theta, delta)

    @pytest.mark.parametrize("d", [2000, 10000, 40000])
    @pytest.mark.parametrize("delta", [0.51, 1.0])
    def test_paper_pairs_open_where_the_direct_product_does(self, d, delta):
        # At delta = 1 every admissible pair is empty at these d; at 0.51 some open.
        for alpha, beta in PAPER_PAIRS:
            b = pair_lambda_bounds(d, alpha, beta, delta, None)
            gamma = default_gamma(0.0, alpha, beta)
            if gamma is None:
                assert b is None
                continue
            assert b.is_empty is (math.log(d) ** delta * d ** 0.0 > d ** (gamma / 2.0))

    def test_lower_end_of_overflow_times_underflow_is_taken_in_log_space(self):
        # log(d)**400 overflows while d**-150 underflows; their product
        # exp(400 log(log d) - 150 log d) underflows to 0.0, not inf * 0 = NaN.
        b = theorem_lambda_bounds(10**6, -300.0, 1.0, 400.0)
        assert (b.lower, b.upper) == (0.0, 1000.0)
        assert not b.is_empty
        # 800 - 790 in log space: both factors still leave the float range.
        log_d = math.log(10**6)
        b = theorem_lambda_bounds(10**6, -1580.0 / log_d, 1.0, 800.0 / math.log(log_d))
        assert b.lower == pytest.approx(math.exp(10.0), rel=1e-9)

    def test_lower_end_of_overflow_times_a_finite_factor_is_finite(self):
        # log(d)**304.6 overflows while d**-50.7 = 6.3e-305 is still a normal
        # float; their product exp(99.37) is finite, not inf * 6.3e-305 = inf.
        b = theorem_lambda_bounds(10**6, -101.4, 1.0, 304.6)
        assert b.lower == pytest.approx(1.4314284501e43, rel=1e-9)
        assert b.is_empty

    @pytest.mark.parametrize("alpha, beta, log10_d_open", [(0.8, 0.0, 5.52), (0.6, 0.1, 11.33)])
    def test_where_the_default_range_opens(self, alpha, beta, log10_d_open):
        # At delta = 1 the range [log d, d**(gamma/2)] opens where t = ln d
        # reaches the larger root of ln t = (gamma/2) t; t -> ln(t) / (gamma/2)
        # converges to it.
        gamma = default_gamma(0.0, alpha, beta)
        t = 100.0
        for _ in range(100):
            t = math.log(t) / (gamma / 2.0)
        d_open = math.exp(t)
        assert math.log10(d_open) == pytest.approx(log10_d_open, abs=0.005)
        assert theorem_lambda_bounds(int(0.9 * d_open), 0.0, gamma, 1.0).is_empty
        assert not theorem_lambda_bounds(int(1.1 * d_open), 0.0, gamma, 1.0).is_empty

    def test_gamma_validity_predicate(self):
        assert gamma_is_valid(0.25, theta=0.0, alpha=0.6, eta=0.1)
        assert not gamma_is_valid(0.55, theta=0.0, alpha=0.6, eta=0.1)
        assert not gamma_is_valid(0.0, theta=0.0, alpha=0.6, eta=0.1)

    def test_default_gamma_midpoint(self):
        assert default_gamma(0.0, 0.6, 0.1) == pytest.approx(0.25)
        assert default_gamma(0.0, 0.2, 0.7) is None


class TestFitRate:
    def test_exact_power_law(self):
        pts = [(d, 1.0 / d) for d in (100, 1000, 10000)]
        diag = fit_rate(pts)
        assert diag.varsigma_hat == pytest.approx(2.0, abs=1e-9)
        assert diag.dims == (100, 1000, 10000)

    def test_constant_gaps(self):
        assert fit_rate([(10, 0.3), (100, 0.3), (1000, 0.3)]).varsigma_hat == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_gap_floored(self):
        diag = fit_rate([(10, 0.1), (100, 0.01), (1000, 0.0)])
        assert diag.gaps[-1] == 1e-15
        assert math.isfinite(diag.varsigma_hat)

    def test_validation(self):
        with pytest.raises(DomainError):
            fit_rate([(10, 0.1), (100, 0.01)])
        with pytest.raises(DomainError):
            fit_rate([(10, 0.1), (10, 0.01), (100, 0.001)])
        with pytest.raises(DomainError):
            fit_rate([(10, 0.1), (100, -0.01), (1000, 0.001)])


class TestEvaluateEstimate:
    def test_composition(self):
        u1 = np.zeros(6)
        u1[:2] = 2**-0.5
        raw = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1e-3])
        est = raw / np.linalg.norm(raw)
        row = evaluate_estimate(est, u1, [0, 1])
        assert row.df == 3
        assert row.type1 == 0.0
        assert row.type2 == pytest.approx(0.25)
        assert 0.0 < row.angle_deg < 10.0

    def test_truth_built_once_gives_the_same_rows(self):
        # The experiment scores every row of a sample against one _Truth.
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 80))
            u1 = rng.standard_normal(d)
            support = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
            truth = _Truth.of(u1, support)
            for est in (rng.standard_normal(d) * (rng.random(d) < 0.5), np.zeros(d), u1):
                assert repr(evaluate_estimate(est, u1, truth)) == repr(
                    evaluate_estimate(est, u1, support))

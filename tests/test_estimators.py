"""Estimator and thresholding-rule tests.

Thresholding rules are cross-checked against brute-force minimization of
the penalized scalar loss; estimator identities (ST vs first-iteration
hard-penalty RSPCA, oracle vs full-support PCA) are asserted bit-for-bit.
"""

import numpy as np
import pytest

from spcalab import (
    DomainError,
    PenaltySpec,
    SpikedSpec,
    angle_degrees,
    build_eigensystem,
    oracle_estimator,
    pca_first,
    rspca,
    sample_gaussian,
    st_estimator,
    threshold,
    threshold_scalar,
)
from spcalab.eigen import dual_first_component
from spcalab.metrics import default_lambda_grid, frobenius_sq
from spcalab.penalties import FAMILIES
from _oracles import brute_force_prox, rspca_reference


def spiked_data(d, n, alpha, beta, seed):
    sys = build_eigensystem(SpikedSpec(d, n, alpha, beta))
    return sample_gaussian(sys, seed), sys


class TestThresholdRules:
    def test_hard(self):
        p = PenaltySpec.hard(1.0)
        assert threshold_scalar(2.0, p) == 2.0
        assert threshold_scalar(0.5, p) == 0.0
        assert threshold_scalar(-2.0, p) == -2.0
        assert threshold_scalar(1.0, p) == 0.0  # strict inequality at the boundary

    def test_soft(self):
        p = PenaltySpec.soft(0.5)
        assert threshold_scalar(2.0, p) == 1.5
        assert threshold_scalar(-0.3, p) == 0.0
        assert threshold_scalar(-2.0, p) == -1.5

    def test_scad_three_pieces(self):
        p = PenaltySpec.scad(1.0, 3.7)
        assert threshold_scalar(1.5, p) == pytest.approx(0.5, abs=1e-12)
        assert threshold_scalar(2.5, p) == pytest.approx((2.7 * 2.5 - 3.7) / 1.7, abs=1e-12)
        assert threshold_scalar(5.0, p) == 5.0
        assert threshold_scalar(-2.5, p) == pytest.approx(-(2.7 * 2.5 - 3.7) / 1.7, abs=1e-12)

    def test_scad_continuous_at_breakpoints(self):
        for a in (2.5, 3.7):
            p = PenaltySpec.scad(1.3, a)
            lam = p.lam
            for x0 in (2 * lam, a * lam):
                lo = threshold_scalar(x0 - 1e-9, p)
                hi = threshold_scalar(x0 + 1e-9, p)
                assert abs(hi - lo) < 1e-6

    def test_lambda_zero_is_identity(self):
        x = np.array([-2.0, -0.1, 0.0, 0.4, 3.0])
        for fam in ("hard", "soft", "scad"):
            np.testing.assert_array_equal(threshold(x, PenaltySpec(fam, 0.0)), x)

    @pytest.mark.parametrize("family,a", [("hard", 3.7), ("soft", 3.7), ("scad", 2.5), ("scad", 3.7)])
    def test_matches_brute_force_minimizer(self, family, a):
        xs = np.linspace(-4.0, 4.0, 21)
        lams = (0.31, 0.9, 1.7)
        for lam in lams:
            p = PenaltySpec(family, lam, a)
            for x in xs:
                if family == "hard" and abs(abs(x) - lam) < 5e-3:
                    continue  # minimizer jumps exactly at |x| = lambda
                u_star = brute_force_prox(float(x), p)
                assert abs(threshold_scalar(float(x), p) - u_star) <= 1e-6

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PenaltySpec("ridge", 1.0)
        with pytest.raises(DomainError):
            PenaltySpec.hard(-0.5)
        with pytest.raises(DomainError):
            PenaltySpec.scad(1.0, 2.0)


class TestPcaFirst:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(30)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        est = pca_first(3.0 * np.outer(u, v))
        assert min(np.abs(est.entries - u).max(), np.abs(est.entries + u).max()) <= 1e-12

    def test_matches_direct_eigendecomposition(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 5))
        est = pca_first(x)
        w, vecs = np.linalg.eigh(x @ x.T / 5)
        assert angle_degrees(est.entries, vecs[:, -1]) <= 1e-8

    def test_unit_norm_and_dense_support(self):
        dm, _ = spiked_data(100, 10, 0.6, 0.3, seed=1)
        est = pca_first(dm.x)
        assert est.normalized
        assert abs(np.linalg.norm(est.entries) - 1.0) <= 1e-12
        assert est.nnz == 100

    def test_subcritical_spike_angles_large_at_scale(self):
        # alpha < 1: conventional PCA cannot align; at d=10^4, n=25 the
        # angle to u1 stays above 40 degrees.
        angles = []
        for rep in range(5):
            dm, sys = spiked_data(10000, 25, 0.6, 0.1, seed=200 + rep)
            angles.append(angle_degrees(pca_first(dm.x), sys.u1))
        assert all(a > 40.0 for a in angles)


class TestStEstimator:
    def test_lambda_zero_equals_pca(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=2)
        np.testing.assert_array_equal(
            st_estimator(dm.x, 0.0).entries, pca_first(dm.x).entries
        )

    def test_total_thresholding_flagged(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=3)
        from spcalab import dual_first_component

        lam = float(np.abs(dual_first_component(dm.x).u_tilde).max()) + 1.0
        est = st_estimator(dm.x, lam)
        assert est.is_zero and not est.normalized
        assert angle_degrees(est, np.ones(80)) == 90.0

    def test_support_is_exact_zeros(self):
        dm, _ = spiked_data(200, 10, 0.6, 0.1, seed=4)
        est = st_estimator(dm.x, 2.0)
        off = np.setdiff1d(np.arange(200), est.support)
        assert np.all(est.entries[off] == 0.0)
        assert est.normalized

    def test_monotone_support_in_lambda(self):
        dm, _ = spiked_data(150, 12, 0.6, 0.3, seed=5)
        prev = None
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            supp = set(st_estimator(dm.x, lam).support.tolist())
            if prev is not None:
                assert supp <= prev
            prev = supp

    def test_scale_equivariance_power_of_two(self):
        dm, _ = spiked_data(60, 8, 0.6, 0.3, seed=6)
        a = st_estimator(dm.x, 1.5)
        b = st_estimator(2.0 * dm.x, 3.0)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_scale_equivariance_general(self):
        dm, _ = spiked_data(60, 8, 0.6, 0.3, seed=7)
        c = 1.7
        a = st_estimator(dm.x, 1.2)
        b = st_estimator(c * dm.x, c * 1.2)
        assert set(a.support.tolist()) == set(b.support.tolist())
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-12)

    def test_sign_flip_invariance(self):
        dm, sys = spiked_data(60, 8, 0.6, 0.3, seed=8)
        a = st_estimator(dm.x, 1.0)
        b = st_estimator(-dm.x, 1.0)
        assert abs(float(a.entries @ sys.u1)) == abs(float(b.entries @ sys.u1))

    def test_negative_lambda_rejected(self):
        dm, _ = spiked_data(20, 5, 0.6, 0.3, seed=9)
        with pytest.raises(DomainError):
            st_estimator(dm.x, -1.0)

    def test_consistent_inside_threshold_window_at_scale(self):
        # d=10^4, (alpha, beta)=(0.6, 0.1): lambda = 9.6 lies in the
        # admissible window [log(d) * d^(theta/2), d^(gamma/2)] with
        # theta=0, gamma=alpha-beta; the ST angle drops below 15 degrees.
        lam = 9.6
        assert np.log(10000.0) <= lam <= 10000.0 ** ((0.6 - 0.1) / 2.0)
        angles = []
        for rep in range(5):
            dm, sys = spiked_data(10000, 25, 0.6, 0.1, seed=300 + rep)
            angles.append(angle_degrees(st_estimator(dm.x, lam), sys.u1))
        assert float(np.median(angles)) < 15.0


class TestRspca:
    def test_hard_first_iteration_equals_st_bitwise(self):
        for seed in range(6):
            dm, _ = spiked_data(150, 12, 0.5, 0.4, seed=100 + seed)
            lam = float(seed) * 0.8
            st = st_estimator(dm.x, lam)
            vec, trace = rspca(dm.x, PenaltySpec.hard(lam), max_iter=1)
            assert np.array_equal(st.entries, vec.entries)
            assert st.normalized == vec.normalized
            assert trace.n_iterations == 1

    def test_lambda_zero_converges_in_one_iteration(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=11)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0))
        assert trace.converged
        assert trace.n_iterations == 1
        np.testing.assert_array_equal(vec.entries, pca_first(dm.x).entries)

    def test_all_zero_termination(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=12)
        vec, trace = rspca(dm.x, PenaltySpec.hard(1e9))
        assert vec.is_zero
        assert trace.zero_terminated
        assert trace.iterations[-1].support_size == 0

    def test_trace_records_iterations(self):
        dm, _ = spiked_data(300, 15, 0.8, 0.2, seed=13)
        vec, trace = rspca(dm.x, PenaltySpec.hard(3.0))
        assert trace.converged
        assert trace.n_iterations >= 1
        for it in trace.iterations:
            assert it.lam == 3.0
            assert it.support_size >= 0
            assert 0.0 <= it.angle_change_deg <= 90.0

    def test_bic_mode_records_selection(self):
        dm, _ = spiked_data(300, 15, 0.8, 0.2, seed=14)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0), bic_per_iteration=True)
        assert trace.converged
        for it in trace.iterations:
            assert it.sigma2 is not None and it.sigma2 > 0
            assert it.bic_total is not None
        assert trace.final_lambda == trace.iterations[-1].lam
        assert vec.nnz > 0

    @pytest.mark.parametrize("penalty", [PenaltySpec.hard(0.0), PenaltySpec.scad(0.0, 3.7)])
    def test_precomputed_fro2_is_bit_identical(self, penalty):
        dm, _ = spiked_data(300, 15, 0.8, 0.2, seed=14)
        vec, trace = rspca(dm.x, penalty, bic_per_iteration=True)
        vec2, trace2 = rspca(dm.x, penalty, bic_per_iteration=True, fro2=frobenius_sq(dm.x))
        assert np.array_equal(vec.entries, vec2.entries)
        assert trace == trace2

    def test_bic_mode_recovers_support_on_easy_instance(self):
        dm, sys = spiked_data(500, 25, 0.9, 0.2, seed=15)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0), bic_per_iteration=True)
        assert set(vec.support.tolist()) == set(sys.u1_support.tolist())
        assert angle_degrees(vec, sys.u1) < 10.0

    @pytest.mark.parametrize("penalty", [PenaltySpec.soft(2.0), PenaltySpec.scad(2.0, 3.7)])
    def test_other_penalties_converge(self, penalty):
        dm, sys = spiked_data(400, 20, 0.9, 0.2, seed=16)
        vec, trace = rspca(dm.x, penalty)
        assert trace.converged
        assert not vec.is_zero
        assert angle_degrees(vec, sys.u1) < 20.0

    def test_max_iter_validation(self):
        dm, _ = spiked_data(20, 5, 0.6, 0.3, seed=17)
        with pytest.raises(DomainError):
            rspca(dm.x, PenaltySpec.hard(1.0), max_iter=0)


def assert_same_fit(fit, reference):
    """Identical entries bytes and identical trace fields (repr is exact for floats)."""
    (vec, trace), (ref_vec, ref_trace) = fit, reference
    assert vec.entries.tobytes() == ref_vec.entries.tobytes()
    assert vec.normalized == ref_vec.normalized
    assert repr(trace) == repr(ref_trace)


class TestRspcaMatchesReference:
    """``rspca`` against the plain loop in ``_oracles``, bit for bit.

    At d=2000 and seed 0, the longest fixed-lambda fit at (0.2, 0.7) takes
    42 (hard) to 133 (SCAD) iterations and the top of the grid gives
    zero-terminated fits; in BIC mode at (0.4, 0.3) the selected lambda
    falls between steps in every family.
    """

    PAIRS = [(0.6, 0.1), (0.2, 0.7)]

    @staticmethod
    def sample(pair, seed=0):
        dm, _ = spiked_data(2000, 25, *pair, seed=seed)
        dc = dual_first_component(dm.x)
        return dm.x, dc, default_lambda_grid(dc.u_tilde)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_fixed_lambda_over_default_grid(self, pair, family):
        x, dc, grid = self.sample(pair)
        fits = []
        for lam in grid.tolist():
            penalty = PenaltySpec(family, lam)
            fit = rspca(x, penalty, dual=dc)
            assert_same_fit(fit, rspca_reference(x, penalty, dual=dc))
            fits.append(fit[1])
        assert any(t.zero_terminated for t in fits)
        if pair == (0.2, 0.7):
            assert max(t.n_iterations for t in fits) >= 30

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("pair", [*PAIRS, (0.4, 0.3)])
    def test_bic_mode(self, pair, family):
        falls = 0
        for seed in range(5):
            x, dc, grid = self.sample(pair, seed)
            penalty = PenaltySpec(family, 0.0)
            kwargs = dict(bic_per_iteration=True, lambda_grid=grid, dual=dc, fro2=frobenius_sq(x))
            fit = rspca(x, penalty, **kwargs)
            assert_same_fit(fit, rspca_reference(x, penalty, **kwargs))
            lams = [it.lam for it in fit[1].iterations]
            falls += any(b < a for a, b in zip(lams, lams[1:]))
        if pair == (0.4, 0.3):
            assert falls > 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unconverged_exit(self, family):
        x, dc, grid = self.sample((0.2, 0.7))
        unconverged = 0
        for lam in grid.tolist():
            penalty = PenaltySpec(family, lam)
            fit = rspca(x, penalty, max_iter=3, dual=dc)
            assert_same_fit(fit, rspca_reference(x, penalty, max_iter=3, dual=dc))
            unconverged += not fit[1].converged
        assert unconverged > 0


class TestOracleEstimator:
    def test_full_support_equals_pca(self):
        dm, _ = spiked_data(40, 8, 0.6, 0.3, seed=20)
        a = oracle_estimator(dm.x, np.arange(40))
        b = pca_first(dm.x)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_zero_off_support_rows(self):
        dm, sys = spiked_data(60, 8, 0.8, 0.3, seed=21)
        m = sys.spec.support_size
        x = dm.x.copy()
        x[m:, :] = 0.0
        a = oracle_estimator(x, np.arange(m))
        b = pca_first(x)
        assert angle_degrees(a, b) == 0.0
        assert np.all(a.entries[m:] == 0.0)

    def test_small_support_smaller_than_n(self):
        # support of size 2 with n=8 exercises the wide submatrix path
        dm, sys = spiked_data(100, 8, 0.9, 0.1, seed=22)
        est = oracle_estimator(dm.x, sys.u1_support)
        assert set(est.support.tolist()) <= set(sys.u1_support.tolist())
        assert abs(np.linalg.norm(est.entries) - 1.0) <= 1e-12

    def test_exact_zeros_off_support(self):
        dm, _ = spiked_data(50, 8, 0.6, 0.5, seed=23)
        est = oracle_estimator(dm.x, [1, 4, 7])
        off = np.setdiff1d(np.arange(50), [1, 4, 7])
        assert np.all(est.entries[off] == 0.0)

    def test_support_validation(self):
        dm, _ = spiked_data(20, 5, 0.6, 0.3, seed=24)
        with pytest.raises(DomainError):
            oracle_estimator(dm.x, [])
        with pytest.raises(DomainError):
            oracle_estimator(dm.x, [25])

    def test_strong_inconsistency_trend(self):
        # alpha < beta: even with the true support known, the restricted
        # spike d^alpha is dwarfed by the floor(d^beta)-dimensional noise,
        # and the oracle angle grows toward 90 degrees with d (about 70
        # degrees at d=2000 and 77 at d=10,000; the limit is asymptotic).
        medians = []
        for d in (2000, 10000):
            angles = []
            for rep in range(15):
                dm, sys = spiked_data(d, 25, 0.2, 0.7, seed=400 + rep)
                est = oracle_estimator(dm.x, sys.u1_support)
                angles.append(angle_degrees(est, sys.u1))
            medians.append(float(np.median(angles)))
        assert medians[0] > 55.0
        assert medians[1] > medians[0]

"""Estimator and thresholding-rule tests.

Thresholding rules are cross-checked against brute-force minimization of
the penalized scalar loss; estimator identities (ST vs first-iteration
hard-penalty RSPCA, oracle vs full-support PCA) are asserted bit-for-bit.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from spcalab import (
    DimensionError,
    DomainError,
    PenaltySpec,
    SpikedSpec,
    angle_degrees,
    oracle_estimator,
    pca_first,
    rspca,
    sample_gaussian,
    st_estimator,
    threshold,
)
from spcalab.eigen import dual_first_component
from spcalab.metrics import default_lambda_grid
from spcalab.penalties import FAMILIES, _threshold
from _oracles import brute_force_prox, rspca_reference, threshold_scalar


def scad_exact(x: float, penalty: PenaltySpec) -> Fraction:
    """SCAD's thresholding rule at x in exact rational arithmetic, bands at exact 2 lam and a lam."""
    t, lam, a = abs(Fraction(x)), Fraction(penalty.lam), Fraction(penalty.scad_a)
    if t <= 2 * lam:
        mag = max(t - lam, Fraction(0))
    elif t <= a * lam:
        mag = ((a - 1) * t - a * lam) / (a - 2)
    else:
        mag = t
    return mag if x >= 0 else -mag


def spiked_data(d, n, alpha, beta, seed):
    sys = SpikedSpec(d, n, alpha, beta)
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

    @pytest.mark.parametrize("family,a", [("hard", 3.7), ("soft", 3.7), ("scad", 2.0000000000000004),
                                          ("scad", 3.7), ("scad", 100.0)])
    def test_support_is_the_non_zeros(self, family, a):
        # rspca counts and compares supports from this mask, not from the values.
        # SCAD's blend is smallest just above 2 lam, at subnormal lambdas and a near 2.
        rng = np.random.default_rng(4)
        for lam in (0.0, 5e-324, 1.5e-323, 2.0**-1022, 0.31, 0.5, 1.7):
            x = np.array([lam, 2 * lam, a * lam, 3.4, 6.3, 0.0])
            up = np.nextafter(x, np.inf)
            x = np.concatenate([x, up, np.nextafter(up, np.inf), rng.standard_normal(50)])
            values, support = _threshold(np.concatenate([x, -x]), PenaltySpec(family, lam, a))
            assert support.tolist() == (values != 0).tolist()

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

    def test_numpy_reals_are_real(self):
        p = PenaltySpec.scad(np.float32(0.5), np.int64(4))
        assert threshold(np.array([0.75, 1.5]), p).tolist() == [0.25, 1.25]

    def test_scad_blend_that_overflows_is_finite(self):
        # Before, (a - 1) * x overflowed: inf with an overflow RuntimeWarning.
        x, p = 5e307, PenaltySpec.scad(1e8, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = threshold(np.array([x, -x]), p)
        want = scad_exact(x, p)
        assert got.tolist() == [float(want), -float(want)]
        assert abs(Fraction(got[0]) - want) <= Fraction(1, 10**12) * want

    @pytest.mark.parametrize("lam, a", [(1e8, 1e300), (1e10, 1e300), (5e307, 3.0), (6e307, 3.0),
                                        (1e-300, 1.5e308), (1.0, 2.0 + 2.0**-40)],
                             ids=["a_x_overflows", "a_lam_overflows", "x_near_max",
                                  "a_lam_past_max", "a_near_max", "a_near_2"])
    def test_overflow_path_keeps_the_support_rule_at_its_band_edges(self, lam, a):
        # Entries whose blend overflowed take the overflow-free form; the support
        # is still |x| > lam, and every value is the exact rule within 1e-12.
        big = np.finfo(float).max
        edges = [lam, 2.0 * lam, min(a * lam, big), big / (a - 1.0), big]
        x = np.array([e for v in edges for e in (np.nextafter(v, 0.0), v, np.nextafter(v, big))])
        x = np.concatenate([x, -x])
        penalty = PenaltySpec.scad(lam, a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, support = _threshold(x, penalty)
        assert np.isfinite(values).all()
        assert support.tolist() == (values != 0).tolist() == (np.abs(x) > lam).tolist()
        for xi, vi in zip(x.tolist(), values.tolist()):
            want = scad_exact(xi, penalty)
            assert abs(Fraction(vi) - want) <= Fraction(1, 10**12) * abs(want), (xi, vi)


class TestPcaFirst:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(30)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        est = pca_first(3.0 * np.outer(u, v))
        assert min(np.abs(est - u).max(), np.abs(est + u).max()) <= 1e-12

    def test_matches_direct_eigendecomposition(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 5))
        est = pca_first(x)
        w, vecs = np.linalg.eigh(x @ x.T / 5)
        assert angle_degrees(est, vecs[:, -1]) <= 1e-8

    def test_unit_norm_and_dense_support(self):
        dm, _ = spiked_data(100, 10, 0.6, 0.3, seed=1)
        est = pca_first(dm.x)
        assert est.any()
        assert abs(np.linalg.norm(est) - 1.0) <= 1e-12
        assert np.count_nonzero(est) == 100

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
            st_estimator(dm.x, 0.0), pca_first(dm.x)
        )

    def test_total_thresholding_flagged(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=3)
        from spcalab import dual_first_component

        lam = float(np.abs(dual_first_component(dm.x).u_tilde).max()) + 1.0
        est = st_estimator(dm.x, lam)
        assert not est.any()
        assert angle_degrees(est, np.ones(80)) == 90.0

    def test_support_is_exact_zeros(self):
        dm, _ = spiked_data(200, 10, 0.6, 0.1, seed=4)
        est = st_estimator(dm.x, 2.0)
        off = np.setdiff1d(np.arange(200), np.flatnonzero(est))
        assert np.all(est[off] == 0.0)
        assert est.any()

    def test_monotone_support_in_lambda(self):
        dm, _ = spiked_data(150, 12, 0.6, 0.3, seed=5)
        prev = None
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            supp = set(np.flatnonzero(st_estimator(dm.x, lam)).tolist())
            if prev is not None:
                assert supp <= prev
            prev = supp

    def test_scale_equivariance_power_of_two(self):
        dm, _ = spiked_data(60, 8, 0.6, 0.3, seed=6)
        a = st_estimator(dm.x, 1.5)
        b = st_estimator(2.0 * dm.x, 3.0)
        np.testing.assert_array_equal(a, b)

    def test_scale_equivariance_general(self):
        dm, _ = spiked_data(60, 8, 0.6, 0.3, seed=7)
        c = 1.7
        a = st_estimator(dm.x, 1.2)
        b = st_estimator(c * dm.x, c * 1.2)
        assert set(np.flatnonzero(a).tolist()) == set(np.flatnonzero(b).tolist())
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sign_flip_invariance(self):
        dm, sys = spiked_data(60, 8, 0.6, 0.3, seed=8)
        a = st_estimator(dm.x, 1.0)
        b = st_estimator(-dm.x, 1.0)
        assert abs(float(a @ sys.u1)) == abs(float(b @ sys.u1))

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
            assert np.array_equal(st, vec)
            assert st.any() == vec.any()
            assert trace.n_iterations == 1

    def test_lambda_zero_converges_in_one_iteration(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=11)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0))
        assert trace.converged
        assert trace.n_iterations == 1
        np.testing.assert_array_equal(vec, pca_first(dm.x))

    def test_all_zero_termination(self):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=12)
        vec, trace = rspca(dm.x, PenaltySpec.hard(1e9))
        assert not vec.any()
        assert trace.zero_terminated
        assert trace.iterations[-1].support_size == 0

    @pytest.mark.parametrize("bic", [False, True], ids=["fixed", "bic"])
    def test_all_zero_step_is_the_last_and_reads_ninety_degrees(self, bic):
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=12)
        grid = np.array([1e9]) if bic else None
        vec, trace = rspca(dm.x, PenaltySpec.hard(1e9), lambda_grid=grid)
        last = trace.iterations[-1]
        assert (trace.n_iterations, last.lam, last.support_size, last.angle_change_deg) == (
            1, 1e9, 0, 90.0)
        assert (last.sigma2 is None, last.bic_total is None) == (not bic, not bic)
        assert trace.converged and trace.zero_terminated
        assert vec.tolist() == [0.0] * 80

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
        dual = dual_first_component(dm.x)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0),
                           lambda_grid=default_lambda_grid(dual.u_tilde))
        assert trace.converged
        for it in trace.iterations:
            assert it.sigma2 is not None and it.sigma2 > 0
            assert it.bic_total is not None
        assert np.count_nonzero(vec) > 0

    def test_bic_mode_builds_no_selection_record(self, monkeypatch):
        # Each step reads lambda*, its total and sigma^2; only select_lambda_bic builds the record.
        import spcalab.metrics as metrics

        dm, _ = spiked_data(300, 15, 0.8, 0.2, seed=14)
        grid = default_lambda_grid(dual_first_component(dm.x).u_tilde)
        want = rspca(dm.x, PenaltySpec.hard(0.0), lambda_grid=grid)

        def forbidden(*args, **kwargs):
            raise AssertionError("rspca built a LambdaSelection")

        monkeypatch.setattr(metrics, "LambdaSelection", forbidden)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0), lambda_grid=grid)
        assert trace.n_iterations > 1
        assert vec.tobytes() == want[0].tobytes() and trace.iterations == want[1].iterations

    def test_bic_mode_checks_its_inputs_once_before_iterating(self, monkeypatch):
        import spcalab.estimators as est

        dm, _ = spiked_data(300, 15, 0.8, 0.2, seed=14)
        dc = dual_first_component(dm.x)
        checks, steps = [], []
        checked_grid, bic_selection = est._checked_grid, est._bic_selection
        monkeypatch.setattr(est, "_checked_grid", lambda g: checks.append(g) or checked_grid(g))
        monkeypatch.setattr(est, "_bic_selection", lambda *a: steps.append(a) or bic_selection(*a))
        hard = PenaltySpec.hard(0.0)
        for grid in ([], [1.0, 0.5], [-1.0, 0.5], [0.0, float("nan")]):
            with pytest.raises(DomainError):
                rspca(dm.x, hard, lambda_grid=grid, dual=dc)
        with pytest.raises(DimensionError):
            rspca(dm.x[:, 0], hard, lambda_grid=default_lambda_grid(dc.u_tilde), dual=dc)
        assert steps == []
        checks.clear()
        trace = rspca(dm.x, hard, lambda_grid=default_lambda_grid(dc.u_tilde), dual=dc)[1]
        assert trace.n_iterations > 1
        assert len(checks) == 1 and len(steps) == trace.n_iterations

    def test_bic_mode_recovers_support_on_easy_instance(self):
        dm, sys = spiked_data(500, 25, 0.9, 0.2, seed=15)
        dual = dual_first_component(dm.x)
        vec, trace = rspca(dm.x, PenaltySpec.hard(0.0),
                           lambda_grid=default_lambda_grid(dual.u_tilde))
        assert set(np.flatnonzero(vec).tolist()) == set(sys.u1_support.tolist())
        assert angle_degrees(vec, sys.u1) < 10.0

    @pytest.mark.parametrize("penalty", [PenaltySpec.soft(2.0), PenaltySpec.scad(2.0, 3.7)])
    def test_other_penalties_converge(self, penalty):
        dm, sys = spiked_data(400, 20, 0.9, 0.2, seed=16)
        vec, trace = rspca(dm.x, penalty)
        assert trace.converged
        assert vec.any()
        assert angle_degrees(vec, sys.u1) < 20.0


def test_every_estimator_returns_a_unit_or_all_zero_array():
    dm, sys = spiked_data(120, 10, 0.8, 0.2, seed=26)
    x = dm.x
    dual = dual_first_component(x)
    everything = float(np.abs(dual.u_tilde).max()) + 1.0
    fits = {
        "pca": pca_first(x),
        "st_keeps": st_estimator(x, 1.0),
        "st_zeroes": st_estimator(x, everything),
        "rspca_fixed": rspca(x, PenaltySpec.hard(1.0))[0],
        "rspca_bic": rspca(x, PenaltySpec.hard(0.0),
                           lambda_grid=default_lambda_grid(dual.u_tilde))[0],
        "oracle": oracle_estimator(x, sys.u1_support),
    }
    assert [name for name, est in fits.items() if not est.any()] == ["st_zeroes"]
    for name, est in fits.items():
        assert type(est) is np.ndarray and est.dtype == np.float64, name
        assert est.shape == (x.shape[0],), name
        assert abs(np.linalg.norm(est) - 1.0) <= 1e-12 or np.all(est == 0.0), name


def assert_same_fit(fit, reference):
    """Identical estimate bytes and identical trace fields (repr is exact for floats)."""
    (vec, trace), (ref_vec, ref_trace) = fit, reference
    assert vec.tobytes() == ref_vec.tobytes()
    assert vec.any() == ref_vec.any()
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
            kwargs = dict(lambda_grid=grid, dual=dc)
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


class TestRspcaShortcuts:
    """Cases of ``rspca``'s loop that the default grids may not reach, bit for bit
    against the plain loop in ``_oracles``.  The chord branch with a negative
    cosine is checked on ``_angle`` (test_metrics): at a fixed lambda each
    step's cosine with the last is positive, since the threshold moves no
    entry by more than lambda and ||X^T u|| exceeds lambda ||u||_1."""

    def test_equal_counts_with_other_supports_are_compared(self):
        # Three steps of one support size can only be followed by more steps
        # if a pair of them had different supports: the size alone must not
        # count as a stable support.
        dm, _ = spiked_data(100, 10, 0.2, 0.7, seed=0)
        dc = dual_first_component(dm.x)
        went_on = 0
        for lam in default_lambda_grid(dc.u_tilde).tolist():
            penalty = PenaltySpec.hard(lam)
            fit = rspca(dm.x, penalty, dual=dc)
            assert_same_fit(fit, rspca_reference(dm.x, penalty, dual=dc))
            sizes = [it.support_size for it in fit[1].iterations]
            went_on += any(sizes[i] == sizes[i + 1] == sizes[i + 2]
                           for i in range(len(sizes) - 3))
        assert went_on > 0

    @pytest.mark.parametrize("family", ["soft", "scad"])
    @pytest.mark.parametrize("seed", [102, 1720])
    def test_zero_termination_after_step_zero(self, seed, family):
        # BIC keeps some entries at step 0 and thresholds all of them later: at
        # step 1 for seed 102, at step 2 after a chord-branch step for seed 1720.
        dm, _ = spiked_data(40, 6, 0.2, 0.7, seed=seed)
        dc = dual_first_component(dm.x)
        penalty = PenaltySpec(family, 0.0)
        kwargs = dict(lambda_grid=default_lambda_grid(dc.u_tilde), dual=dc)
        fit = rspca(dm.x, penalty, **kwargs)
        assert_same_fit(fit, rspca_reference(dm.x, penalty, **kwargs))
        sizes = [it.support_size for it in fit[1].iterations]
        assert fit[1].zero_terminated and len(sizes) >= 2
        assert min(sizes[:-1]) > 0 and sizes[-1] == 0
        assert not fit[0].any()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_iteration(self, family):
        # Small lambdas end in the chord branch, large ones in arccos or at zero.
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=11)
        dc = dual_first_component(dm.x)
        for lam in default_lambda_grid(dc.u_tilde, points=12).tolist():
            penalty = PenaltySpec(family, lam)
            fit = rspca(dm.x, penalty, max_iter=1, dual=dc)
            assert_same_fit(fit, rspca_reference(dm.x, penalty, max_iter=1, dual=dc))
            assert fit[1].n_iterations == 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lambda_at_an_entry_drops_it(self, family):
        # |x| > lam, not >=: the support and its size agree with the values at a tie.
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=11)
        dc = dual_first_component(dm.x)
        for lam in np.sort(np.abs(dc.u_tilde))[-12::3].tolist():
            penalty = PenaltySpec(family, lam)
            fit = rspca(dm.x, penalty, dual=dc)
            assert_same_fit(fit, rspca_reference(dm.x, penalty, dual=dc))

    @pytest.mark.parametrize("lam, max_iter", [(0.0, 200), (0.5, 200), (0.5, 1), (2.0, 200),
                                               (1e9, 200)])
    def test_estimate_is_not_shared(self, lam, max_iter):
        # Neither a later fit nor a refit writes or reads the memory of an estimate.
        dm, _ = spiked_data(80, 10, 0.6, 0.3, seed=11)
        dc = dual_first_component(dm.x)
        u_tilde = dc.u_tilde.copy()
        penalty = PenaltySpec.hard(lam)
        vec = rspca(dm.x, penalty, max_iter=max_iter, dual=dc)[0]
        first = vec.copy()
        other = rspca(dm.x, PenaltySpec.hard(lam + 0.25), max_iter=max_iter, dual=dc)[0]
        assert vec.tobytes() == first.tobytes() and other is not vec
        vec[:] = np.nan
        refit = rspca(dm.x, penalty, max_iter=max_iter, dual=dc)[0]
        assert refit.tobytes() == first.tobytes()
        assert dc.u_tilde.tobytes() == u_tilde.tobytes()


class TestOracleEstimator:
    def test_full_support_equals_pca(self):
        dm, _ = spiked_data(40, 8, 0.6, 0.3, seed=20)
        a = oracle_estimator(dm.x, np.arange(40))
        b = pca_first(dm.x)
        np.testing.assert_array_equal(a, b)

    def test_zero_off_support_rows(self):
        dm, sys = spiked_data(60, 8, 0.8, 0.3, seed=21)
        m = sys.support_size
        x = dm.x.copy()
        x[m:, :] = 0.0
        a = oracle_estimator(x, np.arange(m))
        b = pca_first(x)
        assert angle_degrees(a, b) == 0.0
        assert np.all(a[m:] == 0.0)

    def test_small_support_smaller_than_n(self):
        # support of size 2 with n=8 exercises the wide submatrix path
        dm, sys = spiked_data(100, 8, 0.9, 0.1, seed=22)
        est = oracle_estimator(dm.x, sys.u1_support)
        assert set(np.flatnonzero(est).tolist()) <= set(sys.u1_support.tolist())
        assert abs(np.linalg.norm(est) - 1.0) <= 1e-12

    def test_exact_zeros_off_support(self):
        dm, _ = spiked_data(50, 8, 0.6, 0.5, seed=23)
        est = oracle_estimator(dm.x, [1, 4, 7])
        off = np.setdiff1d(np.arange(50), [1, 4, 7])
        assert np.all(est[off] == 0.0)

    def test_python_int_support_is_accepted(self):
        dm, _ = spiked_data(20, 5, 0.6, 0.3, seed=24)
        est = oracle_estimator(dm.x, [1, 3])
        assert np.flatnonzero(est).tolist() == [1, 3]

    def test_support_is_taken_as_its_sorted_set(self):
        dm, _ = spiked_data(50, 8, 0.6, 0.5, seed=25)
        a = oracle_estimator(dm.x, [7, 1, 4, 7, 1])
        b = oracle_estimator(dm.x, [1, 4, 7])
        assert a.tobytes() == b.tobytes()
        assert a.any() == b.any()

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

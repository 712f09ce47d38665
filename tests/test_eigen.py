"""Dual eigenpair tests.

Cross-route oracles: numpy.linalg.eigh for the direct d x d covariance
route and the full dual spectrum, and a characteristic-polynomial/bisection
oracle for small spectra.
"""

import hashlib

import numpy as np
import pytest

from spcalab import (
    NumericError,
    angle_degrees,
    dual_first_component,
)
from _oracles import eigenvalues_by_bisection


def random_data(d, n, seed):
    return np.random.default_rng(seed).standard_normal((d, n))


class TestSymEigen:
    """The dual's symmetric eigenproblem, through the leading pair kept."""

    def test_diagonal_canonical(self):
        dc = dual_first_component(np.diag([2.0, 1.0]))
        assert dc.value == 2.0
        np.testing.assert_array_equal(dc.v1, [1.0, 0.0])
        dc = dual_first_component(np.diag([1.0, -2.0]))
        assert dc.value == 2.0
        np.testing.assert_array_equal(dc.v1, [0.0, 1.0])

    def test_tied_top_pair_is_ambiguous(self):
        # The gap is to the second-largest eigenvalue, not to the smallest.
        dc = dual_first_component(np.diag([2.0, 2.0, 1.0]))
        assert dc.ambiguous
        assert dc.value == 4.0 / 3.0
        assert dc.v1[2] == 0.0

    def test_random_5x5_vs_charpoly_oracle(self):
        x = random_data(12, 5, seed=31)
        s = x.T @ x / 5
        dc = dual_first_component(x)
        np.testing.assert_allclose(s @ dc.v1, dc.value * dc.v1, atol=1e-10)
        oracle = eigenvalues_by_bisection(s)
        assert oracle.shape == (5,)
        np.testing.assert_allclose(dc.value, oracle[0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 25])
    def test_reconstruction_and_orthogonality(self, n, seed):
        # S v1 = value v1, and v1 is orthogonal to every other eigenvector
        # of numpy's full decomposition of S, so it is the leading one.
        x = random_data(2 * n + 5, n, seed)
        s = x.T @ x / n
        dc = dual_first_component(x)
        assert np.linalg.norm(s @ dc.v1 - dc.value * dc.v1) <= 1e-10 * np.linalg.norm(s, "fro")
        _, vectors = np.linalg.eigh(s)
        assert np.max(np.abs(vectors[:, :-1].T @ dc.v1)) <= 1e-10

    def test_unit_norm_and_sign_canonical(self):
        for seed in range(9):
            v = dual_first_component(random_data(20, 9, seed)).v1
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert v[np.argmax(np.abs(v))] >= 0

    def test_deterministic_bytes(self):
        x = random_data(40, 11, seed=77)
        a, b = dual_first_component(x), dual_first_component(x)
        assert a.v1.tobytes() == b.v1.tobytes()
        assert a.u_tilde.tobytes() == b.u_tilde.tobytes()


class TestDualFirstComponent:
    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(15)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        x = 2.5 * np.outer(u, v)
        dc = dual_first_component(x)
        got = dc.u_tilde / np.linalg.norm(dc.u_tilde)
        err = min(np.max(np.abs(got - u)), np.max(np.abs(got + u)))
        assert err <= 1e-12

    def test_matches_direct_covariance_eigh(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 5))
        dc = dual_first_component(x)
        cov = x @ x.T / 5
        w, vecs = np.linalg.eigh(cov)
        assert angle_degrees(dc.u_tilde, vecs[:, -1]) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_dual_primal_agreement_property(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 9))
        d = int(rng.integers(n, 65))
        x = rng.standard_normal((d, n))
        dc = dual_first_component(x)
        w, vecs = np.linalg.eigh(x @ x.T / n)
        assert angle_degrees(dc.u_tilde, vecs[:, -1]) <= 1e-8

    def test_dual_eigenvalues_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((30, 6))
            assert dual_first_component(x).value > 0

    def test_isotropic_degenerate_flags_ambiguity(self):
        dc = dual_first_component(np.eye(3))
        assert dc.ambiguous
        np.testing.assert_allclose(dc.value, 1.0 / 3.0, atol=1e-14)
        np.testing.assert_array_equal(dc.v1, [1.0, 0.0, 0.0])

    def test_generic_input_not_ambiguous(self):
        rng = np.random.default_rng(8)
        dc = dual_first_component(rng.standard_normal((12, 4)))
        assert not dc.ambiguous

    def test_wide_matrix_supported(self):
        # d < n arises for oracle subspaces with tiny support
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 10))
        dc = dual_first_component(x)
        w, vecs = np.linalg.eigh(x @ x.T / 10)
        assert angle_degrees(dc.u_tilde, vecs[:, -1]) <= 1e-8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(1, 1), (4, 2), (5, 3)], ids=["1x1", "4x2", "5x3"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_every_non_finite_entry_raises_without_a_warning(self, shape, bad):
        # The check on S alone catches it: x_ij^2 lands on S's diagonal.
        for index in np.ndindex(shape):
            x = np.ones(shape)
            x[index] = bad
            with pytest.raises(NumericError, match="non-finite"):
                dual_first_component(x)

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("spcalab.eigen.np.linalg.eigh", fail)
        with pytest.raises(NumericError):
            dual_first_component(np.ones((5, 3)))

    def test_u_tilde_is_x_times_v1(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((9, 4))
        dc = dual_first_component(x)
        np.testing.assert_array_equal(dc.u_tilde, x @ dc.v1)

    def test_pinned_bytes(self):
        # Digests for this numerics stack (numpy, LAPACK/BLAS build, CPU
        # kernel), taken from the full-spectrum sort this solve replaced.
        dc = dual_first_component(random_data(2000, 25, seed=2026))
        digest = hashlib.sha256()
        for part in (dc.v1, dc.u_tilde, np.float64(dc.value), np.bool_(dc.ambiguous)):
            digest.update(part.tobytes())
        assert not dc.ambiguous
        assert digest.hexdigest() == "cc7196ae2c0dd323e0bbd5e8829de683db423732249c06772ee06e579a897d80"

"""Eigensolver and dual-transformation tests.

Cross-route oracles: numpy.linalg.eigh for the direct d x d covariance
route, and a characteristic-polynomial/bisection oracle for small spectra.
"""

import numpy as np
import pytest

from spcalab import (
    DegenerateInputError,
    DimensionError,
    NumericError,
    angle_degrees,
    dual_first_component,
    sym_eigh,
)
from _oracles import eigenvalues_by_bisection


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a + a.T


class TestSymEigen:
    def test_identity(self):
        values, vectors = sym_eigh(np.eye(3))
        assert len(values) == 3
        np.testing.assert_allclose(values, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)

    def test_diagonal_canonical(self):
        values, vectors = sym_eigh(np.diag([4.0, 1.0]))
        assert values.tolist() == [4.0, 1.0]
        np.testing.assert_array_equal(vectors[:, 0], [1.0, 0.0])
        np.testing.assert_array_equal(vectors[:, 1], [0.0, 1.0])

    def test_descending_order(self):
        values, _ = sym_eigh(np.diag([1.0, 5.0, -2.0, 3.0]))
        assert values.tolist() == sorted(values.tolist(), reverse=True)

    def test_random_5x5_vs_charpoly_oracle(self):
        m = random_symmetric(5, seed=31)
        values, vectors = sym_eigh(m)
        for j in range(5):
            v = vectors[:, j]
            np.testing.assert_allclose(m @ v, values[j] * v, atol=1e-10)
        oracle = eigenvalues_by_bisection(m)
        assert oracle.shape == (5,)
        np.testing.assert_allclose(values, oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 25])
    def test_reconstruction_and_orthogonality(self, n, seed):
        m = random_symmetric(n, seed)
        values, vectors = sym_eigh(m)
        recon = (vectors * values) @ vectors.T
        fro = np.linalg.norm(m, "fro")
        assert np.linalg.norm(m - recon, "fro") <= 1e-10 * fro
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    def test_unit_norm_and_sign_canonical(self):
        values, vectors = sym_eigh(random_symmetric(9, seed=5))
        for j in range(9):
            v = vectors[:, j]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert v[np.argmax(np.abs(v))] >= 0

    def test_deterministic_bytes(self):
        m = random_symmetric(11, seed=77)
        v1, u1 = sym_eigh(m)
        v2, u2 = sym_eigh(m)
        assert v1.tobytes() == v2.tobytes()
        assert u1.tobytes() == u2.tobytes()

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            sym_eigh(np.ones((2, 3)))

    def test_non_finite_raises(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(NumericError):
            sym_eigh(m)

    def test_asymmetric_raises(self):
        m = np.eye(3)
        m[0, 1] = 1e-4
        with pytest.raises(NumericError):
            sym_eigh(m)


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
            s = x.T @ x / 6
            s = (s + s.T) / 2
            values, _ = sym_eigh(s)
            assert values.min() >= -1e-12 * np.linalg.norm(s, "fro")

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

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateInputError):
            dual_first_component(np.zeros((5, 3)))

    def test_non_finite_raises(self):
        x = np.ones((4, 2))
        x[1, 1] = np.inf
        with pytest.raises(NumericError):
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

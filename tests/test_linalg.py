import numpy as np
import pytest

from olcontrol import InvalidInputError, spectral_norm, spectral_radius_estimate
from olcontrol.linalg import batch_spectral_norms


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_nilpotent_block(self):
        assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_norm([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            spectral_norm([[np.inf, 0.0], [0.0, 1.0]])

    def test_circulant_stall_guard(self, ring_matrices):
        # the all-ones start is an exact eigenvector of circulants; the
        # second start must still find the dominant singular value
        a, _ = ring_matrices
        m = np.eye(3) - a
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-9)

    def test_matches_transpose(self, rng):
        for _ in range(20):
            m = rng.standard_normal((5, 3))
            assert spectral_norm(m) == pytest.approx(spectral_norm(m.T), rel=1e-9)

    def test_operator_bound(self, rng):
        for _ in range(100):
            m = rng.standard_normal((4, 6))
            x = rng.standard_normal(6)
            assert np.linalg.norm(m @ x) <= spectral_norm(m) * np.linalg.norm(x) * (1 + 1e-9)


class TestBatchSpectralNorms:
    def test_matches_svd(self, rng):
        for shape in ((7, 3, 3), (5, 4, 2), (1, 2, 6)):
            stack = rng.standard_normal(shape)
            oracle = np.linalg.svd(stack, compute_uv=False)[:, 0]
            np.testing.assert_allclose(batch_spectral_norms(stack), oracle, rtol=1e-12)

    def test_empty_stack(self):
        assert batch_spectral_norms(np.zeros((0, 3, 3))).shape == (0,)

    def test_non_finite_rejected(self):
        stack = np.ones((2, 2, 2))
        stack[1, 0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            batch_spectral_norms(stack)
        stack[1, 0, 1] = np.inf
        with pytest.raises(InvalidInputError):
            batch_spectral_norms(stack)

    def test_not_a_stack_rejected(self):
        with pytest.raises(InvalidInputError):
            batch_spectral_norms(np.eye(3))


class TestSpectralRadiusEstimate:
    def test_diagonal(self):
        assert spectral_radius_estimate(np.diag([0.5, 0.2]), 64) == pytest.approx(0.5, abs=1e-3)

    def test_zero(self):
        assert spectral_radius_estimate(np.zeros((3, 3)), 64) == 0.0

    def test_ring_matrix(self, ring_matrices):
        # eigenvalue oracle: circulant eigenvalues are (1 + 0.2 w^k) / 3.6
        a, _ = ring_matrices
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        assert rho == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert spectral_radius_estimate(a, 64) == pytest.approx(rho, abs=1e-6)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_radius_estimate(np.zeros((2, 3)), 64)

    def test_small_k_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_radius_estimate(np.eye(2), 4)

    def test_monotone_in_k_for_normal(self, rng):
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            a = q @ np.diag(rng.uniform(-0.9, 0.9, 4)) @ q.T
            estimates = [spectral_radius_estimate(a, k) for k in (8, 16, 32, 64, 128)]
            diffs = np.diff(estimates)
            assert np.all(diffs <= 1e-10)

    def test_upper_bias(self, rng):
        # known eigenvalues: triangular matrices (non-normal) and rotations
        for _ in range(10):
            tri = np.triu(rng.standard_normal((4, 4)))
            np.fill_diagonal(tri, rng.uniform(-0.8, 0.8, 4))
            rho = np.max(np.abs(np.diag(tri)))
            assert spectral_radius_estimate(tri, 64) >= rho - 1e-9

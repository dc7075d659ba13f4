import numpy as np
import pytest

import olcontrol.system as system_mod
from olcontrol import (
    BoxSet,
    InvalidInputError,
    LtiSystem,
    NotStronglyStableError,
    StabilityCert,
    certify_strong_stability,
    simulate,
    simulate_decomposed,
    spectral_norm,
    state_bound,
    steady_state_of_input,
    step,
)
from olcontrol.controllers import PROJECTION_TOL, _box_least_squares
from olcontrol.system import rollout


class TestLtiSystem:
    def test_unstable_rejected(self):
        with pytest.raises(NotStronglyStableError, match="radius"):
            LtiSystem([[1.1]], [[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            LtiSystem(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_carries_its_certificate(self, ring_system):
        assert ring_system.cert == certify_strong_stability(ring_system.a)
        assert "cert" not in repr(ring_system)
        with pytest.raises(TypeError):
            LtiSystem(ring_system.a, ring_system.b, cert=ring_system.cert)

    def test_steady_state_gain(self, ring_system):
        s = ring_system.steady_state_gain
        expected = np.linalg.solve(np.eye(3) - ring_system.a, ring_system.b)
        np.testing.assert_allclose(s, expected, atol=1e-12)


class TestStep:
    def test_all_zeros(self, ring_system):
        out = step(ring_system, np.zeros(3), np.zeros(2), np.zeros(3))
        np.testing.assert_allclose(out, np.zeros(3))

    def test_scalar_arithmetic(self, scalar_system):
        out = step(scalar_system, [2.0], [1.0], [0.25])
        assert out[0] == pytest.approx(2.25)

    def test_ring_unit_vectors(self, ring_system):
        e1 = np.array([1.0, 0.0, 0.0])
        u = np.array([1.0, 0.0])
        out = step(ring_system, e1, u, np.zeros(3))
        np.testing.assert_allclose(out, ring_system.a @ e1 + ring_system.b @ u, atol=1e-14)

    def test_dimension_mismatch(self, ring_system):
        for x, u, w in [
            ((2,), (2,), (3,)),
            ((4, 3), (2,), (4, 3)),  # one input for four runs
            ((4, 3), (5, 2), (4, 3)),
            ((4, 3), (4, 2), (3,)),
        ]:
            with pytest.raises(InvalidInputError):
                step(ring_system, np.zeros(x), np.zeros(u), np.zeros(w))


class TestCertify:
    def test_scalar_half(self):
        cert = certify_strong_stability([[0.5]])
        assert cert.gamma == pytest.approx(0.475, abs=1e-12)
        assert cert.kappa == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        cert = certify_strong_stability(np.zeros((3, 3)))
        assert cert.gamma == 1.0
        assert cert.kappa == 1.0

    def test_ring_matrix(self, ring_matrices):
        a, _ = ring_matrices
        cert = certify_strong_stability(a)
        # radius oracle 1/3 and the 5% margin give gamma = 0.95 * 2/3
        assert cert.gamma == pytest.approx(0.95 * (2.0 / 3.0), abs=1e-6)
        assert 1.0 <= cert.kappa < np.inf

    def test_norm_decay_invariant(self, ring_matrices, rng):
        # independent oracle: exact SVD norms, far past the scanned powers;
        # the Jordan block's first power with ||A^K|| <= (1-gamma)^K is K = 64
        mats = [ring_matrices[0], np.array([[0.0, 2.0], [0.0, 0.0]])]
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mats.append(q @ np.diag([0.7, -0.3, 0.1]) @ q.T)
        mats.append(np.array([[0.9, 10.0], [0.0, 0.9]]))
        for a in mats:
            cert = certify_strong_stability(a)
            power = np.eye(a.shape[0])
            for k in range(1001):
                bound = cert.kappa * (1.0 - cert.gamma) ** k
                assert np.linalg.norm(power, 2) <= bound * (1 + 1e-9)
                power = power @ a

    def test_unstable_rejected(self):
        with pytest.raises(NotStronglyStableError, match="1.2"):
            certify_strong_stability([[1.2]])

    def test_no_decayed_power_rejected(self, monkeypatch):
        # a radius estimate below the true radius 0.9 leaves no k with
        # ||A^k|| <= (1-gamma)^k, so no certificate may be issued
        monkeypatch.setattr(system_mod, "spectral_radius_estimate", lambda a, k: 0.5)
        with pytest.raises(NotStronglyStableError, match="no power"):
            certify_strong_stability([[0.9]])

    def test_cert_validation(self):
        with pytest.raises(InvalidInputError):
            StabilityCert(gamma=0.0, kappa=1.0)
        with pytest.raises(InvalidInputError):
            StabilityCert(gamma=0.5, kappa=0.5)


class TestSteadyStateMaps:
    def test_zero_input(self, ring_system):
        np.testing.assert_allclose(steady_state_of_input(ring_system, np.zeros(2)), np.zeros(3))

    def test_scalar(self, scalar_system):
        assert steady_state_of_input(scalar_system, [1.0])[0] == pytest.approx(2.0)

    def test_ring_against_solve(self, ring_system):
        u = np.array([1.0, 0.0])
        z = steady_state_of_input(ring_system, u)
        oracle = np.linalg.solve(np.eye(3) - ring_system.a, ring_system.b @ u)
        np.testing.assert_allclose(z, oracle, atol=1e-12)
        # fixed point of the dynamics
        np.testing.assert_allclose(step(ring_system, z, u, np.zeros(3)), z, atol=1e-12)

    def test_input_recovery_scalar(self, scalar_system):
        # the input holding z comes from projecting z onto the manifold
        box = BoxSet([-5.0], [5.0])
        s = scalar_system.steady_state_gain  # [[2.0]], so the step 1/||S||^2 is 0.25
        u = _box_least_squares(s, np.array([2.0]), box, 0.25, np.zeros(1))
        assert u[0] == pytest.approx(1.0, abs=PROJECTION_TOL)
        assert _box_least_squares(s, np.array([0.0]), box, 0.25, np.zeros(1))[0] == 0.0

    def test_round_trip(self, ring_system, rng):
        box = BoxSet.symmetric(5.0, 2)
        s = ring_system.steady_state_gain
        for _ in range(100):
            u = rng.uniform(box.lower, box.upper)
            z = steady_state_of_input(ring_system, u)
            u_back = _box_least_squares(s, z, box, 1.0 / spectral_norm(s) ** 2, np.zeros(2))
            # B has full column rank here, so the projection recovers u
            np.testing.assert_allclose(u_back, u, atol=PROJECTION_TOL)


class TestSimulation:
    def test_block_forcing_matches_columns(self, ring_system, rng):
        # a one-column block takes the same products as a vector, bit for
        # bit; wider blocks go through a matrix product that BLAS may round
        # differently in the last bit
        for width, tol in ((1, 0.0), (4, 1e-14)):
            x0 = rng.standard_normal((3, width))
            forcing = rng.standard_normal((30, 3, width))
            blocks = rollout(ring_system, x0, forcing)
            assert blocks.shape == (31, 3, width)
            for p in range(width):
                column = rollout(ring_system, x0[:, p], forcing[:, :, p])
                np.testing.assert_allclose(blocks[:, :, p], column, rtol=tol, atol=tol)

    def test_no_disturbance_decomposition(self, ring_system, rng):
        u_seq = rng.uniform(-1, 1, (10, 2))
        w_seq = np.zeros((10, 3))
        nominal, dist, full = simulate_decomposed(ring_system, rng.standard_normal(3), u_seq, w_seq)
        np.testing.assert_allclose(dist, 0.0, atol=0.0)
        np.testing.assert_allclose(full, nominal, atol=0.0)

    def test_no_input_decomposition(self, ring_system, rng):
        u_seq = np.zeros((10, 2))
        w_seq = rng.uniform(-1, 1, (10, 3))
        nominal, dist, full = simulate_decomposed(ring_system, np.zeros(3), u_seq, w_seq)
        np.testing.assert_allclose(nominal, 0.0, atol=0.0)
        np.testing.assert_allclose(full, dist, atol=0.0)

    def test_scalar_superposition_vs_direct(self, scalar_system, rng):
        u_seq = rng.uniform(-1, 1, (4, 1))
        w_seq = rng.uniform(-1, 1, (4, 1))
        x1 = rng.standard_normal(1)
        _, _, full = simulate_decomposed(scalar_system, x1, u_seq, w_seq)
        direct = simulate(scalar_system, x1, u_seq, w_seq)
        np.testing.assert_allclose(full, direct, rtol=1e-12, atol=1e-14)

    def test_ring_superposition_relative(self, ring_system, rng):
        u_seq = rng.uniform(-5, 5, (200, 2))
        w_seq = rng.uniform(-0.5, 0.5, (200, 3))
        x1 = rng.standard_normal(3)
        _, _, full = simulate_decomposed(ring_system, x1, u_seq, w_seq)
        direct = simulate(ring_system, x1, u_seq, w_seq)
        scale = np.maximum(np.abs(direct), 1.0)
        assert np.max(np.abs(full - direct) / scale) <= 1e-12

    def test_length_mismatch(self, ring_system):
        with pytest.raises(InvalidInputError):
            simulate_decomposed(ring_system, np.zeros(3), np.zeros((5, 2)), np.zeros((4, 3)))

    def test_zero_step_run(self, ring_system):
        x1 = np.array([1.0, -2.0, 0.5])
        states = simulate(ring_system, x1, [], [])
        np.testing.assert_array_equal(states, x1[None, :])

    def test_geometric_tracking(self, ring_system, rng):
        cert = certify_strong_stability(ring_system.a)
        for _ in range(5):
            u = rng.uniform(-5, 5, 2)
            z = steady_state_of_input(ring_system, u)
            x1 = rng.standard_normal(3) * 3
            states = simulate(ring_system, x1, np.tile(u, (40, 1)))
            e0 = np.linalg.norm(x1 - z)
            fp_floor = 1e-12 * (1.0 + np.linalg.norm(z))
            for t, x in enumerate(states):
                bound = cert.kappa * (1.0 - cert.gamma) ** t * e0
                # once the bound decays below float noise, state and target
                # are numerically identical
                assert np.linalg.norm(x - z) <= max(bound * (1 + 1e-9), fp_floor)

    def test_neumann_partial_sums(self, ring_matrices):
        a, _ = ring_matrices
        cert = certify_strong_stability(a)
        eye = np.eye(3)
        for k_top in (5, 20, 50):
            partial = sum(np.linalg.matrix_power(a, k) for k in range(k_top + 1))
            lhs = spectral_norm((eye - a) @ partial - eye)
            rhs = cert.kappa * (1.0 - cert.gamma) ** (k_top + 1) / cert.gamma
            # at K=50 the true residual (~1e-25) sits far below the float
            # noise of the O(1) cancellation, hence the absolute allowance
            assert lhs <= rhs * (1 + 1e-9) + 1e-14


class TestStateBound:
    def test_degenerate_clamped(self, scalar_system):
        zero_box = BoxSet([0.0], [0.0])
        bound = state_bound(scalar_system, [0.0], zero_box, zero_box)
        assert bound.d == pytest.approx(1e-12)

    def test_scalar_formula(self, scalar_system):
        bound = state_bound(scalar_system, [0.0], BoxSet([-1.0], [1.0]), BoxSet([0.0], [0.0]))
        assert bound.d == pytest.approx(1.0 / 0.475, rel=1e-12)

    def test_linearity_in_w(self, scalar_system):
        zero_box = BoxSet([0.0], [0.0])
        d1 = state_bound(scalar_system, [0.0], zero_box, BoxSet([-0.5], [0.5])).d
        d2 = state_bound(scalar_system, [0.0], zero_box, BoxSet([-1.0], [1.0])).d
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_bound_holds_on_random_runs(self, scalar_system, rng):
        u_box = BoxSet([-1.0], [1.0])
        bound = state_bound(scalar_system, [0.0], u_box, BoxSet([0.0], [0.0]))
        # vectorized batch of 10^4 random input sequences, T = 200
        runs = 10_000
        states = np.zeros(runs)
        max_norm = 0.0
        u = rng.uniform(-1.0, 1.0, (200, runs))
        for t in range(200):
            states = 0.5 * states + u[t]
            max_norm = max(max_norm, np.max(np.abs(states)))
        assert max_norm <= bound.d

    def test_box_validation(self):
        with pytest.raises(InvalidInputError):
            BoxSet([1.0], [0.0])
        with pytest.raises(InvalidInputError):
            BoxSet([0.0], [np.inf])
        box = BoxSet([-1.0, -2.0], [3.0, 0.5])
        assert box.max_corner_norm() == pytest.approx(np.hypot(3.0, 2.0))
        np.testing.assert_allclose(box.clamp([10.0, -10.0]), [3.0, -2.0])

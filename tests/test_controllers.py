import itertools

import numpy as np
import pytest

import olcontrol.controllers as ctrl_mod
from olcontrol import (
    BoxSet,
    DacController,
    InvalidInputError,
    LtiSystem,
    OlcController,
    ProjectionFailureError,
    QuadraticCost,
    best_dac,
    certify_strong_stability,
    estimate_disturbance,
    project_steady_state,
    simulate,
    solve_benchmarks,
    steady_state_of_input,
    step,
    regret_optimal_step_size,
)
from olcontrol.controllers import PROJECTION_TOL, _BoxLeastSquares, project_dac_blocks
from olcontrol.harness import ExperimentConfig, draw_run, run_lockstep
from olcontrol.linalg import BOX_QP_MAX_DIM, box_qp, matvec, row_norms


def _small_problem(horizon=8):
    """x1, w_seq and costs of a short run on the ring plant."""
    return np.zeros(3), np.full((horizon - 1, 3), 0.1), [QuadraticCost(np.eye(3), np.ones(3))] * horizon


@pytest.fixture()
def integrator():
    """a = 0, b = 1: the manifold is the input box itself."""
    return LtiSystem([[0.0]], [[1.0]])


class TestStepSize:
    def test_reference_value(self, integrator):
        assert (integrator.cert.gamma, integrator.cert.kappa) == (1.0, 1.0)
        eta = regret_optimal_step_size(1.0, 100, integrator)
        assert eta == pytest.approx(2.0 / np.sqrt(500.0), rel=1e-12)

    def test_scalings(self, integrator):
        base = regret_optimal_step_size(1.0, 100, integrator)
        assert regret_optimal_step_size(2.0, 100, integrator) == pytest.approx(base / 2)
        assert regret_optimal_step_size(1.0, 400, integrator) == pytest.approx(base / 2)

    def test_validation(self, integrator):
        with pytest.raises(InvalidInputError):
            regret_optimal_step_size(0.0, 100, integrator)
        with pytest.raises(InvalidInputError):
            regret_optimal_step_size(1.0, 0, integrator)


class TestProjection:
    def test_idempotent_on_manifold(self, ring_system, ring_u_box, rng):
        for _ in range(10):
            u = rng.uniform(ring_u_box.lower, ring_u_box.upper)
            y = steady_state_of_input(ring_system, u)
            np.testing.assert_allclose(project_steady_state(ring_system, ring_u_box, y), y, atol=1e-8)

    def test_scalar_clamp(self, scalar_system):
        box = BoxSet([-1.0], [1.0])  # manifold is [-2, 2]
        z = project_steady_state(scalar_system, box, [3.0])
        assert z[0] == pytest.approx(2.0, abs=1e-9)

    def test_matches_grid_search(self, ring_system, ring_u_box, rng):
        s = ring_system.steady_state_gain
        grid_axis = np.linspace(-5.0, 5.0, 401)
        uu, vv = np.meshgrid(grid_axis, grid_axis, indexing="ij")
        grid = np.stack([uu.ravel(), vv.ravel()], axis=1)
        grid_points = grid @ s.T
        for _ in range(5):
            y = rng.standard_normal(3) * 4
            z = project_steady_state(ring_system, ring_u_box, y)
            best = np.min(np.linalg.norm(grid_points - y, axis=1))
            assert np.linalg.norm(z - y) <= best + 1e-3

    def test_contraction(self, ring_system, ring_u_box, rng):
        for _ in range(500):
            a = rng.standard_normal(3) * 5
            b = a + rng.standard_normal(3) * rng.uniform(0, 2)
            pa = project_steady_state(ring_system, ring_u_box, a)
            pb = project_steady_state(ring_system, ring_u_box, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 2 * PROJECTION_TOL

    def test_double_projection(self, ring_system, ring_u_box, rng):
        for _ in range(20):
            y = rng.standard_normal(3) * 6
            once = project_steady_state(ring_system, ring_u_box, y)
            twice = project_steady_state(ring_system, ring_u_box, once)
            np.testing.assert_allclose(twice, once, atol=1e-7)

    @pytest.mark.parametrize("box", [BoxSet.symmetric(1.0, 1), BoxSet.symmetric(1.0, 3), (-1.0, 1.0)],
                             ids=["narrow", "wide", "tuple"])
    def test_box_fitted_to_the_plant(self, ring_system, box):
        with pytest.raises(InvalidInputError, match="input box"):
            project_steady_state(ring_system, box, np.ones(3))

    def test_failure_surfaced(self, ring_system, ring_u_box, monkeypatch):
        # a one-iteration cap cannot settle OLC's first projection, onto an
        # interior solution; the exact projection has no cap to hit
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", 1)
        y = np.array([1.0, 2.0, -1.0])
        with pytest.raises(ProjectionFailureError, match="moving"):
            OlcController(ring_system, ring_u_box, 0.1, z0=y)
        s = ring_system.steady_state_gain
        np.testing.assert_allclose(project_steady_state(ring_system, ring_u_box, y),
                                   s @ face_enumeration(s, y, ring_u_box), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("b", [[[1.0, 1.001], [0.0, 0.0], [1.0, 1.0]], [[1.0, 1.2], [0.0, 0.0], [1.0, 1.0]],
                                   [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]], ids=["eps_1e-3", "eps_0.2", "equal_columns"])
    def test_ill_conditioned_and_singular_gains(self, ring_matrices, rng, b):
        # cond(S) ~ 4e3 (the fixed-step projection failed at its cap on every
        # one of these targets) and ~ 24, and an S of rank 1.  The exact
        # answers sit within 3e-14 of the reference and their KKT residuals
        # within 2e-13, at targets of norm up to about 25
        sys = LtiSystem(ring_matrices[0], b)
        s, box = sys.steady_state_gain, BoxSet.symmetric(5.0, 2)
        for y in [np.array([3.0, -1.0, 7.0]), *rng.standard_normal((10, 3)) * 8.0]:
            z = project_steady_state(sys, box, y)
            np.testing.assert_allclose(z, s @ face_enumeration(s, y, box), rtol=0.0, atol=1e-12)
            u = box_qp(s.T @ s, -(s.T @ y), box.lower, box.upper)
            assert np.array_equal(z, s @ u)
            grad = 2.0 * s.T @ (s @ u - y)
            assert np.max(np.abs(np.clip(u - grad, box.lower, box.upper) - u)) <= 1e-11


class TestOlcController:
    def test_zero_gain_rejected(self):
        with pytest.raises(InvalidInputError, match="steady-state gain is zero"):
            OlcController(LtiSystem([[0.5]], [[0.0]]), BoxSet([-1.0], [1.0]), eta=0.1)

    @pytest.mark.parametrize("eta", [True, "0.1", np.array([True, True])], ids=["bool", "text", "bool_array"])
    def test_bad_step_size_rejected(self, ring_system, ring_u_box, eta):
        # each entry is checked as DacController's eta_g is: a bool or a str is no step size
        with pytest.raises(InvalidInputError, match="step size must be a positive finite number"):
            OlcController(ring_system, ring_u_box, eta)

    def test_box_that_is_no_boxset_rejected(self, ring_system):
        box = [[-1.0, -1.0], [1.0, 1.0]]
        with pytest.raises(InvalidInputError, match="input box must be a BoxSet"):
            OlcController(ring_system, box, 0.1)
        with pytest.raises(InvalidInputError, match="input box must be a BoxSet"):
            DacController(ring_system, box, 3, 0.1, 1.0)

    def test_act_scalar(self, scalar_system):
        olc = OlcController(scalar_system, BoxSet([-3.0], [3.0]), eta=0.1, z0=[2.0])
        assert olc.act(np.zeros(1))[0] == pytest.approx(1.0, abs=1e-9)

    def test_act_zero_target(self, scalar_system):
        olc = OlcController(scalar_system, BoxSet([-3.0], [3.0]), eta=0.1)
        assert olc.act(np.zeros(1))[0] == pytest.approx(0.0, abs=1e-12)

    def test_act_independent_of_state(self, ring_system, ring_u_box, rng):
        olc = OlcController(ring_system, ring_u_box, eta=0.1, z0=steady_state_of_input(ring_system, [1.0, -2.0]))
        u_ref = olc.act(np.zeros(3))
        for _ in range(5):
            np.testing.assert_allclose(olc.act(rng.standard_normal(3)), u_ref, atol=0.0)

    def test_round_trip_through_manifold(self, ring_system, ring_u_box):
        u0 = np.array([2.0, -1.5])
        z = steady_state_of_input(ring_system, u0)
        olc = OlcController(ring_system, ring_u_box, eta=0.1, z0=z)
        np.testing.assert_allclose(olc.act(np.zeros(3)), u0, atol=1e-8)

    def test_act_rank_deficient_b(self, ring_matrices):
        # identical columns: every u with u1 + u2 = 4 holds the plant at z0,
        # but the minimum-norm one, (2, 2), lies outside the box
        a, _ = ring_matrices
        sys = LtiSystem(a, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        box = BoxSet([-1.0, -5.0], [1.0, 5.0])
        s = sys.steady_state_gain
        olc = OlcController(sys, box, eta=0.1, z0=s @ np.array([-1.0, 5.0]))
        u = olc.act(np.zeros(3))
        assert box.contains(u)
        np.testing.assert_allclose(s @ u, olc.z, rtol=0.0, atol=1e-12)

    def test_update_interior(self, integrator):
        olc = OlcController(integrator, BoxSet([-2.0], [2.0]), eta=0.1, z0=[0.1])
        olc.observe(np.array([2.0]))
        assert olc.z[0] == pytest.approx(-0.1, abs=1e-9)

    def test_update_clamps_at_edge(self, integrator):
        olc = OlcController(integrator, BoxSet([-2.0], [2.0]), eta=0.1, z0=[1.9])
        olc.observe(np.array([-20.0]))
        assert olc.z[0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_gradient_fixed_point(self, ring_system, ring_u_box):
        z0 = steady_state_of_input(ring_system, [1.0, 1.0])
        olc = OlcController(ring_system, ring_u_box, eta=0.5, z0=z0)
        olc.observe(np.zeros(3))
        np.testing.assert_allclose(olc.z, z0, atol=1e-9)

    def test_tracking_with_zero_gradients(self, ring_system, ring_u_box, rng):
        cert = certify_strong_stability(ring_system.a)
        z0 = steady_state_of_input(ring_system, [2.0, 1.0])
        olc = OlcController(ring_system, ring_u_box, eta=0.1, z0=z0)
        x = rng.standard_normal(3) * 2
        e0 = np.linalg.norm(x - z0)
        fp_floor = 1e-12 * (1 + np.linalg.norm(z0))
        for t in range(30):
            bound = cert.kappa * (1 - cert.gamma) ** t * e0
            assert np.linalg.norm(x - olc.z) <= max(bound * (1 + 1e-9), fp_floor)
            u = olc.act(x)
            olc.observe(np.zeros(3))
            x = step(ring_system, x, u, np.zeros(3))

    def test_target_step_bound(self, ring_system, ring_u_box, rng):
        # one projected step moves the target by at most eta * ||delta||,
        # and the target never leaves the manifold
        olc = OlcController(ring_system, ring_u_box, eta=0.05)
        eye = np.eye(3)
        for _ in range(50):
            delta = rng.standard_normal(3) * 10
            z_prev = olc.z.copy()
            olc.observe(delta)
            assert np.linalg.norm(olc.z - z_prev) <= olc.eta * np.linalg.norm(delta) + 1e-9
            u = olc.act(np.zeros(3))
            # z is the steady state of the played input, which is admissible
            np.testing.assert_array_equal(olc.z, ring_system.steady_state_gain @ u)
            assert ring_u_box.contains(u)
            residual = ring_system.b @ u - (eye - ring_system.a) @ olc.z
            assert np.linalg.norm(residual) <= 1e-10


class TestDisturbanceEstimate:
    def test_exact_recovery(self, ring_system, rng):
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        w = rng.standard_normal(3)
        x_next = step(ring_system, x, u, w)
        np.testing.assert_allclose(estimate_disturbance(ring_system, x, u, x_next), w, atol=1e-12)

    def test_scalar(self, scalar_system):
        w = estimate_disturbance(scalar_system, [2.0], [1.0], [2.25])
        assert w[0] == pytest.approx(0.25)

    def test_zero_disturbance_run(self, ring_system, rng):
        u_seq = rng.uniform(-1, 1, (10, 2))
        states = simulate(ring_system, rng.standard_normal(3), u_seq)
        for t in range(10):
            w = estimate_disturbance(ring_system, states[t], u_seq[t], states[t + 1])
            np.testing.assert_allclose(w, 0.0, atol=1e-13)


def make_dac(sys, h_mem=3, eta_g=0.05, radius=1.0, box_width=100.0):
    return DacController(sys, BoxSet.symmetric(box_width, sys.input_dim), h_mem, eta_g, radius)


def matrix_powers(a, k):
    """[A^0, A^1, ..., A^k], each the previous one times A."""
    pows = [np.eye(len(a))]
    for _ in range(k):
        pows.append(pows[-1] @ a)
    return pows


def features_by_hand(sys, history):
    """A one-run DacController's features from its 2 h + 1 newest
    disturbances, newest first (a history (2 h + 1, N)), one block at a time: block j is sum_i (A^i B) (x) history[i + j + 1],
    i = 0..h, one product of the (A^i B) columns with h + 1 history rows."""
    h_mem = len(history) // 2
    ab_cols = np.stack([(p @ sys.b).ravel() for p in matrix_powers(sys.a, h_mem)], axis=1)
    n, m = sys.state_dim, sys.input_dim
    return np.concatenate(
        [(ab_cols @ history[j + 1 : j + h_mem + 2]).reshape(n, m * n) for j in range(h_mem)], axis=1)


class TestDacController:
    def test_zero_history_zero_action(self, ring_system):
        dac = make_dac(ring_system)
        # the h_mem + 2 disturbances a round reads, newest first
        assert dac.history.shape == (dac.h_mem + 2, 3)
        np.testing.assert_allclose(dac.act(np.zeros(3)), 0.0)

    def test_selector_blocks(self, ring_system):
        dac = make_dac(ring_system, h_mem=2)
        dac.blocks[0] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        history = np.zeros(dac.history.shape)
        history[0] = [1.0, 2.0, 3.0]
        dac.history = history
        np.testing.assert_allclose(dac.act(np.zeros(3)), [1.0, 2.0])

    def test_zero_blocks_ignore_history(self, ring_system, rng):
        dac = make_dac(ring_system)
        dac.history = rng.standard_normal(dac.history.shape)
        np.testing.assert_allclose(dac.act(np.zeros(3)), 0.0)

    def test_action_linear_in_history(self, ring_system, rng):
        dac = make_dac(ring_system)
        dac.blocks = rng.standard_normal(dac.blocks.shape) * 0.1
        h1 = rng.standard_normal(dac.history.shape)
        h2 = rng.standard_normal(dac.history.shape)
        outs = []
        for h in (h1, h2, h1 + h2):
            dac.history = h
            outs.append(dac.act(np.zeros(3)))
        np.testing.assert_allclose(outs[0] + outs[1], outs[2], atol=1e-12)

    def test_clamped_into_box(self, ring_system, rng):
        dac = make_dac(ring_system, box_width=0.1)
        dac.blocks = np.ones(dac.blocks.shape)
        dac.history = np.ones(dac.history.shape)
        u = dac.act(np.zeros(3))
        assert np.all(np.abs(u) <= 0.1 + 1e-15)

    def test_observe_no_history_is_noop(self, ring_system):
        dac = make_dac(ring_system)
        cost = QuadraticCost(q=np.eye(3), c=np.ones(3))
        before = dac.blocks.copy()
        x_next = step(ring_system, np.zeros(3), dac.act(np.zeros(3)), np.zeros(3))
        dac.observe(cost, x_next)
        # zero history -> zero surrogate gradient -> unchanged blocks; w = 0
        # keeps the history and the features at zero
        np.testing.assert_allclose(dac.blocks, before, atol=0.0)
        np.testing.assert_array_equal(dac.history, 0.0)
        np.testing.assert_array_equal(dac.features, 0.0)

    def test_surrogate_gradient_matches_finite_differences(self, ring_system, rng):
        dac = make_dac(ring_system, h_mem=3)
        full = rng.uniform(-0.5, 0.5, (7, 3))  # 2 h_mem + 1 past disturbances
        dac.history = full[:5]
        dac.features = features_by_hand(ring_system, full)
        dac.blocks = rng.standard_normal(dac.blocks.shape) * 0.2
        s = rng.standard_normal((3, 3))
        cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 2, 3))

        def loss(flat):
            dac.blocks = flat.reshape(dac.blocks.shape)
            return cost.value(dac.surrogate_state())

        delta = cost.grad(dac.surrogate_state())
        analytic = dac.surrogate_grad_blocks(delta).ravel()
        flat0 = dac.blocks.ravel().copy()
        h = 1e-6
        fd = np.empty_like(flat0)
        for i in range(flat0.size):
            bump = np.zeros_like(flat0)
            bump[i] = h
            fd[i] = (loss(flat0 + bump) - loss(flat0 - bump)) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("h_mem", [1, 3, 10])
    def test_surrogate_matches_per_block_loop(self, ring_system, rng, h_mem):
        dac = make_dac(ring_system, h_mem=h_mem)
        history = rng.uniform(-0.5, 0.5, (2 * h_mem + 1, 3))  # the past disturbances the features sum
        dac.history = history[: h_mem + 2]
        dac.features = features_by_hand(ring_system, history)
        dac.blocks = rng.standard_normal(dac.blocks.shape) * 0.2
        blocks = dac.blocks
        delta = rng.standard_normal(3)
        # act's one window takes the products of a loop over blocks, in
        # block order, so it agrees with it bit for bit
        played = np.zeros((1, 2))
        for j in range(1, h_mem + 1):
            played += history[j - 1 : j] @ blocks[j - 1].T
        np.testing.assert_array_equal(dac.act(np.zeros(3)), np.clip(played[0], dac.u_set.lower, dac.u_set.upper))
        # the features built by hand, one block at a time: block j is
        # sum_i (A^i B) (x) history[i + j + 1], one product of the (A^i B)
        # columns with h_mem + 1 history rows; the state and its gradient
        # are one product each with them
        a_pows = matrix_powers(ring_system.a, h_mem)
        features = features_by_hand(ring_system, history)
        np.testing.assert_array_equal(dac.features, features)
        state = np.concatenate(a_pows, axis=1) @ history[: h_mem + 1].ravel() + features @ blocks.ravel()
        np.testing.assert_array_equal(dac.surrogate_state(), state)
        np.testing.assert_array_equal(dac.surrogate_grad_blocks(delta), (features.T @ delta).reshape(blocks.shape))
        # the per-block formula, with the virtual inputs the blocks would
        # have played i steps back: the same sums in another order
        virtual = np.zeros((h_mem + 1, 2))
        q = np.stack([(p @ ring_system.b).T @ delta for p in a_pows])  # (A^i B)^T delta
        grads = np.empty_like(blocks)
        for j in range(1, h_mem + 1):
            virtual += history[j : j + h_mem + 1] @ blocks[j - 1].T
            grads[j - 1] = q.T @ history[j : j + h_mem + 1]
        state = sum(a_pows[i] @ history[i] + (a_pows[i] @ ring_system.b) @ virtual[i] for i in range(h_mem + 1))
        np.testing.assert_allclose(dac.surrogate_state(), state, rtol=1e-13)
        np.testing.assert_allclose(dac.surrogate_grad_blocks(delta), grads, rtol=1e-13)

    def test_block_projection_scaling(self):
        blocks = np.zeros((2, 2, 3))
        blocks[0] = 2.0  # frobenius norm 2 * sqrt(6)
        radii = np.array([np.sqrt(6.0), 1.0])
        out = project_dac_blocks(blocks, radii)
        assert np.linalg.norm(out[0]) == pytest.approx(np.sqrt(6.0), rel=1e-12)
        np.testing.assert_allclose(out[1], 0.0)

    def test_radius_schedule_enforced_along_run(self, ring_system, rng):
        gamma = ring_system.cert.gamma
        dac = make_dac(ring_system, h_mem=4, eta_g=0.5, radius=1.0)
        x = np.zeros(3)
        for t in range(30):
            u = dac.act(x)
            s = rng.standard_normal((3, 3))
            cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 5, 3))
            x_next = step(ring_system, x, u, rng.uniform(-0.5, 0.5, 3))
            dac.observe(cost, x_next)
            x = x_next
            for i in range(4):
                assert np.linalg.norm(dac.blocks[i]) <= 1.0 * (1 - gamma) ** i + 1e-12

    def test_observe_recovers_true_disturbances(self, ring_system, rng):
        dac = make_dac(ring_system, h_mem=2)
        cost = QuadraticCost(q=np.eye(3), c=np.zeros(3))
        x = np.zeros(3)
        ws = []
        for _ in range(5):
            u = dac.act(x)
            w = rng.uniform(-0.5, 0.5, 3)
            ws.append(w)
            x_next = step(ring_system, x, u, w)
            dac.observe(cost, x_next)
            x = x_next
        # newest first
        np.testing.assert_allclose(dac.history[0], ws[-1], atol=1e-12)
        np.testing.assert_allclose(dac.history[1], ws[-2], atol=1e-12)

    def test_features_follow_observe(self, ring_system, rng):
        # 30 rounds shift every block through the features several times;
        # the blocks shifted in keep the bits of the features built one block
        # at a time from the disturbances the transitions reveal (the
        # injected ones, up to their last bit)
        dac = make_dac(ring_system, h_mem=4, eta_g=0.5)
        x = np.zeros(3)
        ws = []
        for _ in range(30):
            u = dac.act(x)
            x_next = step(ring_system, x, u, rng.uniform(-0.5, 0.5, 3))
            ws.append(estimate_disturbance(ring_system, x, u, x_next))
            dac.observe(random_cost(rng), x_next)
            x = x_next
        np.testing.assert_array_equal(dac.features, features_by_hand(ring_system, np.array(ws[::-1][:9])))

    @pytest.mark.parametrize("runs, x", [(4, np.zeros(3)), (None, np.zeros((5, 3)))], ids=["runs_4", "one_run"])
    def test_act_checks_state_against_run_axis(self, ring_system, runs, x):
        dac = DacController(ring_system, BoxSet.symmetric(5.0, 2), 3, 0.5, 1.0, runs=runs)
        with pytest.raises(InvalidInputError, match="state must have shape"):
            dac.act(x)

    def test_observe_before_act_rejected(self, ring_system):
        dac = make_dac(ring_system)
        cost = QuadraticCost(q=np.eye(3), c=np.zeros(3))
        with pytest.raises(InvalidInputError, match="before act"):
            dac.observe(cost, np.zeros(3))
        # each act serves one observe: a second one has no state to start from
        dac.act(np.zeros(3))
        dac.observe(cost, np.full(3, 0.1))
        with pytest.raises(InvalidInputError, match="before act"):
            dac.observe(cost, np.full(3, 1.1))


class TestBoxDescent:
    def test_solves_clamped_quadratic(self):
        box = BoxSet([-1.0, -1.0], [1.0, 1.0])
        target = np.array([3.0, 0.2])
        u = _BoxLeastSquares(np.eye(2), box, 1.0)(target, np.zeros(2))
        np.testing.assert_allclose(u, [1.0, 0.2], atol=1e-9)

    def test_skewed_plant_independent_checks(self, ring_matrices, rng):
        # B = [[1, 2], [0, 0], [1, 1]]: cond(S) ~ 7.4, up to ~1100 steps per
        # projection; of these 20 runs some end inside the box, some on it
        s = LtiSystem(ring_matrices[0], [[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]).steady_state_gain
        box, step = BoxSet.symmetric(5.0, 2), ctrl_mod._projection_step(s)
        y, u0 = rng.standard_normal((20, 3)) * 8.0, rng.uniform(-5.0, 5.0, (20, 2))
        got = _BoxLeastSquares(s, box, step)(y, u0)
        # KKT on the gradient S^T (S u - y).  The last step moved u by less
        # than PROJECTION_MOVE_TOL, which bounds step * |gradient| before it
        # on the free coordinates; the move changes the gradient by at most
        # ||S||^2 = 1 / step times itself.  So 2 * PROJECTION_MOVE_TOL / step
        kkt_tol = 2.0 * ctrl_mod.PROJECTION_MOVE_TOL / step
        on_face = []
        for r in range(20):
            np.testing.assert_allclose(got[r], seven_op_box_least_squares(s, y[r], box, step, u0[r]),
                                       rtol=0.0, atol=1e-12)
            assert np.linalg.norm(got[r] - face_enumeration(s, y[r], box)) <= PROJECTION_TOL
            grad = s.T @ (s @ got[r] - y[r])
            at_lower, at_upper = got[r] == box.lower, got[r] == box.upper
            assert np.all(grad[at_lower] >= -kkt_tol) and np.all(grad[at_upper] <= kkt_tol)
            assert np.all(np.abs(grad[~at_lower & ~at_upper]) <= kkt_tol)
            on_face.append(bool(np.any(at_lower | at_upper)))
        assert 0 < sum(on_face) < 20


def seven_op_box_least_squares(s, y, u_set, step, u0):
    """One run's projection with the step written as seven operations,
    s u, - y, s^T r, * step, u - g, max, min, and the stop rule tested
    after every step."""
    u = np.minimum(np.maximum(u0, u_set.lower), u_set.upper)
    for _ in range(ctrl_mod.PROJECTION_MAX_ITER):
        residual = s @ u - y
        grad = step * (s.T @ residual)
        u_next = np.minimum(np.maximum(u - grad, u_set.lower), u_set.upper)
        if np.linalg.norm(u_next - u) < ctrl_mod.PROJECTION_MOVE_TOL:
            return u_next
        u = u_next
    raise AssertionError("still moving at the cap")


def face_enumeration(s, y, u_set):
    """Exact u in a 2-d box minimizing ||s u - y||^2: the best feasible
    candidate of the box's 9 faces, each coordinate at its lower bound, at
    its upper bound or free (least squares over the free ones)."""
    best, best_u = np.inf, None
    for face in itertools.product(("lower", "upper", "free"), repeat=2):
        free = np.array([f == "free" for f in face])
        u = np.where(np.array(face) == "lower", u_set.lower, u_set.upper)
        if free.any():
            u[free] = np.linalg.lstsq(s[:, free], y - s[:, ~free] @ u[~free], rcond=None)[0]
            if np.any(u < u_set.lower) or np.any(u > u_set.upper):
                continue
        value = np.sum((s @ u - y) ** 2)
        if value < best:
            best, best_u = value, u
    return best_u


def per_step_box_least_squares(s, y, u_set, step, u0):
    """The projection with its stop rule tested after every step, the
    reference ``_BoxLeastSquares`` (chunks of steps on one face) must
    match: the same stop step and, to roundoff, the same iterate.  Returns
    the iterates and each run's stop step; a run still moving at the cap
    fails."""
    m = s.shape[1]
    # the step in its affine form: [u; 1] <- clip([[I - step S^T S, step S^T y], [0, 1]] [u; 1])
    affine = np.zeros(u0.shape[:-1] + (m + 1, m + 1))
    affine[..., :m, :m] = np.eye(m) - step * (s.T @ s)
    affine[..., :m, m] = step * matvec(s.T, y)
    affine[..., m, m] = 1.0
    lower, upper = np.append(u_set.lower, 1.0)[:, None], np.append(u_set.upper, 1.0)[:, None]
    u = np.ones(u0.shape[:-1] + (m + 1, 1))
    u[..., :m, 0] = u0
    u = np.minimum(np.maximum(u, lower), upper)
    moving = np.ones(u.shape[:-2], dtype=bool)
    stops = np.zeros(u.shape[:-2], dtype=int)
    for it in range(1, ctrl_mod.PROJECTION_MAX_ITER + 1):
        u_next = np.minimum(np.maximum(affine @ u, lower), upper)
        moved = row_norms((u_next - u)[..., :m, 0])
        u = np.where(moving[..., None, None], u_next, u)
        stopped = moving & (moved < ctrl_mod.PROJECTION_MOVE_TOL)
        stops = np.where(stopped, it, stops)
        moving &= ~stopped
        if not moving.any():
            return u[..., :m, 0], stops
    raise ProjectionFailureError(
        f"projection did not converge: still moving {np.max(moved[moving]):.3e} "
        f"after {ctrl_mod.PROJECTION_MAX_ITER} iterations"
    )


def assert_matches_per_step(s, y, u_set, step, u0):
    """``_BoxLeastSquares`` stops where the per-step reference does, with
    its iterate to 1e-12: 100 times below a step's move at the stop, so a
    run stopping one step early or late fails.  Returns its iterates and
    the reference's stop steps."""
    want, stops = per_step_box_least_squares(s, y, u_set, step, u0)
    got = _BoxLeastSquares(s, u_set, step)(y, u0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    return got, stops


def chunk_edges():
    """The last step of each chunk of a fresh solver's first segment, when
    no face change cuts one short: 16, 80, 336, 1024, each chunk 4 times
    the last up to step K."""
    k, edges = ctrl_mod.PROJECTION_FIRST_CHUNK, [ctrl_mod.PROJECTION_FIRST_CHUNK]
    while edges[-1] < ctrl_mod.PROJECTION_SEGMENT_STEPS:
        k *= 4
        edges.append(min(edges[-1] + k, ctrl_mod.PROJECTION_SEGMENT_STEPS))
    return np.array(edges)


def hint_sizes():
    """The first chunks the hint can set: each power of two from the first
    size to K, 16 to 1024."""
    sizes = [ctrl_mod.PROJECTION_FIRST_CHUNK]
    while sizes[-1] < ctrl_mod.PROJECTION_SEGMENT_STEPS:
        sizes.append(2 * sizes[-1])
    return sizes


def stopping_problem(rng, stops, rate=0.75, move=0.9e-10):
    """Runs of one projection, run r stopping at step ``stops[r]``.

    S has orthonormal columns and the step is 1 - rate, so each step
    shrinks the distance to the interior solution u* by ``rate`` and moves
    the iterate by 1 - rate of it.  Run r starts where its step
    ``stops[r]`` moves it by ``move`` and the step before by move / rate:
    by default 0.9e-10 and 1.2e-10, either side of the tolerance.
    """
    s = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    u_star = rng.uniform(-1.0, 1.0, (len(stops), 2))
    direction = rng.standard_normal((len(stops), 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    dist = move / ((1.0 - rate) * rate ** (np.array(stops) - 1.0))
    return s, matvec(s, u_star), 1.0 - rate, u_star + dist[:, None] * direction


class TestBlockedStopRule:
    """Testing the stop rule on a chunk of steps returns the iterate of the
    per-step test: each run's first step below tolerance."""

    BOX = BoxSet.symmetric(5.0, 2)

    def assert_matches_per_step(self, s, y, step, u0):
        return assert_matches_per_step(s, y, self.BOX, step, u0)

    def test_one_run(self, ring_system, rng):
        s = ring_system.steady_state_gain
        for _ in range(5):
            y, u0 = rng.standard_normal(3) * 6.0, rng.uniform(-5.0, 5.0, 2)
            self.assert_matches_per_step(s, y, ctrl_mod._projection_step(s), u0)

    def test_runs_stopping_in_and_across_blocks(self, rng):
        first, second = chunk_edges()[:2]
        wanted = [1, first, first + 1, 53, second, second + 1]
        _, stops = self.assert_matches_per_step(*stopping_problem(rng, wanted))
        np.testing.assert_array_equal(stops, wanted)

    def test_skewed_plant(self, ring_matrices, rng):
        # cond(S) ~ 7.4: up to hundreds of steps, a different count in each run
        sys = LtiSystem(ring_matrices[0], [[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
        s = sys.steady_state_gain
        y, u0 = rng.standard_normal((4, 3)) * 6.0, rng.uniform(-5.0, 5.0, (4, 2))
        _, stops = self.assert_matches_per_step(s, y, ctrl_mod._projection_step(s), u0)
        assert len(set(stops)) == 4 and stops.max() > chunk_edges()[2]

    def test_joint_projection(self, ring_system, rng):
        # a tall matrix and a step below 1/||S||^2: the joint state+input
        # problem min ||S u - z||^2 + ||u - u_target||^2, on the stacked [S; I]
        s = ring_system.steady_state_gain
        stacked = np.vstack([s, np.eye(2)])
        step = 1.0 / (np.linalg.norm(s, 2) ** 2 + 1.0)
        for _ in range(5):
            y, u0 = rng.standard_normal(5) * 6.0, rng.uniform(-5.0, 5.0, 2)
            self.assert_matches_per_step(stacked, y, step, u0)

    @pytest.mark.parametrize("extra", [1 - ctrl_mod.PROJECTION_FIRST_CHUNK, 3], ids=["cap_1", "cap_block_plus_3"])
    def test_cap_returns_as_per_step(self, rng, monkeypatch, extra):
        chunk = ctrl_mod.PROJECTION_FIRST_CHUNK
        cap = chunk + extra
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", cap)
        # every run stops by the cap, the last one at its very step
        problem = stopping_problem(rng, [1, min(chunk, cap), min(chunk + 1, cap), cap])
        got, stops = self.assert_matches_per_step(*problem)
        assert stops.max() == cap
        # a run that stopped in an earlier chunk keeps that chunk's iterate
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", 5000)
        uncapped = _BoxLeastSquares(problem[0], self.BOX, problem[2])(problem[1], problem[3])
        assert np.array_equal(got, uncapped)

    @pytest.mark.parametrize("extra", [1 - ctrl_mod.PROJECTION_FIRST_CHUNK, 3], ids=["cap_1", "cap_block_plus_3"])
    def test_cap_raises_as_per_step(self, rng, monkeypatch, extra):
        cap = ctrl_mod.PROJECTION_FIRST_CHUNK + extra
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", cap)
        # run 2 still moves at the cap, by 0.9e-10 / 0.75**late: 1.2e-10,
        # 2.8e-8 or 3e-3.  However little, that fails the projection
        for late in (1, 20, 60):
            problem = stopping_problem(rng, [1, cap, cap + late])
            with pytest.raises(ProjectionFailureError) as want:
                per_step_box_least_squares(problem[0], problem[1], self.BOX, problem[2], problem[3])
            with pytest.raises(ProjectionFailureError) as got:
                _BoxLeastSquares(problem[0], self.BOX, problem[2])(problem[1], problem[3])
            assert str(got.value) == str(want.value)

    def test_ill_conditioned_plant_still_fails(self):
        # B = [[1, 1 + eps], [0, 0], [1, 1]] with eps = 1e-3: cond(S) ~ 4e3,
        # too slow for the fixed-step projection within its cap: the first
        # round's projection fails
        cfg = ExperimentConfig(t=200, n_runs=3, b=np.array([[1.0, 1.001], [0.0, 0.0], [1.0, 1.0]]))
        draws = [draw_run(cfg, k) for k in range(3)]
        with pytest.raises(ProjectionFailureError, match="still moving 9.079e-07 after 5000 iterations"):
            run_lockstep(cfg, "olc", draws)

    def test_slow_projection_fails_at_the_cap(self):
        # B = [[1, 1.2], [0, 0], [1, 1]]: cond(S) ~ 24.  Its OLC projections
        # hit the cap still moving by less than 1e-6, up to 2.3e-4 from
        # their answer; they fail rather than return that iterate
        cfg = ExperimentConfig(t=20, n_runs=1, b=np.array([[1.0, 1.2], [0.0, 0.0], [1.0, 1.0]]),
                               disturbances_on=False)
        with pytest.raises(ProjectionFailureError, match="after 5000 iterations"):
            run_lockstep(cfg, "olc", [draw_run(cfg, 0)])


SKEWED_B = [[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
B15 = [[1.0, 1.5], [0.0, 0.0], [1.0, 1.0]]  # cond S ~ 11.3: projections pass step K


def face_path(s, y, u_set, step, u0):
    """Face of each step of one run's per-step projection, to its stop:
    per coordinate -1, 0 or 1 as the unclipped step lands below, inside or
    above the box."""
    u, faces = np.clip(u0, u_set.lower, u_set.upper), []
    while True:
        v = u - step * (s.T @ (s @ u - y))
        faces.append(tuple(np.sign(v - np.clip(v, u_set.lower, u_set.upper)).astype(int)))
        u, before = np.clip(v, u_set.lower, u_set.upper), u
        if np.linalg.norm(u - before) < ctrl_mod.PROJECTION_MOVE_TOL:
            return faces


class TestFaceBlocks:
    """A chunk's steps are products of one face's stack, valid while the
    steps stay on that face: checked against the per-step reference where
    the face changes inside a chunk, in boxes of 1, 3 and 8 inputs, across
    lockstep runs on different faces and at a cap inside a long chunk."""

    BOX = BoxSet.symmetric(1.0, 2)
    # (u0, u*) on the skewed plant in the box [-1, 1]^2, target y = S u*,
    # and how many coordinates the answer has on the box
    CASES = {
        "outside_corner": ([1.56, -1.52], [0.5, 0.66], 0),  # clamped at a corner, then free
        "ending_on_edge": ([0.62, 0.12], [-1.27, -0.52], 1),
        "ending_at_corner": ([-0.99, 0.55], [2.87, 0.54], 2),
    }

    @pytest.fixture()
    def skewed(self, ring_matrices):
        s = LtiSystem(ring_matrices[0], SKEWED_B).steady_state_gain
        return s, ctrl_mod._projection_step(s)

    def case_arrays(self, s, names):
        u0 = np.array([self.CASES[n][0] for n in names])
        return matvec(s, np.array([self.CASES[n][1] for n in names])), u0

    @pytest.mark.parametrize("case", list(CASES))
    def test_face_changes_inside_a_block(self, skewed, case):
        s, step = skewed
        y, u0 = self.case_arrays(s, [case])
        faces = face_path(s, y[0], self.BOX, step, u0[0])
        changes = [j + 1 for j in range(1, len(faces)) if faces[j] != faces[j - 1]]
        # the first change falls inside the first chunk, not at its start
        assert 1 < changes[0] <= ctrl_mod.PROJECTION_FIRST_CHUNK
        assert sum(f != 0 for f in faces[-1]) == self.CASES[case][2]
        got, _ = assert_matches_per_step(s, y, self.BOX, step, u0)
        # a clamped coordinate sits exactly on its bound
        on_box = (got[0] == self.BOX.lower) | (got[0] == self.BOX.upper)
        np.testing.assert_array_equal(on_box, np.array(faces[-1]) != 0)

    @pytest.mark.parametrize("m", [1, 3, BOX_QP_MAX_DIM])
    def test_box_dimension(self, rng, m):
        # S = Q R, R mixing the columns; answers inside the box, on a face
        # of it and at a corner.  M = 8, the most inputs a config takes,
        # has the longest sums over the coordinates
        q = np.linalg.qr(rng.standard_normal((max(4, m + 1), m)))[0]
        if m <= 3:
            mix = np.array([[1.0, 0.3, 0.1], [0.0, 0.8, 0.2], [0.0, 0.0, 0.6]])[:m, :m]
        else:
            mix = np.diag(np.linspace(1.0, 0.6, m)) + 0.3 * np.eye(m, k=1) + 0.1 * np.eye(m, k=2)
        s = q @ mix
        box = BoxSet.symmetric(1.0, m)
        u_star, u0 = rng.uniform(-2.0, 2.0, (24, m)), rng.uniform(-2.0, 2.0, (24, m))
        if m > 3:
            u_star[:4] /= 4.0  # few of 24 points in [-2, 2]^8 lie inside the box
        got, stops = assert_matches_per_step(s, matvec(s, u_star), box, ctrl_mod._projection_step(s), u0)
        clamped = ((got == box.lower) | (got == box.upper)).sum(axis=1)
        assert clamped.min() == 0 and clamped.max() == m
        if m > 3:  # some runs stop in the first chunk, some in the third
            assert stops.min() <= chunk_edges()[0] and stops.max() > chunk_edges()[1]

    def test_lockstep_runs_on_different_faces(self, skewed, rng):
        s, step = skewed
        y, u0 = self.case_arrays(s, list(self.CASES))
        y, u0 = np.vstack([y, rng.standard_normal((3, 3))]), np.vstack([u0, rng.uniform(-1.0, 1.0, (3, 2))])
        batched = _BoxLeastSquares(s, self.BOX, step)(y, u0)
        for r in range(len(y)):
            assert np.array_equal(batched[r], _BoxLeastSquares(s, self.BOX, step)(y[r], u0[r])), r
        clamped = ((batched == self.BOX.lower) | (batched == self.BOX.upper)).sum(axis=1)
        assert set(clamped.tolist()) == {0, 1, 2}

    def test_cap_inside_a_long_block(self, rng, monkeypatch):
        # rate 0.9 and a move of 0.95e-10 at the stop, 1.06e-10 the step
        # before: runs long enough to reach the third, 256-step chunk
        cap = chunk_edges()[1] + 120
        assert cap < chunk_edges()[2]
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", cap)
        box = BoxSet.symmetric(5.0, 2)
        wanted = [3, 50, 150, cap]
        s, y, step, u0 = stopping_problem(rng, wanted, rate=0.9, move=0.95e-10)
        _, stops = assert_matches_per_step(s, y, box, step, u0)
        np.testing.assert_array_equal(stops, wanted)
        for late in (1, 5):
            s, y, step, u0 = stopping_problem(rng, [3, 150, cap + late], rate=0.9, move=0.95e-10)
            with pytest.raises(ProjectionFailureError) as want:
                per_step_box_least_squares(s, y, box, step, u0)
            with pytest.raises(ProjectionFailureError) as got:
                _BoxLeastSquares(s, box, step)(y, u0)
            assert str(got.value) == str(want.value)

    def test_stacks_built_once_per_face(self, monkeypatch):
        # a T = 50 lockstep run on the skewed plant builds each face's
        # stack once, on its first visit, however many rounds visit it
        builds = []
        build = ctrl_mod._BoxLeastSquares._build

        def counted(solver, face):
            builds.append(face)
            return build(solver, face)

        monkeypatch.setattr(ctrl_mod._BoxLeastSquares, "_build", counted)
        cfg = ExperimentConfig(t=50, n_runs=3, b=np.array(SKEWED_B), disturbances_on=False)
        run_lockstep(cfg, "olc", [draw_run(cfg, k) for k in range(3)])
        assert builds and len(builds) == len(set(builds))


class TestChunks:
    """A segment's steps are all taken from its anchor, so the chunks they
    are computed in change no bit: a stack of runs solved with each size of
    first chunk has the same bits, and the per-step reference's stops and
    iterates (to 1e-12), also with a cap inside a chunk.  On
    B = [[1, 1.5], [0, 0], [1, 1]] (cond S ~ 11.3) the interior runs take
    over 2 * K steps, so their segments end and re-anchor at step K."""

    BOX = BoxSet.symmetric(5.0, 2)

    @pytest.fixture(params=[SKEWED_B, B15], ids=["skewed", "b_1_5"])
    def problem(self, request, ring_matrices, rng):
        s = LtiSystem(ring_matrices[0], request.param).steady_state_gain
        # targets S u*: u* inside the box gives a slow interior run, outside
        # it a run ending on the box
        u_star, u0 = rng.uniform(-6.0, 6.0, (6, 2)), rng.uniform(-5.0, 5.0, (6, 2))
        return s, matvec(s, u_star), ctrl_mod._projection_step(s), u0

    def solvers(self, s, step):
        """A fresh solver per size of first chunk."""
        for size in hint_sizes():
            solver = _BoxLeastSquares(s, self.BOX, step)
            solver._first_chunk = size
            yield solver

    def test_first_chunk_changes_no_bit(self, problem):
        s, y, step, u0 = problem
        want, stops = assert_matches_per_step(s, y, self.BOX, step, u0)
        for solver in self.solvers(s, step):
            assert np.array_equal(solver(y, u0), want)
        # some runs stop before a first chunk of 256 ends, some after step K
        assert stops.min() < 256 < ctrl_mod.PROJECTION_SEGMENT_STEPS < stops.max()

    def test_hint_is_the_fewest_steps_rounded_up(self, problem):
        s, y, step, u0 = problem
        stops = per_step_box_least_squares(s, y, self.BOX, step, u0)[1]
        first, last = ctrl_mod.PROJECTION_FIRST_CHUNK, ctrl_mod.PROJECTION_SEGMENT_STEPS
        solver = _BoxLeastSquares(s, self.BOX, step)
        assert solver._first_chunk == first
        solver(y, u0)
        # the smallest size not below the fewest steps a run took
        assert solver._first_chunk == min(n for n in hint_sizes() if n >= stops.min())
        # K at most
        solver(y[stops > last], u0[stops > last])
        assert solver._first_chunk == last
        # a run that stops in its first steps, here inside a first chunk of
        # K, brings it back to the first size
        solver(y[:1], solver(y[:1], u0[:1]))
        assert solver._first_chunk == first

    def test_hint_at_the_sizes(self, rng):
        # one interior face and runs stopping at each size and one step past
        # it: a size is its own hint, the step after it the next size's
        wanted = [1, 16, 17, 32, 33, 64, 65, 128, 129, 256, 257, 512, 513, 1024, 1025, 1500]
        hints = [16, 16, 32, 32, 64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024, 1024, 1024]
        s, y, step, u0 = stopping_problem(rng, wanted, rate=0.99, move=0.995e-10)
        _, stops = assert_matches_per_step(s, y, self.BOX, step, u0)
        np.testing.assert_array_equal(stops, wanted)
        solver = _BoxLeastSquares(s, self.BOX, step)
        for r, hint in enumerate(hints):
            solver(y[r], u0[r])
            assert solver._first_chunk == hint
        # the fewest steps of the runs together
        solver(y[4:], u0[4:])
        assert solver._first_chunk == hints[4]

    def test_hint_after_short_chunks(self, ring_matrices):
        # on the skewed plant this run leaves its first face inside the
        # first chunk of 16 and goes on in a chunk of 64: it stops at step
        # 25, and 25 rounds up to 32
        s = LtiSystem(ring_matrices[0], SKEWED_B).steady_state_gain
        step = ctrl_mod._projection_step(s)
        y, u0 = np.array([19.0, -30.0, 21.0]), np.array([-5.0, 2.0])
        _, stops = assert_matches_per_step(s, y, self.BOX, step, u0)
        faces = face_path(s, y, self.BOX, step, u0)
        changes = [j + 1 for j in range(1, len(faces)) if faces[j] != faces[j - 1]]
        assert stops == 25 and 0 < changes[0] < ctrl_mod.PROJECTION_FIRST_CHUNK
        solver = _BoxLeastSquares(s, self.BOX, step)
        solver(y, u0)
        assert solver._first_chunk == 32

    @pytest.mark.parametrize("early", [0, 1], ids=["returns", "raises"])
    def test_cap_inside_a_chunk(self, problem, monkeypatch, early):
        # the cap at the last run's stop returns every run; one step before
        # it, that run is still moving and fails
        s, y, step, u0 = problem
        cap = per_step_box_least_squares(s, y, self.BOX, step, u0)[1].max() - early
        assert cap not in chunk_edges()
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", cap)
        if not early:
            want, _ = assert_matches_per_step(s, y, self.BOX, step, u0)
            for solver in self.solvers(s, step):
                assert np.array_equal(solver(y, u0), want)
            return
        with pytest.raises(ProjectionFailureError) as want:
            per_step_box_least_squares(s, y, self.BOX, step, u0)
        for solver in self.solvers(s, step):
            with pytest.raises(ProjectionFailureError) as got:
                solver(y, u0)
            assert str(got.value) == str(want.value)


def random_cost(rng, n=3):
    s = rng.standard_normal((n, n))
    return QuadraticCost(q=s.T @ s / n + 0.1 * np.eye(n), c=rng.uniform(0, 5, n))


def assert_olc_matches_single_runs(sys, u_set, eta, rng):
    """An OlcController of len(eta) runs in lockstep plays each run's
    inputs and targets with the bits of that run's one-run controller,
    round by round for 20 rounds of random gradients."""
    runs, n = len(eta), sys.state_dim
    z0 = rng.uniform(-2.0, 2.0, (runs, n))
    batched = OlcController(sys, u_set, eta, z0=z0)
    singles = [OlcController(sys, u_set, eta[r], z0=z0[r]) for r in range(runs)]
    for _ in range(20):
        x = rng.standard_normal((runs, n))
        u = batched.act(x)
        delta = rng.standard_normal((runs, n)) * 5.0
        for r, single in enumerate(singles):
            np.testing.assert_array_equal(u[r], single.act(x[r]))
            single.observe(delta[r])
        batched.observe(delta)
        np.testing.assert_array_equal(batched.z, np.stack([single.z for single in singles]))


class TestLockstep:
    """A controller with a leading run axis plays each run with the bits of
    that run's own one-run controller."""

    def test_olc_matches_single_runs(self, ring_system, ring_u_box, rng):
        # run 0's step is so small that each projection stops at its first
        # iteration, while runs 1 and 2 keep iterating: run 0 is frozen
        # for most of every lockstep projection
        assert_olc_matches_single_runs(ring_system, ring_u_box, np.array([1e-13, 0.05, 0.5]), rng)

    @staticmethod
    def count_lockstep_steps(monkeypatch, sys, u_set):
        """The most steps a run of each lockstep projection takes, by the
        per-step rule, appended to the returned list as the projections run."""
        s = sys.steady_state_gain
        step = ctrl_mod._projection_step(s)
        most = []
        solve = ctrl_mod._BoxLeastSquares.__call__

        def counted(solver, y, u0):
            if np.ndim(u0) == 2:
                most.append(per_step_box_least_squares(s, y, u_set, step, u0)[1].max())
            return solve(solver, y, u0)

        monkeypatch.setattr(ctrl_mod._BoxLeastSquares, "__call__", counted)
        return most

    def test_olc_matches_single_runs_on_skewed_plant(self, ring_matrices, ring_u_box, rng, monkeypatch):
        # cond S ~ 7.4: the projections go past 256 steps, into a segment's
        # last chunk, so each run's bits are pinned there too
        sys = LtiSystem(ring_matrices[0], SKEWED_B)
        most = self.count_lockstep_steps(monkeypatch, sys, ring_u_box)
        assert_olc_matches_single_runs(sys, ring_u_box, np.array([0.05, 0.2, 0.5, 1.0]), rng)
        assert max(most) > chunk_edges()[2]

    def test_olc_matches_single_runs_on_b15_plant(self, ring_matrices, ring_u_box, rng, monkeypatch):
        # the projections pass step K, where a segment still on its face is
        # anchored again and goes on in chunks of K, so each run's bits are
        # pinned there too
        sys = LtiSystem(ring_matrices[0], B15)
        most = self.count_lockstep_steps(monkeypatch, sys, ring_u_box)
        assert_olc_matches_single_runs(sys, ring_u_box, np.array([0.05, 0.2, 0.5, 1.0]), rng)
        assert max(most) > ctrl_mod.PROJECTION_SEGMENT_STEPS

    def test_dac_matches_single_runs(self, ring_system, rng):
        batched = DacController(ring_system, BoxSet.symmetric(5.0, 2), 3, 0.5, 1.0, runs=3)
        singles = [make_dac(ring_system, h_mem=3, eta_g=0.5, box_width=5.0) for _ in range(3)]
        x = np.zeros((3, 3))
        for _ in range(20):
            u = batched.act(x)
            costs = [random_cost(rng) for _ in range(3)]
            x_next = step(ring_system, x, u, rng.uniform(-0.5, 0.5, (3, 3)))
            for r, single in enumerate(singles):
                np.testing.assert_array_equal(u[r], single.act(x[r]))
                single.observe(costs[r], x_next[r])
            batched.observe(QuadraticCost.view(np.stack([c.q for c in costs]), np.stack([c.c for c in costs])), x_next)
            np.testing.assert_array_equal(batched.blocks, np.stack([single.blocks for single in singles]))
            np.testing.assert_array_equal(batched.history, np.stack([single.history for single in singles]))
            np.testing.assert_array_equal(batched.features, np.stack([single.features for single in singles]))
            x = x_next
        # the blocks moved and some reached their radius
        assert np.any(np.linalg.norm(batched.blocks, axis=(-2, -1)) >= batched.radii - 1e-12)

    @pytest.mark.parametrize("make, match", [
        (lambda sys, box: DacController(sys, box, 3, 0.5, 1.0, runs=-1), "runs"),
        (lambda sys, box: DacController(sys, box, 3, 0.5, 1.0, runs=0), "runs"),
        (lambda sys, box: DacController(sys, box, 3, 0.5, 1.0, runs=2.5), "runs"),
        (lambda sys, box: DacController(sys, box, 3, 0.5, 1.0, runs=True), "runs"),
        (lambda sys, box: OlcController(sys, box, np.zeros(0)), "runs"),
        # the memory horizon is a count too: none of these is truncated
        (lambda sys, box: DacController(sys, box, 2.5, 0.5, 1.0), "memory horizon .* got 2.5"),
        (lambda sys, box: DacController(sys, box, True, 0.5, 1.0), "memory horizon .* got True"),
        (lambda sys, box: DacController(sys, box, 0.5, 0.5, 1.0), "memory horizon .* got 0.5"),
        # nor is the hindsight benchmark's
        (lambda sys, box: best_dac(sys, *_small_problem(), 2.5, 1.0), "memory horizon .* got 2.5"),
        (lambda sys, box: best_dac(sys, *_small_problem(), True, 1.0), "memory horizon .* got True"),
        (lambda sys, box: solve_benchmarks(sys, _small_problem()[0], [_small_problem()[1:]], box, 2.5, 1.0),
         "memory horizon .* got 2.5"),
        (lambda sys, box: solve_benchmarks(sys, _small_problem()[0], [_small_problem()[1:]], box, True, 1.0),
         "memory horizon .* got True"),
    ], ids=["dac_negative", "dac_zero", "dac_fraction", "dac_bool", "olc_no_eta",
            "dac_h_mem_fraction", "dac_h_mem_bool", "dac_h_mem_half",
            "best_dac_h_mem_fraction", "best_dac_h_mem_bool", "solve_h_mem_fraction", "solve_h_mem_bool"])
    def test_unusable_run_count_rejected(self, ring_system, ring_u_box, make, match):
        with pytest.raises(InvalidInputError, match=match):
            make(ring_system, ring_u_box)

    def test_projection_failure_in_one_run_raises(self, ring_system, ring_u_box, monkeypatch):
        # a run that has settled does not hide one still moving at the cap
        s = ring_system.steady_state_gain
        u_star = np.array([1.0, -2.0])
        y = np.stack([s @ u_star, np.array([1.0, 2.0, -1.0])])
        u0 = np.stack([u_star, np.zeros(2)])
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", 1)
        with pytest.raises(ProjectionFailureError, match="moving"):
            _BoxLeastSquares(s, ring_u_box, 0.5)(y, u0)

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
    certify_strong_stability,
    estimate_disturbance,
    project_steady_state,
    simulate,
    steady_state_of_input,
    step,
    regret_optimal_step_size,
)
from olcontrol.controllers import PROJECTION_TOL, _box_least_squares, project_dac_blocks
from olcontrol.harness import ExperimentConfig, draw_run, run_lockstep
from olcontrol.linalg import matvec, row_norms


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

    def test_failure_surfaced(self, ring_system, ring_u_box, monkeypatch):
        # a one-iteration cap cannot settle an interior solution
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", 1)
        with pytest.raises(ProjectionFailureError, match="moving"):
            project_steady_state(ring_system, ring_u_box, np.array([1.0, 2.0, -1.0]))


class TestOlcController:
    def test_zero_gain_rejected(self):
        with pytest.raises(InvalidInputError, match="steady-state gain is zero"):
            OlcController(LtiSystem([[0.5]], [[0.0]]), BoxSet([-1.0], [1.0]), eta=0.1)

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


class TestDacController:
    def test_zero_history_zero_action(self, ring_system):
        dac = make_dac(ring_system)
        np.testing.assert_allclose(dac.act(np.zeros(3)), 0.0)

    def test_selector_blocks(self, ring_system):
        dac = make_dac(ring_system, h_mem=2)
        dac.blocks[0] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        dac.history[0] = np.array([1.0, 2.0, 3.0])
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

    def test_update_no_history_is_noop(self, ring_system):
        dac = make_dac(ring_system)
        cost = QuadraticCost(q=np.eye(3), c=np.ones(3))
        before = dac.blocks.copy()
        dac.update(cost)
        # zero history -> zero surrogate gradient -> unchanged blocks
        np.testing.assert_allclose(dac.blocks, before, atol=0.0)

    def test_surrogate_gradient_matches_finite_differences(self, ring_system, rng):
        dac = make_dac(ring_system, h_mem=3)
        dac.history = rng.uniform(-0.5, 0.5, dac.history.shape)
        dac.blocks = rng.standard_normal(dac.blocks.shape) * 0.2
        s = rng.standard_normal((3, 3))
        cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 2, 3))

        def loss(flat):
            blocks = flat.reshape(dac.blocks.shape)
            return cost.value(dac.surrogate_state(blocks))

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
        # the window expressions (and act's one window) take the products
        # of a loop over blocks, in block order, so they agree with it bit
        # for bit
        dac = make_dac(ring_system, h_mem=h_mem)
        dac.history = rng.uniform(-0.5, 0.5, dac.history.shape)
        dac.blocks = rng.standard_normal(dac.blocks.shape) * 0.2
        delta = rng.standard_normal(3)
        virtual = np.zeros((h_mem + 1, 2))
        played = np.zeros((1, 2))
        q = np.einsum("ikm,k->im", dac._ab_pows, delta)
        grads = np.empty_like(dac.blocks)
        for j in range(1, h_mem + 1):
            virtual += dac.history[j : j + h_mem + 1] @ dac.blocks[j - 1].T
            played += dac.history[j - 1 : j] @ dac.blocks[j - 1].T
            grads[j - 1] = q.T @ dac.history[j : j + h_mem + 1]
        state = np.einsum("ikn,in->k", dac._a_pows, dac.history[: h_mem + 1])
        state += np.einsum("ikm,im->k", dac._ab_pows, virtual)
        np.testing.assert_array_equal(dac.surrogate_state(), state)
        np.testing.assert_array_equal(dac.surrogate_grad_blocks(delta), grads)
        np.testing.assert_array_equal(dac.act(np.zeros(3)), dac.u_set.clamp(played[0]))

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

    def test_observe_before_act_rejected(self, ring_system):
        dac = make_dac(ring_system)
        with pytest.raises(InvalidInputError, match="before act"):
            dac.observe(QuadraticCost(q=np.eye(3), c=np.zeros(3)), np.zeros(3))


class TestBoxDescent:
    def test_solves_clamped_quadratic(self):
        box = BoxSet([-1.0, -1.0], [1.0, 1.0])
        target = np.array([3.0, 0.2])
        u = _box_least_squares(np.eye(2), target, box, 1.0, np.zeros(2))
        np.testing.assert_allclose(u, [1.0, 0.2], atol=1e-9)


def per_step_box_least_squares(s, y, u_set, step, u0):
    """The projection with its stop rule tested after every step, the
    reference ``_box_least_squares`` (one test per block) must match bit for
    bit.  Returns the iterates and each run's stop step; a run still moving
    at the cap fails."""
    lower, upper = u_set.lower[:, None], u_set.upper[:, None]
    s_t = s.T
    y = y[..., None]
    u = np.minimum(np.maximum(u0[..., None], lower), upper)
    moving = np.ones(u.shape[:-2], dtype=bool)
    stops = np.zeros(u.shape[:-2], dtype=int)
    for it in range(1, ctrl_mod.PROJECTION_MAX_ITER + 1):
        u_next = np.minimum(np.maximum(u - step * (s_t @ (s @ u - y)), lower), upper)
        moved = row_norms((u_next - u)[..., 0])
        u = np.where(moving[..., None, None], u_next, u)
        stopped = moving & (moved < ctrl_mod.PROJECTION_MOVE_TOL)
        stops = np.where(stopped, it, stops)
        moving &= ~stopped
        if not moving.any():
            return u[..., 0], stops
    raise ProjectionFailureError(
        f"projection did not converge: still moving {np.max(moved[moving]):.3e} "
        f"after {ctrl_mod.PROJECTION_MAX_ITER} iterations"
    )


def stopping_problem(rng, stops):
    """Runs of one projection, run r stopping at step ``stops[r]``.

    S has orthonormal columns and the step is 1/4, so each step shrinks the
    distance to the interior solution u* by 3/4 and moves the iterate by a
    quarter of it.  Run r starts where its step ``stops[r]`` moves it by
    0.9e-10 and the step before by 1.2e-10, either side of the tolerance.
    """
    s = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    u_star = rng.uniform(-1.0, 1.0, (len(stops), 2))
    direction = rng.standard_normal((len(stops), 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    dist = 0.9e-10 / (0.25 * 0.75 ** (np.array(stops) - 1.0))
    return s, matvec(s, u_star), 0.25, u_star + dist[:, None] * direction


class TestBlockedStopRule:
    """Testing the stop rule once per block of steps returns the bits of the
    per-step test: each run's iterate of its first step below tolerance."""

    BOX = BoxSet.symmetric(5.0, 2)

    def assert_matches_per_step(self, s, y, step, u0):
        want, stops = per_step_box_least_squares(s, y, self.BOX, step, u0)
        got = _box_least_squares(s, y, self.BOX, step, u0)
        assert np.array_equal(got, want)
        return got, stops

    def test_one_run(self, ring_system, rng):
        s = ring_system.steady_state_gain
        for _ in range(5):
            y, u0 = rng.standard_normal(3) * 6.0, rng.uniform(-5.0, 5.0, 2)
            self.assert_matches_per_step(s, y, ctrl_mod._projection_step(s), u0)

    def test_runs_stopping_in_and_across_blocks(self, rng):
        block = ctrl_mod.PROJECTION_BLOCK
        wanted = [1, block, block + 1, 3 * block + 5, 4 * block]
        _, stops = self.assert_matches_per_step(*stopping_problem(rng, wanted))
        np.testing.assert_array_equal(stops, wanted)

    def test_skewed_plant(self, ring_matrices, rng):
        # cond(S) ~ 7.4: up to hundreds of steps, a different count in each run
        sys = LtiSystem(ring_matrices[0], [[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
        s = sys.steady_state_gain
        y, u0 = rng.standard_normal((4, 3)) * 6.0, rng.uniform(-5.0, 5.0, (4, 2))
        _, stops = self.assert_matches_per_step(s, y, ctrl_mod._projection_step(s), u0)
        assert len(set(stops)) == 4 and stops.max() > 10 * ctrl_mod.PROJECTION_BLOCK

    def test_joint_projection(self, ring_system, rng):
        # a tall matrix and a step below 1/||S||^2: the joint state+input
        # problem min ||S u - z||^2 + ||u - u_target||^2, on the stacked [S; I]
        s = ring_system.steady_state_gain
        stacked = np.vstack([s, np.eye(2)])
        step = 1.0 / (np.linalg.norm(s, 2) ** 2 + 1.0)
        for _ in range(5):
            y, u0 = rng.standard_normal(5) * 6.0, rng.uniform(-5.0, 5.0, 2)
            self.assert_matches_per_step(stacked, y, step, u0)

    @pytest.mark.parametrize("extra", [1 - ctrl_mod.PROJECTION_BLOCK, 3], ids=["cap_1", "cap_block_plus_3"])
    def test_cap_returns_as_per_step(self, rng, monkeypatch, extra):
        block = ctrl_mod.PROJECTION_BLOCK
        cap = block + extra
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", cap)
        # every run stops by the cap, the last one at its very step
        problem = stopping_problem(rng, [1, min(block, cap), min(block + 1, cap), cap])
        got, stops = self.assert_matches_per_step(*problem)
        assert stops.max() == cap
        # a run that stopped in an earlier block keeps that block's iterate
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", 5000)
        uncapped = _box_least_squares(problem[0], problem[1], self.BOX, problem[2], problem[3])
        assert np.array_equal(got, uncapped)

    @pytest.mark.parametrize("extra", [1 - ctrl_mod.PROJECTION_BLOCK, 3], ids=["cap_1", "cap_block_plus_3"])
    def test_cap_raises_as_per_step(self, rng, monkeypatch, extra):
        cap = ctrl_mod.PROJECTION_BLOCK + extra
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", cap)
        # run 2 still moves at the cap, by 0.9e-10 / 0.75**late: 1.2e-10,
        # 2.8e-8 or 3e-3.  However little, that fails the projection
        for late in (1, 20, 60):
            problem = stopping_problem(rng, [1, cap, cap + late])
            with pytest.raises(ProjectionFailureError) as want:
                per_step_box_least_squares(problem[0], problem[1], self.BOX, problem[2], problem[3])
            with pytest.raises(ProjectionFailureError) as got:
                _box_least_squares(problem[0], problem[1], self.BOX, problem[2], problem[3])
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


def random_cost(rng, n=3):
    s = rng.standard_normal((n, n))
    return QuadraticCost(q=s.T @ s / n + 0.1 * np.eye(n), c=rng.uniform(0, 5, n))


class TestLockstep:
    """A controller with a leading run axis plays each run with the bits of
    that run's own one-run controller."""

    def test_olc_matches_single_runs(self, ring_system, ring_u_box, rng):
        # run 0's step is so small that each projection stops at its first
        # iteration, while runs 1 and 2 keep iterating: run 0 is frozen
        # for most of every lockstep projection
        eta = np.array([1e-13, 0.05, 0.5])
        z0 = rng.uniform(-2.0, 2.0, (3, 3))
        batched = OlcController(ring_system, ring_u_box, eta, z0=z0)
        singles = [OlcController(ring_system, ring_u_box, eta[r], z0=z0[r]) for r in range(3)]
        for _ in range(20):
            x = rng.standard_normal((3, 3))
            u = batched.act(x)
            delta = rng.standard_normal((3, 3)) * 5.0
            for r, single in enumerate(singles):
                np.testing.assert_array_equal(u[r], single.act(x[r]))
                single.observe(delta[r])
            batched.observe(delta)
            np.testing.assert_array_equal(batched.z, np.stack([single.z for single in singles]))

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
            x = x_next
        # the blocks moved and some reached their radius
        assert np.any(np.linalg.norm(batched.blocks, axis=(-2, -1)) >= batched.radii - 1e-12)

    def test_projection_failure_in_one_run_raises(self, ring_system, ring_u_box, monkeypatch):
        # a run that has settled does not hide one still moving at the cap
        s = ring_system.steady_state_gain
        u_star = np.array([1.0, -2.0])
        y = np.stack([s @ u_star, np.array([1.0, 2.0, -1.0])])
        u0 = np.stack([u_star, np.zeros(2)])
        monkeypatch.setattr(ctrl_mod, "PROJECTION_MAX_ITER", 1)
        with pytest.raises(ProjectionFailureError, match="moving"):
            _box_least_squares(s, y, ring_u_box, 0.5, u0)

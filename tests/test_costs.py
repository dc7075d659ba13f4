import numpy as np
import pytest

import olcontrol.costs as costs_module
from olcontrol import (
    InvalidInputError,
    QuadraticBatch,
    QuadraticCost,
    StateBound,
    finite_diff_grad,
    simulate_decomposed,
    smoothness_constant,
)
from olcontrol.costs import as_batch


def shifted(cost: QuadraticCost, x_d) -> QuadraticCost:
    """g(x) = f(x + x_d) for the quadratic f: the same Q, centre c - x_d."""
    return QuadraticCost(q=cost.q, c=cost.c - x_d)


def random_stacks(rng, horizon, dim=3):
    s = rng.standard_normal((horizon, dim, dim))
    qs = s.transpose(0, 2, 1) @ s / dim + 0.1 * np.eye(dim)
    return 0.5 * (qs + qs.transpose(0, 2, 1)), rng.uniform(-1, 1, (horizon, dim))


class TestQuadraticCost:
    def test_unit_circle(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        assert cost.value([3.0, 4.0]) == pytest.approx(25.0)

    def test_minimum_at_center(self):
        cost = QuadraticCost(q=np.diag([1.0, 2.0]), c=np.array([1.0, -1.0]))
        assert cost.value([1.0, -1.0]) == 0.0
        np.testing.assert_allclose(cost.grad([1.0, -1.0]), 0.0)

    def test_diagonal_arithmetic(self):
        cost = QuadraticCost(q=np.diag([1.0, 2.0]), c=np.array([1.0, 0.0]))
        assert cost.value([0.0, 1.0]) == pytest.approx(3.0)

    def test_gradients(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        np.testing.assert_allclose(cost.grad([1.0, 1.0]), [2.0, 2.0])
        cost = QuadraticCost(q=np.diag([1.0, 2.0]), c=np.zeros(2))
        np.testing.assert_allclose(cost.grad([1.0, 1.0]), [2.0, 4.0])

    def test_dimension_mismatch(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        with pytest.raises(InvalidInputError):
            cost.value([1.0, 2.0, 3.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            QuadraticCost(q=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2))

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidInputError, match="semidefinite"):
            QuadraticCost(q=np.diag([1.0, -1.0]), c=np.zeros(2))

    def test_slightly_indefinite_rejected(self):
        # a negative eigenvalue along one axis, which sampled directions miss
        with pytest.raises(InvalidInputError, match="semidefinite"):
            QuadraticCost(q=np.diag([1.0, 1.0, -1e-3]), c=np.zeros(3))

    def test_convexity_samples(self, rng):
        for _ in range(10):
            s = rng.standard_normal((3, 3))
            cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(-5, 5, 3))
            for _ in range(100):
                x, y = rng.standard_normal(3) * 4, rng.standard_normal(3) * 4
                lam = rng.uniform()
                mid = cost.value(lam * x + (1 - lam) * y)
                assert mid <= lam * cost.value(x) + (1 - lam) * cost.value(y) + 1e-9


class TestNominalCost:
    def test_zero_shift_is_identity(self, rng):
        cost = QuadraticCost(q=np.eye(3), c=rng.uniform(-2, 2, 3))
        g = shifted(cost, np.zeros(3))
        for _ in range(10):
            x = rng.standard_normal(3)
            assert g.value(x) == pytest.approx(cost.value(x), abs=1e-14)
            np.testing.assert_allclose(g.grad(x), cost.grad(x), atol=1e-14)

    def test_shift_moves_center(self, rng):
        q = np.diag([1.0, 2.0, 0.5])
        c = np.array([1.0, -1.0, 2.0])
        x_d = rng.standard_normal(3)
        g = shifted(QuadraticCost(q=q, c=c), x_d)
        for _ in range(10):
            x = rng.standard_normal(3)
            # the minimum moves from c to c - x_d
            assert g.value(x) == pytest.approx(float((x + x_d - c) @ q @ (x + x_d - c)), rel=1e-12, abs=1e-12)
        assert g.value(c - x_d) == 0.0

    def test_chain_rule_identity(self, rng):
        # gradient of the shifted cost equals the original gradient at x + x_d
        cost = QuadraticCost(q=np.diag([2.0, 1.0]), c=np.array([0.5, -0.5]))
        x_d = rng.standard_normal(2)
        g = shifted(cost, x_d)
        for _ in range(20):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(g.grad(x), cost.grad(x + x_d), atol=1e-12)

    def test_shifted_gradient_matches_finite_differences(self, rng):
        cost = QuadraticCost(q=np.diag([2.0, 1.0, 0.5]), c=np.array([1.0, 0.0, -1.0]))
        g = shifted(cost, rng.standard_normal(3))
        for _ in range(5):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(finite_diff_grad(g, x), g.grad(x), rtol=1e-6, atol=1e-8)

    def test_matches_full_cost_along_run(self, ring_system, rng):
        u_seq = rng.uniform(-5, 5, (30, 2))
        w_seq = rng.uniform(-0.5, 0.5, (30, 3))
        nominal, dist, full = simulate_decomposed(ring_system, rng.standard_normal(3), u_seq, w_seq)
        for t in range(31):
            s = rng.standard_normal((3, 3))
            cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 5, 3))
            g = shifted(cost, dist[t])
            f_val = cost.value(full[t])
            assert g.value(nominal[t]) == pytest.approx(f_val, rel=1e-12, abs=1e-12)


class TestSmoothness:
    def test_unit_example(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        assert smoothness_constant([cost], StateBound(1.0), c_max=0.0) == pytest.approx(2.0)

    def test_scaling(self):
        costs = [QuadraticCost(q=np.diag([1.0, 2.0]), c=np.zeros(2))]
        scaled = [QuadraticCost(q=3 * np.diag([1.0, 2.0]), c=np.zeros(2))]
        bound = StateBound(2.0)
        l1 = smoothness_constant(costs, bound, c_max=1.0)
        l3 = smoothness_constant(scaled, bound, c_max=1.0)
        assert l3 == pytest.approx(3 * l1, rel=1e-9)

    def test_gradient_bound_sampled(self, rng):
        costs = []
        for _ in range(20):
            s = rng.standard_normal((3, 3))
            costs.append(QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 5, 3)))
        bound = StateBound(4.0)
        # c_max here is a bound on the target norm, not per coordinate
        l = smoothness_constant(costs, bound, c_max=5.0 * np.sqrt(3))
        for _ in range(1000):
            x = rng.standard_normal(3)
            x *= rng.uniform(0, bound.d) / np.linalg.norm(x)
            cost = costs[rng.integers(len(costs))]
            assert np.linalg.norm(cost.grad(x)) <= l * bound.d * (1 + 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            smoothness_constant([], StateBound(1.0), c_max=0.0)

    @pytest.mark.parametrize("c_max", [np.nan, -1e9, "3", None], ids=["nan", "negative", "text", "none"])
    def test_bad_c_max_rejected(self, c_max):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        with pytest.raises(InvalidInputError, match="c_max must be a non-negative finite number"):
            smoothness_constant([cost], StateBound(1.0), c_max=c_max)

    def test_mixed_shapes_rejected(self):
        costs = [QuadraticCost(q=np.eye(2), c=np.zeros(2)), QuadraticCost(q=np.eye(3), c=np.zeros(3))]
        with pytest.raises(InvalidInputError, match="mixes"):
            smoothness_constant(costs, StateBound(1.0), c_max=0.0)

    def test_batch_and_list_agree(self, rng):
        qs, cs = random_stacks(rng, 20)
        batch = QuadraticBatch(qs, cs)
        costs = [QuadraticCost(q, c) for q, c in zip(qs, cs)]
        bound = StateBound(3.0)
        assert smoothness_constant(batch, bound, 2.0) == smoothness_constant(costs, bound, 2.0)


def full_svd_l(qs, bound, c_max):
    """L by its formula, with the SVD over every step."""
    max_q = float(np.max(np.linalg.norm(qs, 2, axis=(1, 2))))
    return max(2.0 * max_q * (bound.d + c_max) / bound.d, 1e-12)


def tied_stacks(rng, horizon, dim=3):
    """PSD steps whose norms sit within +-3 ulps of each other: one Q scaled
    by factors a few ulps from 1, in a random order."""
    q, _ = random_stacks(rng, 1, dim)
    factors = 1.0 + np.spacing(1.0) * rng.integers(-3, 4, horizon)
    return q * factors[:, None, None], rng.uniform(-1, 1, (horizon, dim))


class TestSmoothnessBits:
    """L takes the SVD only over the steps near the largest |eigenvalue|,
    and must keep the bits of the SVD over every step."""

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_random_batches(self, rng, scale):
        bound = StateBound(2.5)
        for horizon in (1, 2, 7, 60):
            qs, cs = random_stacks(rng, horizon, dim=int(rng.integers(1, 6)))
            qs = scale * qs
            assert smoothness_constant(QuadraticBatch(qs, cs), bound, 1.5) == full_svd_l(qs, bound, 1.5)

    def test_near_ties(self, rng):
        bound = StateBound(1.0)
        for _ in range(50):
            qs, cs = tied_stacks(rng, 9)
            assert smoothness_constant(QuadraticBatch(qs, cs), bound, 0.7) == full_svd_l(qs, bound, 0.7)

    def test_all_zero_batch_clamped(self):
        qs = np.zeros((4, 3, 3))
        l = smoothness_constant(QuadraticBatch(qs, np.zeros((4, 3))), StateBound(1.0), 2.0)
        assert l == full_svd_l(qs, StateBound(1.0), 2.0) == 1e-12

    def test_one_step_and_list(self, rng):
        qs, cs = random_stacks(rng, 5)
        bound = StateBound(3.0)
        assert smoothness_constant([QuadraticCost(qs[0], cs[0])], bound, 1.0) == full_svd_l(qs[:1], bound, 1.0)
        costs = [QuadraticCost(q, c) for q, c in zip(qs, cs)]
        assert smoothness_constant(costs, bound, 1.0) == full_svd_l(qs, bound, 1.0)

    def test_svd_only_near_the_top(self, rng, monkeypatch):
        rows = []
        svd = costs_module.batch_spectral_norms
        monkeypatch.setattr(costs_module, "batch_spectral_norms", lambda mats: rows.append(len(mats)) or svd(mats))
        qs, cs = random_stacks(rng, 500)
        smoothness_constant(QuadraticBatch(qs, cs), StateBound(1.0), 1.0)
        qs, cs = tied_stacks(rng, 8)
        smoothness_constant(QuadraticBatch(qs, cs), StateBound(1.0), 1.0)
        # one step of 500 distinct ones; every step of a tied batch
        assert rows == [1, 8]


class TestFiniteDiff:
    def test_quadratic_example(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        np.testing.assert_allclose(finite_diff_grad(cost, [1.0, 0.0]), [2.0, 0.0], atol=1e-8)

    def test_constant_oracle(self):
        flat = QuadraticCost(q=np.zeros((3, 3)), c=np.zeros(3))
        np.testing.assert_allclose(finite_diff_grad(flat, np.ones(3)), 0.0)

    def test_matches_analytic(self, rng):
        for _ in range(20):
            s = rng.standard_normal((3, 3))
            cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(-5, 5, 3))
            x = rng.standard_normal(3) * 2
            fd = finite_diff_grad(cost, x)
            np.testing.assert_allclose(fd, cost.grad(x), rtol=1e-6, atol=1e-8)


class TestBatching:
    def test_stack_and_eval(self, rng):
        qs, cs = random_stacks(rng, 5)
        xs = rng.standard_normal((5, 3))
        batch = QuadraticBatch(qs, cs)
        costs = [QuadraticCost(q, c) for q, c in zip(qs, cs)]
        vals = batch.values(xs)
        grads = batch.grads(xs)
        assert len(batch) == 5 and batch.dim == 3
        for t in range(5):
            assert vals[t] == pytest.approx(costs[t].value(xs[t]), rel=1e-12)
            np.testing.assert_allclose(grads[t], costs[t].grad(xs[t]), rtol=1e-12, atol=1e-12)

    def test_stack_rejects_mixed(self):
        costs = [QuadraticCost(q=np.eye(3), c=np.zeros(3))] * 3 + [QuadraticCost(q=np.eye(2), c=np.zeros(2))]
        with pytest.raises(InvalidInputError, match="mixes.*step 3"):
            as_batch(costs)
        with pytest.raises(InvalidInputError, match="QuadraticCost"):
            as_batch([costs[0], lambda x: 0.0])
        with pytest.raises(InvalidInputError, match="QuadraticCost"):
            as_batch(np.stack([np.eye(3)] * 3))

    def test_list_stacked_once(self, rng):
        qs, cs = random_stacks(rng, 6)
        batch = as_batch([QuadraticCost(q, c) for q, c in zip(qs, cs)])
        assert as_batch(batch) is batch
        np.testing.assert_array_equal(batch.qs, qs)
        np.testing.assert_array_equal(batch.cs, cs)

    def test_step_view_bitwise(self, rng):
        qs, cs = random_stacks(rng, 8)
        batch = QuadraticBatch(qs, cs)
        for t in range(8):
            alone = QuadraticCost(qs[t].copy(), cs[t].copy())
            for _ in range(5):
                x = rng.standard_normal(3) * 3
                assert batch[t].value(x) == alone.value(x)
                np.testing.assert_array_equal(batch[t].grad(x), alone.grad(x))

    @pytest.mark.parametrize("bad", ["asymmetric", "indefinite", "nan_q", "inf_c"])
    def test_bad_step_named(self, rng, bad):
        qs, cs = random_stacks(rng, 7)
        k = 4
        if bad == "asymmetric":
            qs[k, 0, 1] += 1e-3
            match = f"step {k} is not symmetric"
        elif bad == "indefinite":
            qs[k] = np.diag([1.0, 1.0, -1e-3])
            match = f"step {k} is not positive semidefinite"
        elif bad == "nan_q":
            qs[k, 2, 2] = np.nan
            match = f"step {k} has non-finite"
        else:
            cs[k, 1] = np.inf
            match = f"step {k} has non-finite"
        with pytest.raises(InvalidInputError, match=match):
            QuadraticBatch(qs, cs)

    @pytest.mark.parametrize("qs_shape, cs_shape", [
        ((4, 3, 3), (4, 2)),
        ((4, 3, 3), (5, 3)),
        ((4, 3, 2), (4, 3)),
        ((3, 3), (3,)),
        ((0, 3, 3), (0, 3)),
    ])
    def test_shapes_rejected(self, qs_shape, cs_shape):
        with pytest.raises(InvalidInputError):
            QuadraticBatch(np.zeros(qs_shape), np.zeros(cs_shape))

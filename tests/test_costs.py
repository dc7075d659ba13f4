import numpy as np
import pytest

from olcontrol import (
    InvalidInputError,
    QuadraticCost,
    StateBound,
    finite_diff_grad,
    nominal_cost,
    simulate_decomposed,
    smoothness_constant,
)
from olcontrol.costs import quad_batch_grads, quad_batch_values, stack_quadratics


class ConstantCost:
    def value(self, x):
        return 7.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


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
        g = nominal_cost(cost, np.zeros(3))
        for _ in range(10):
            x = rng.standard_normal(3)
            assert g.value(x) == pytest.approx(cost.value(x), abs=1e-14)
            np.testing.assert_allclose(g.grad(x), cost.grad(x), atol=1e-14)

    def test_shift_moves_center(self, rng):
        q = np.diag([1.0, 2.0, 0.5])
        c = np.array([1.0, -1.0, 2.0])
        x_d = rng.standard_normal(3)
        g = nominal_cost(QuadraticCost(q=q, c=c), x_d)
        shifted = QuadraticCost(q=q, c=c - x_d)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert g.value(x) == pytest.approx(shifted.value(x), rel=1e-12, abs=1e-12)

    def test_chain_rule_identity(self, rng):
        # gradient of the shifted cost equals the original gradient at x + x_d
        cost = QuadraticCost(q=np.diag([2.0, 1.0]), c=np.array([0.5, -0.5]))
        x_d = rng.standard_normal(2)
        g = nominal_cost(cost, x_d)
        for _ in range(20):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(g.grad(x), cost.grad(x + x_d), atol=1e-12)

    def test_shifted_gradient_matches_finite_differences(self, rng):
        cost = QuadraticCost(q=np.diag([2.0, 1.0, 0.5]), c=np.array([1.0, 0.0, -1.0]))
        g = nominal_cost(cost, rng.standard_normal(3))
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
            g = nominal_cost(cost, dist[t])
            f_val = cost.value(full[t])
            assert g.value(nominal[t]) == pytest.approx(f_val, rel=1e-12, abs=1e-12)


class TestSmoothness:
    def test_unit_example(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        params = smoothness_constant([cost], StateBound(1.0), c_max=0.0)
        assert params.l == pytest.approx(2.0)
        assert params.d == 1.0

    def test_scaling(self):
        costs = [QuadraticCost(q=np.diag([1.0, 2.0]), c=np.zeros(2))]
        scaled = [QuadraticCost(q=3 * np.diag([1.0, 2.0]), c=np.zeros(2))]
        bound = StateBound(2.0)
        l1 = smoothness_constant(costs, bound, c_max=1.0).l
        l3 = smoothness_constant(scaled, bound, c_max=1.0).l
        assert l3 == pytest.approx(3 * l1, rel=1e-9)

    def test_gradient_bound_sampled(self, rng):
        costs = []
        for _ in range(20):
            s = rng.standard_normal((3, 3))
            costs.append(QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 5, 3)))
        bound = StateBound(4.0)
        # c_max here is a bound on the target norm, not per coordinate
        params = smoothness_constant(costs, bound, c_max=5.0 * np.sqrt(3))
        for _ in range(1000):
            x = rng.standard_normal(3)
            x *= rng.uniform(0, bound.d) / np.linalg.norm(x)
            cost = costs[rng.integers(len(costs))]
            assert np.linalg.norm(cost.grad(x)) <= params.l * params.d * (1 + 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            smoothness_constant([], StateBound(1.0), c_max=0.0)

    def test_mixed_shapes_rejected(self):
        costs = [QuadraticCost(q=np.eye(2), c=np.zeros(2)), QuadraticCost(q=np.eye(3), c=np.zeros(3))]
        with pytest.raises(InvalidInputError, match="mixes"):
            smoothness_constant(costs, StateBound(1.0), c_max=0.0)


class TestFiniteDiff:
    def test_quadratic_example(self):
        cost = QuadraticCost(q=np.eye(2), c=np.zeros(2))
        np.testing.assert_allclose(finite_diff_grad(cost, [1.0, 0.0]), [2.0, 0.0], atol=1e-8)

    def test_constant_oracle(self):
        np.testing.assert_allclose(finite_diff_grad(ConstantCost(), np.ones(3)), 0.0)

    def test_matches_analytic(self, rng):
        for _ in range(20):
            s = rng.standard_normal((3, 3))
            cost = QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(-5, 5, 3))
            x = rng.standard_normal(3) * 2
            fd = finite_diff_grad(cost, x)
            np.testing.assert_allclose(fd, cost.grad(x), rtol=1e-6, atol=1e-8)


class TestBatching:
    def test_stack_and_eval(self, rng):
        costs = []
        xs = rng.standard_normal((5, 3))
        for _ in range(5):
            s = rng.standard_normal((3, 3))
            costs.append(QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(-1, 1, 3)))
        qs, cs = stack_quadratics(costs)
        vals = quad_batch_values(qs, cs, xs)
        grads = quad_batch_grads(qs, cs, xs)
        for t in range(5):
            assert vals[t] == pytest.approx(costs[t].value(xs[t]), rel=1e-12)
            np.testing.assert_allclose(grads[t], costs[t].grad(xs[t]), rtol=1e-12, atol=1e-12)

    def test_stack_rejects_mixed(self):
        assert stack_quadratics([ConstantCost()]) is None

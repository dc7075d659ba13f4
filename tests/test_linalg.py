from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import olcontrol.benchmarks as benchmarks_mod
from olcontrol import (
    BoxSet,
    DacController,
    InvalidInputError,
    LtiSystem,
    OlcController,
    QuadraticBatch,
    QuadraticCost,
    adjoint_input_gradients,
    best_dac,
    best_fixed_input,
    finite_diff_grad,
    grid_oracle_fixed_input,
    regret_optimal_step_size,
    simulate,
    solve_benchmarks,
    spectral_norm,
    spectral_radius_estimate,
    state_bound,
    UnsupportedDimensionError,
)
from olcontrol.linalg import BOX_QP_FEASIBLE_TOL, as_array, batch_spectral_norms, box_qp, positive


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


def kkt_residual(h, g, lower, upper, x) -> float:
    """||clip(x - grad) - x||_inf for x^T h x + 2 g^T x: zero exactly at the box's minimizer."""
    return float(np.max(np.abs(np.clip(x - 2.0 * (h @ x + g), lower, upper) - x)))


class TestBoxQp:
    LOWER, UPPER = -np.ones(2), np.ones(2)

    @pytest.mark.parametrize("delta", [-1e-11, -1e-13, 0.0, 1e-13, 1e-11])
    def test_near_tied_faces(self, rng, delta):
        # the free optimum u* sits delta beyond the upper bound of u_0: the
        # interior face and the face u_0 = 1 give candidates valued within
        # delta^2 of each other, and within BOX_QP_FEASIBLE_TOL = 1e-12 the
        # interior one counts as feasible and is clipped
        assert BOX_QP_FEASIBLE_TOL == 1e-12
        for _ in range(10):
            rotation = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            h = rotation @ np.diag(rng.uniform(0.5, 2.0, 2)) @ rotation.T  # cond <= 4: roundoff ~ eps
            g = -h @ np.array([1.0 + delta, 0.3])
            want = np.array([1.0 + min(delta, 0.0), -(g[1] + h[1, 0] * min(1.0 + delta, 1.0)) / h[1, 1]])
            got = box_qp(h, g, self.LOWER, self.UPPER)
            assert np.all(got >= self.LOWER) and np.all(got <= self.UPPER)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            assert kkt_residual(h, g, self.LOWER, self.UPPER, got) <= 1e-12 * np.linalg.norm(h, 2)

    def test_feasibility_tolerance(self):
        # the free optimum 1e-13 past u_0's bound, inside BOX_QP_FEASIBLE_TOL,
        # is feasible and clipped; 1e-11 past it is not, and the face u_0 = 1
        # gives the answer, u_1 = 0.3 + the excess on this h
        h = np.array([[2.0, 1.0], [1.0, 1.0]])
        for excess, u_1 in ((1e-13, 0.3), (1e-11, 0.3 + 1e-11)):
            got = box_qp(h, -h @ [1.0 + excess, 0.3], self.LOWER, self.UPPER)
            assert got[0] == 1.0 and abs(got[1] - u_1) <= 1e-15

    def test_ties_go_to_the_first_face(self):
        # f = 0 everywhere: the first face, both coordinates at the lower bound
        assert np.array_equal(box_qp(np.zeros((2, 2)), np.zeros(2), self.LOWER, self.UPPER), self.LOWER)
        # f = u_0^2, singular h: u_0 free at 0 first ties with u_1 at its lower bound
        assert np.array_equal(box_qp(np.diag([1.0, 0.0]), np.zeros(2), self.LOWER, self.UPPER), [0.0, -1.0])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kkt_on_random_problems(self, rng, m):
        # full rank and rank 1; optima inside the box, on its faces and at corners
        lower, upper = -np.ones(m), np.ones(m)
        for rank in (m, 1):
            for _ in range(20):
                root = rng.standard_normal((m, rank))
                h, g = root @ root.T, root @ rng.standard_normal(rank) * rng.uniform(0.1, 3.0)
                got = box_qp(h, g, lower, upper)
                assert np.all(got >= lower) and np.all(got <= upper)
                assert kkt_residual(h, g, lower, upper, got) <= 1e-12 * max(np.linalg.norm(h, 2), 1.0)

    def test_dimension_cap(self):
        # 3^8 = 6561 faces are enumerated; a ninth input is refused
        c = np.linspace(-2.0, 2.0, 8)
        np.testing.assert_array_equal(box_qp(np.eye(8), -c, -np.ones(8), np.ones(8)), np.clip(c, -1.0, 1.0))
        with pytest.raises(UnsupportedDimensionError, match="M <= 8, got M = 9"):
            box_qp(np.eye(9), np.zeros(9), -np.ones(9), np.ones(9))


class TestAsArray:
    @pytest.mark.parametrize("shape, accepted, rejected", [
        ((3,), [(3,)], [(), (2,), (1, 3)]),
        ((None, 2), [(0, 2), (5, 2)], [(2,), (5, 3), (1, 5, 2)]),
        ((..., 3), [(3,), (4, 3), (2, 4, 3)], [(), (4, 2)]),
        ((...,), [(), (4,), (2, 4)], []),
    ])
    def test_declared_shape(self, shape, accepted, rejected):
        for got in accepted:
            assert as_array(np.zeros(got), "v", shape).shape == got
        for got in rejected:
            with pytest.raises(InvalidInputError, match="v must have shape"):
                as_array(np.zeros(got), "v", shape)

    def test_non_finite_and_non_numeric_rejected(self):
        for bad in ([1.0, np.nan], [np.inf, 0.0], [-np.inf, 0.0]):
            with pytest.raises(InvalidInputError, match="non-finite"):
                as_array(bad, "v", (2,))
        for bad in ([1.0, "a"], [[1.0], [1.0, 2.0]], [{}, 1.0]):
            with pytest.raises(InvalidInputError, match="not an array of numbers"):
                as_array(bad, "v", (2,))
        assert as_array([1, 2], "v", (2,)).dtype == float

    def test_only_numbers_taken(self):
        # the entries real() takes: ints and floats, numpy's too, but no bool
        # or text, and no other object
        for bad in (["0.5", "1"], [True, False], np.array([True, False]), [b"1", b"2"], [1 + 2j, 0],
                    [1, "a"], [None, 0], [Decimal(1), 0], [np.True_, 2**70], [Fraction(1, 2), 0]):
            with pytest.raises(InvalidInputError, match="v is not an array of numbers"):
                as_array(bad, "v", (2,))
        with pytest.raises(InvalidInputError, match="v is not an array of numbers"):
            as_array(None, "v", ())
        for good, want in (([2**70, 0], [2.0**70, 0.0]), ([np.int64(3), 2**70], [3.0, 2.0**70]),
                           (np.array([0.5, 2], dtype=np.float32), [0.5, 2.0]),
                           (np.array([1.5, 2.0], dtype=">f8"), [1.5, 2.0]), (np.array([3, 1], dtype=np.uint8), [3, 1])):
            got = as_array(good, "v", (2,))
            assert got.dtype == float and got.tolist() == want


# The public entry points the cases below feed, by name, called on the ring
# plant; ``a`` holds the array arguments, one of which a case spoils.
ENTRY_POINTS = {
    "simulate": lambda sys, box, a: simulate(sys, a["x1"], a["u_seq"], a["w_seq"]),
    "best_fixed_input": lambda sys, box, a: best_fixed_input(sys, a["x1"], a["w_seq"], a["costs"], box),
    "best_dac": lambda sys, box, a: best_dac(sys, a["x1"], a["w_seq"], a["costs"], 2, 1.0),
    "adjoint_input_gradients":
        lambda sys, box, a: adjoint_input_gradients(sys, a["x1"], a["u_seq"], a["w_seq"], a["costs"]),
    "grid_oracle_fixed_input":
        lambda sys, box, a: grid_oracle_fixed_input(sys, a["x1"], a["w_seq"], a["costs"], box, 4),
    "state_bound": lambda sys, box, a: state_bound(sys, a["x1"], box, BoxSet.symmetric(0.5, 3)),
}
SOLVERS = ("simulate", "best_fixed_input", "best_dac", "adjoint_input_gradients", "grid_oracle_fixed_input")


def _clean_arrays(horizon=8):
    return {
        "x1": np.zeros(3), "u_seq": np.ones((horizon - 1, 2)), "w_seq": np.full((horizon - 1, 3), 0.1),
        "costs": QuadraticBatch(np.broadcast_to(np.eye(3), (horizon, 3, 3)), np.ones((horizon, 3))),
    }


# (entry point, argument, bad value): a float is written into the last
# entry of the clean array, an array replaces it
BAD_ARRAYS = [
    *[(entry, "w_seq", bad) for entry in SOLVERS for bad in (np.nan, np.inf)],
    ("simulate", "u_seq", np.nan),
    ("simulate", "u_seq", -np.inf),
    ("state_bound", "x1", np.ones(5)),
]


@pytest.mark.parametrize("entry, arg, bad", BAD_ARRAYS, ids=[
    f"{e}-{a}-{b!r}" if isinstance(b, float) else f"{e}-{a}-length_{len(b)}" for e, a, b in BAD_ARRAYS
])
def test_bad_array_rejected(ring_system, ring_u_box, monkeypatch, entry, arg, bad):
    call = ENTRY_POINTS[entry]
    arrays = _clean_arrays()
    call(ring_system, ring_u_box, arrays)
    if isinstance(bad, float):
        spoiled = arrays[arg].copy()
        spoiled.flat[-1] = bad
        arrays[arg] = spoiled
    else:
        arrays[arg] = bad

    def no_descent(*args):
        raise AssertionError("a bad array reached a solve")

    monkeypatch.setattr(benchmarks_mod, "_projected_descent", no_descent)
    monkeypatch.setattr(benchmarks_mod, "box_qp", no_descent)
    with pytest.raises(InvalidInputError):
        call(ring_system, ring_u_box, arrays)


# (entry point, the scalar it spoils): not positive and finite, not an
# integer in range (a bool is none), or not a number at all
BAD_SCALARS = [
    *[("dac_controller", name, bad) for name in ("eta_g", "radius") for bad in (np.nan, np.inf)],
    *[("dac_controller", "eta_g", bad) for bad in ("abc", None, [1.0], True, "0.1")],
    *[("regret_optimal_step_size", "l", bad) for bad in (np.nan, np.inf)],
    *[("regret_optimal_step_size", "t", bad) for bad in (2.5, "5")],
    *[("best_dac", "radius", bad) for bad in (-1.0, 0.0, np.nan, np.inf)],
    *[(entry, "h_mem", bad) for entry in ("best_dac", "solve_benchmarks") for bad in (0, -1)],
    ("grid_oracle_fixed_input", "resolution", 2.5),
    ("spectral_radius_estimate", "k", 8.5),
    *[("symmetric_box", "dim", bad) for bad in (2.5, True)],
    ("symmetric_box", "halfwidth", "5"),
    *[("finite_diff_grad", "h", bad) for bad in ("abc", True)],
]


@pytest.mark.parametrize("entry, name, bad", BAD_SCALARS, ids=[f"{e}-{n}-{b!r}" for e, n, b in BAD_SCALARS])
def test_bad_scalar_rejected(ring_system, ring_u_box, monkeypatch, entry, name, bad):
    scalars = {"eta_g": 0.1, "radius": 1.0, "l": 2.0, "t": 10, "h_mem": 2, "resolution": 4, "k": 8,
               "dim": 2, "halfwidth": 5.0, "h": 1e-3}
    arrays = _clean_arrays()
    problem = (arrays["x1"], arrays["w_seq"], arrays["costs"])
    calls = {
        "dac_controller": lambda s: DacController(ring_system, ring_u_box, 3, s["eta_g"], s["radius"]),
        "regret_optimal_step_size": lambda s: regret_optimal_step_size(s["l"], s["t"], ring_system),
        "best_dac": lambda s: best_dac(ring_system, *problem, s["h_mem"], s["radius"]),
        "solve_benchmarks": lambda s: solve_benchmarks(ring_system, arrays["x1"], [problem[1:]], ring_u_box,
                                                       s["h_mem"], s["radius"]),
        "grid_oracle_fixed_input": lambda s: grid_oracle_fixed_input(ring_system, *problem, ring_u_box,
                                                                     s["resolution"]),
        "spectral_radius_estimate": lambda s: spectral_radius_estimate(ring_system.a, s["k"]),
        "symmetric_box": lambda s: BoxSet.symmetric(s["halfwidth"], s["dim"]),
        "finite_diff_grad": lambda s: finite_diff_grad(arrays["costs"][0], arrays["x1"], s["h"]),
    }
    calls[entry](scalars)

    def no_descent(*args):
        raise AssertionError("a bad scalar reached a solve")

    monkeypatch.setattr(benchmarks_mod, "_projected_descent", no_descent)
    monkeypatch.setattr(benchmarks_mod, "box_qp", no_descent)
    with pytest.raises(InvalidInputError):
        calls[entry]({**scalars, name: bad})


# every public entry point that takes a number, called with the number v
NUMBER_ENTRIES = {
    "as_array": lambda sys, box, v: as_array([v], "v", (1,)),
    "positive": lambda sys, box, v: positive(v, "v"),
    "BoxSet": lambda sys, box, v: BoxSet([-1.0, -v], [1.0, v]),
    "QuadraticCost": lambda sys, box, v: QuadraticCost(np.eye(2), [v, 0.0]),
    "LtiSystem": lambda sys, box, v: LtiSystem([[0.5]], [[v]]),
    "OlcController": lambda sys, box, v: OlcController(sys, box, eta=v),
    "DacController": lambda sys, box, v: DacController(sys, box, 3, v, 1.0),
    "regret_optimal_step_size": lambda sys, box, v: regret_optimal_step_size(v, 10, sys),
}


@pytest.mark.parametrize("entry", list(NUMBER_ENTRIES))
def test_int_past_float_range_rejected(ring_system, ring_u_box, entry):
    call = NUMBER_ENTRIES[entry]
    call(ring_system, ring_u_box, 1)
    with pytest.raises(InvalidInputError):
        call(ring_system, ring_u_box, 10**400)

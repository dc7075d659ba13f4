import numpy as np
import pytest

import olcontrol.benchmarks as benchmarks_mod
from olcontrol import (
    BoxSet,
    DacController,
    InvalidInputError,
    QuadraticBatch,
    adjoint_input_gradients,
    best_dac,
    best_fixed_input,
    grid_oracle_fixed_input,
    regret_optimal_step_size,
    simulate,
    spectral_norm,
    spectral_radius_estimate,
    state_bound,
)
from olcontrol.linalg import as_array, batch_spectral_norms


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
        raise AssertionError("a bad array reached the descent")

    monkeypatch.setattr(benchmarks_mod, "_projected_descent", no_descent)
    with pytest.raises(InvalidInputError):
        call(ring_system, ring_u_box, arrays)


# (entry point, the scalar it spoils): not positive and finite, or h_mem < 1
BAD_SCALARS = [
    *[("dac_controller", name, bad) for name in ("eta_g", "radius") for bad in (np.nan, np.inf)],
    *[("regret_optimal_step_size", "l", bad) for bad in (np.nan, np.inf)],
    *[("best_dac", "radius", bad) for bad in (-1.0, 0.0, np.nan, np.inf)],
    *[("best_dac", "h_mem", bad) for bad in (0, -1)],
]


@pytest.mark.parametrize("entry, name, bad", BAD_SCALARS, ids=[f"{e}-{n}-{b!r}" for e, n, b in BAD_SCALARS])
def test_bad_scalar_rejected(ring_system, ring_u_box, monkeypatch, entry, name, bad):
    scalars = {"eta_g": 0.1, "radius": 1.0, "l": 2.0, "h_mem": 2}
    arrays = _clean_arrays()
    calls = {
        "dac_controller": lambda s: DacController(ring_system, ring_u_box, 3, s["eta_g"], s["radius"]),
        "regret_optimal_step_size": lambda s: regret_optimal_step_size(s["l"], 10, ring_system),
        "best_dac": lambda s: best_dac(ring_system, arrays["x1"], arrays["w_seq"], arrays["costs"],
                                       s["h_mem"], s["radius"]),
    }
    calls[entry](scalars)

    def no_descent(*args):
        raise AssertionError("a bad scalar reached the descent")

    monkeypatch.setattr(benchmarks_mod, "_projected_descent", no_descent)
    with pytest.raises(InvalidInputError):
        calls[entry]({**scalars, name: bad})

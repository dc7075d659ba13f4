"""Convex cost oracles: the quadratic family, shifted (nominal) costs, and
smoothness-constant estimation."""

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, as_vector, batch_spectral_norms
from .system import StateBound

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10         # smallest eigenvalue accepted as semidefinite


class CostOracle(ABC):
    """Value/gradient interface every cost implements."""

    @abstractmethod
    def value(self, x) -> float:
        ...

    @abstractmethod
    def grad(self, x) -> np.ndarray:
        ...


@dataclass(frozen=True)
class QuadraticCost(CostOracle):
    """f(x) = (x - c)^T Q (x - c) with symmetric PSD Q.

    Construction rejects a Q that is not symmetric to SYMMETRY_TOL
    (relative) or whose smallest eigenvalue (``np.linalg.eigvalsh``) is
    below PSD_TOL.
    """

    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.q, "Q")
        c = as_vector(self.c, "c")
        if q.shape[0] != q.shape[1] or q.shape[0] != c.shape[0]:
            raise InvalidInputError(
                f"Q must be square and match c: got Q {q.shape}, c {c.shape}"
            )
        asym = float(np.max(np.abs(q - q.T))) if q.size else 0.0
        if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise InvalidInputError(f"Q is not symmetric (max asymmetry {asym:.3e})")
        min_eig = float(np.linalg.eigvalsh(q)[0]) if q.size else 0.0
        if min_eig < PSD_TOL:
            raise InvalidInputError(
                f"Q is not positive semidefinite (smallest eigenvalue {min_eig:.3e})"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)

    def _check_dim(self, x) -> np.ndarray:
        x = as_vector(x, "x")
        if x.shape[0] != self.c.shape[0]:
            raise InvalidInputError(
                f"point has dimension {x.shape[0]}, cost expects {self.c.shape[0]}"
            )
        return x

    def value(self, x) -> float:
        d = self._check_dim(x) - self.c
        return float(d @ self.q @ d)

    def grad(self, x) -> np.ndarray:
        d = self._check_dim(x) - self.c
        return 2.0 * (self.q @ d)


class ShiftedCost(CostOracle):
    """g(x) = f(x + offset); gradients shift the same way (chain rule)."""

    def __init__(self, base: CostOracle, offset):
        self.base = base
        self.offset = as_vector(offset, "offset")

    def value(self, x) -> float:
        return self.base.value(np.asarray(x, dtype=float) + self.offset)

    def grad(self, x) -> np.ndarray:
        return self.base.grad(np.asarray(x, dtype=float) + self.offset)


def nominal_cost(cost: CostOracle, x_d) -> CostOracle:
    """Absorb a known state offset into the cost: g(x) = f(x + x_d)."""
    return ShiftedCost(cost, x_d)


@dataclass(frozen=True)
class SmoothnessParams:
    """Constants (L, D) with ||grad f(x)|| <= L*D whenever ||x|| <= D."""

    l: float
    d: float

    def __post_init__(self):
        if not (self.l > 0.0 and self.d > 0.0):
            raise InvalidInputError("smoothness constants must be positive")


def smoothness_constant(costs, bound: StateBound, c_max: float) -> SmoothnessParams:
    """Worst-case gradient scale of a quadratic batch over the D-ball.

    ``||2 Q (x - c)|| <= 2 ||Q|| (D + c_max)`` for ``||x|| <= D``, so
    L = 2 max_t ||Q_t|| (D + c_max) / D guarantees the L*D gradient bound.
    """
    costs = list(costs)
    if not costs:
        raise InvalidInputError("cost sequence is empty")
    shapes = {cost.q.shape for cost in costs}
    if len(shapes) != 1:
        raise InvalidInputError(f"cost batch mixes Q shapes {sorted(shapes)}")
    max_q = float(np.max(batch_spectral_norms(np.stack([cost.q for cost in costs]))))
    l = 2.0 * max_q * (bound.d + float(c_max)) / bound.d
    # all-zero cost batches would give L = 0 and an undefined step size;
    # clamp like the state bound does
    return SmoothnessParams(l=max(l, 1e-12), d=bound.d)


def finite_diff_grad(oracle: CostOracle, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient, the test oracle for analytic gradients."""
    x = as_vector(x, "x")
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    if h <= 0.0:
        raise InvalidInputError(f"step size must be positive, got {h}")
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (oracle.value(x + bump) - oracle.value(x - bump)) / (2.0 * h)
    return grad


def stack_quadratics(costs):
    """Stack a quadratic batch into (Q, C) arrays; None if any cost is not quadratic."""
    if not all(isinstance(c, QuadraticCost) for c in costs):
        return None
    qs = np.stack([c.q for c in costs])
    cs = np.stack([c.c for c in costs])
    return qs, cs


def quad_batch_values(qs: np.ndarray, cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per-step values f_t(x_t) of a stacked quadratic batch."""
    d = xs - cs
    return np.einsum("ti,tij,tj->t", d, qs, d)


def quad_batch_grads(qs: np.ndarray, cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per-step gradients 2 Q_t (x_t - c_t) of a stacked quadratic batch."""
    return 2.0 * np.einsum("tij,tj->ti", qs, xs - cs)

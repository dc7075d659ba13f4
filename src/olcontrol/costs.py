"""Quadratic costs f_t(x) = (x - c_t)^T Q_t (x - c_t): one step, a run's
batch of steps, and the smoothness constant of a batch."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_array, batch_spectral_norms, matvec, positive, real
from .system import StateBound

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10         # smallest eigenvalue accepted as semidefinite
NEAR_MAX = 1e-12         # relative window round the largest |eigenvalue| that L's SVD covers


def _check_quadratics(qs, cs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(qs, cs, eig_max): float stacks of shapes (T, N, N) and (T, N), T >= 1,
    and each Q_t's largest eigenvalue magnitude, shape (T,).

    Every entry must be finite, each Q_t symmetric to SYMMETRY_TOL
    (relative to its largest entry, at least 1) and its smallest
    eigenvalue (one batched ``np.linalg.eigvalsh``) at least PSD_TOL;
    otherwise InvalidInputError names the first failing step.
    """
    qs = np.asarray(qs, dtype=float)
    cs = np.asarray(cs, dtype=float)
    if qs.shape[:1] == (0,):
        raise InvalidInputError("cost batch is empty")
    if qs.ndim != 3 or qs.shape[1] != qs.shape[2] or cs.shape != qs.shape[:2]:
        raise InvalidInputError(
            f"need Q stacked (T, N, N) and c stacked (T, N): got Q {qs.shape}, c {cs.shape}"
        )
    finite = np.isfinite(qs).all(axis=(1, 2)) & np.isfinite(cs).all(axis=1)
    if not finite.all():
        raise InvalidInputError(f"cost at step {np.argmin(finite)} has non-finite entries")
    asym = np.abs(qs - qs.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    scale = np.abs(qs).max(axis=(1, 2), initial=1.0)
    bad = asym > SYMMETRY_TOL * scale
    if bad.any():
        t = np.argmax(bad)
        raise InvalidInputError(f"Q at step {t} is not symmetric (max asymmetry {asym[t]:.3e})")
    eigs = np.linalg.eigvalsh(qs)
    min_eig = eigs.min(axis=1, initial=0.0)
    bad = min_eig < PSD_TOL
    if bad.any():
        t = np.argmax(bad)
        raise InvalidInputError(
            f"Q at step {t} is not positive semidefinite (smallest eigenvalue {min_eig[t]:.3e})"
        )
    return qs, cs, np.abs(eigs).max(axis=1, initial=0.0)


def quadratic_grad(q: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """2 Q (x - c) of float arrays, unchecked: the kernel of
    :meth:`QuadraticCost.grad`.  Leading axes of q, c and x index runs."""
    return 2.0 * matvec(q, x - c)


@dataclass(frozen=True)
class QuadraticCost:
    """One step's cost f(x) = (x - c)^T Q (x - c) with symmetric PSD Q,
    checked on construction as a one-step batch."""

    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        q = as_array(self.q, "Q", (None, None))
        qs, cs, _ = _check_quadratics(q[None], as_array(self.c, "c", q.shape[:1])[None])
        object.__setattr__(self, "q", qs[0])
        object.__setattr__(self, "c", cs[0])

    @classmethod
    def view(cls, q, c) -> "QuadraticCost":
        """A cost on ``q`` and ``c`` as given, not re-checked: slices of a
        checked stack.  Leading axes index runs, one cost each, and ``grad``
        then takes one point per run."""
        cost = object.__new__(cls)
        object.__setattr__(cost, "q", q)
        object.__setattr__(cost, "c", c)
        return cost

    def value(self, x) -> float:
        d = as_array(x, "x", self.c.shape) - self.c
        return float(d @ self.q @ d)

    def grad(self, x) -> np.ndarray:
        """2 Q (x - c); leading axes of x index points (or runs)."""
        return quadratic_grad(self.q, self.c, as_array(x, "x", (..., self.c.shape[-1])))


class QuadraticBatch:
    """A run's costs f_t, t = 0..T-1, held as one (T, N, N) stack ``qs`` and
    one (T, N) stack ``cs`` and checked once, on construction.  The check's
    ``eigvalsh`` also gives ``eig_max``, each Q_t's largest |eigenvalue|,
    which :func:`smoothness_constant` reads."""

    def __init__(self, qs, cs):
        self.qs, self.cs, self.eig_max = _check_quadratics(qs, cs)

    def __len__(self) -> int:
        return self.qs.shape[0]

    @property
    def dim(self) -> int:
        return self.cs.shape[1]

    def __getitem__(self, t) -> QuadraticCost:
        """Step t as a QuadraticCost on views of the stacks (not re-checked)."""
        return QuadraticCost.view(self.qs[t], self.cs[t])

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Per-step values f_t(x_t) of a (T, N) trajectory."""
        d = as_array(xs, "trajectory", self.cs.shape) - self.cs
        return np.einsum("ti,tij,tj->t", d, self.qs, d)

    def grads(self, xs: np.ndarray) -> np.ndarray:
        """Per-step gradients 2 Q_t (x_t - c_t) of a (T, N) trajectory."""
        return 2.0 * np.einsum("tij,tj->ti", self.qs, as_array(xs, "trajectory", self.cs.shape) - self.cs)


def as_batch(costs) -> QuadraticBatch:
    """``costs`` as one QuadraticBatch: a batch as is, a list or tuple of
    QuadraticCost stacked; anything else raises InvalidInputError."""
    if isinstance(costs, QuadraticBatch):
        return costs
    if not isinstance(costs, (list, tuple)) or not all(isinstance(c, QuadraticCost) for c in costs):
        raise InvalidInputError("costs must be a QuadraticBatch or a list of QuadraticCost")
    shapes = [cost.q.shape for cost in costs]
    for t, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise InvalidInputError(f"cost list mixes Q shapes: {shape} at step {t}, {shapes[0]} at step 0")
    return QuadraticBatch(np.array([cost.q for cost in costs]), np.array([cost.c for cost in costs]))


def smoothness_constant(costs, bound: StateBound, c_max: float) -> float:
    """Worst-case gradient scale L of a quadratic batch over the D-ball,
    so that ``||grad f_t(x)|| <= L*D`` whenever ``||x|| <= D``.

    ``||2 Q (x - c)|| <= 2 ||Q|| (D + c_max)`` for ``||x|| <= D``, so
    L = 2 max_t ||Q_t|| (D + c_max) / D guarantees the L*D gradient bound.

    max_t ||Q_t|| is taken by SVD, but only over the steps whose ``eig_max``
    is within a relative NEAR_MAX of the largest.  That is exact: for a
    symmetric Q, ||Q||_2 = max |lambda|, and ``eigvalsh`` and the SVD are
    each backward stable, so each lands within a few ulps (about N * eps,
    far below 1e-12) of that common value.  A step outside the window
    therefore has a smaller SVD norm than the step with the largest
    ``eig_max``, and L has the bits of the SVD over every step.
    """
    c_max = real(positive=False)(c_max, "c_max")
    batch = as_batch(costs)
    near = batch.eig_max >= (1.0 - NEAR_MAX) * batch.eig_max.max()
    max_q = float(np.max(batch_spectral_norms(batch.qs[near])))
    l = 2.0 * max_q * (bound.d + c_max) / bound.d
    # all-zero cost batches would give L = 0 and an undefined step size;
    # clamp like the state bound does
    return max(l, 1e-12)


def finite_diff_grad(cost, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of anything with a ``value(x)`` method,
    the test oracle for analytic gradients."""
    x = as_array(x, "x", (None,))
    h = positive(1e-5 * (1.0 + float(np.linalg.norm(x))) if h is None else h, "step size")
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (cost.value(x + bump) - cost.value(x - bump)) / (2.0 * h)
    return grad

"""Linear time-invariant plant: simulation, stability certificates, and
steady-state geometry.

The plant is ``x_{t+1} = A x_t + B u_t + w_t`` with a strongly stable A.
Stability is certified from the norm decay of powers of A: the returned
(gamma, kappa) satisfy ``||A^k|| <= kappa * (1-gamma)**k``, which is the
only property the downstream bounds ever use.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NotStronglyStableError
from .linalg import as_array, count, matvec, positive, real, spectral_norm, spectral_radius_estimate

STABILITY_MARGIN = 0.05  # fraction of the stability gap reserved as margin
MIN_STATE_BOUND = 1e-12  # keeps the smoothness constant finite on trivial problems
RADIUS_POWER = 64        # power used for the certificate's radius estimate


@dataclass(frozen=True)
class StabilityCert:
    """Decay certificate: ``||A^k|| <= kappa * (1-gamma)**k`` for every k >= 0.

    The class only checks the ranges of gamma and kappa; the decay bound
    itself is what :func:`certify_strong_stability` proves before it
    builds one.
    """

    gamma: float
    kappa: float

    def __post_init__(self):
        gamma, kappa = positive(self.gamma, "gamma"), positive(self.kappa, "kappa")
        if gamma > 1.0:
            raise InvalidInputError(f"gamma must lie in (0, 1], got {gamma}")
        if kappa < 1.0:
            raise InvalidInputError(f"kappa must be >= 1, got {kappa}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned bounded box, used for both input and disturbance sets."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = as_array(self.lower, "lower", (None,))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", as_array(self.upper, "upper", lower.shape))
        if np.any(self.lower > self.upper):
            raise InvalidInputError("box lower bound exceeds upper bound")

    @classmethod
    def symmetric(cls, halfwidth: float, dim: int) -> "BoxSet":
        bound = real(positive=False)(halfwidth, "halfwidth") * np.ones(count(1)(dim, "dim"))
        return cls(-bound, bound)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def clamp(self, v: np.ndarray) -> np.ndarray:
        """``v`` clipped into the box, or InvalidInputError if it holds a NaN.

        An infinite entry clips to its bound, so one NaN check on the
        clipped result covers the input."""
        out = np.clip(v, self.lower, self.upper)
        if np.count_nonzero(np.isnan(out)):
            raise InvalidInputError("point to clamp contains NaN")
        return out

    def contains(self, v) -> bool:
        v = as_array(v, "point", (..., self.dim))
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

    def max_corner_norm(self) -> float:
        """2-norm of the largest-magnitude corner of the box."""
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))


def fit_box(box, dim: int, name: str) -> BoxSet:
    """``box`` if it is a BoxSet of ``dim`` coordinates, else InvalidInputError naming it."""
    if not isinstance(box, BoxSet):
        raise InvalidInputError(f"{name} must be a BoxSet, got {type(box).__name__}")
    if box.dim != dim:
        raise InvalidInputError(f"{name} has dimension {box.dim}; the plant needs {dim}")
    return box


@dataclass(frozen=True)
class StateBound:
    """Uniform bound D on the state norm along any admissible run."""

    d: float

    def __post_init__(self):
        object.__setattr__(self, "d", positive(self.d, "state bound"))


@dataclass(frozen=True)
class LtiSystem:
    """The plant ``x_{t+1} = A x_t + B u_t + w_t``; A is certified once,
    on construction, and ``cert`` keeps the certificate."""

    a: np.ndarray
    b: np.ndarray
    cert: StabilityCert = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_array(self.a, "A", (None, None))
        if a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"A must be square, got shape {a.shape}")
        b = as_array(self.b, "B", (a.shape[0], None))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "cert", certify_strong_stability(a))

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]

    @cached_property
    def steady_state_gain(self) -> np.ndarray:
        """The map S = (I - A)^{-1} B from constant inputs to steady states."""
        eye = np.eye(self.state_dim)
        return np.linalg.solve(eye - self.a, self.b)


def transition(sys: LtiSystem, x, u, w) -> np.ndarray:
    """One transition ``A x + B u + w`` of float arrays, unchecked: the
    kernel of :func:`step`, as :func:`rollout` is of :func:`simulate`.
    Leading axes of x, u and w index the same runs, each stepped with the
    bits of its own single transition."""
    return matvec(sys.a, x) + matvec(sys.b, u) + w


def step(sys: LtiSystem, x, u, w) -> np.ndarray:
    """One transition ``A x + B u + w``, each argument checked first; leading
    axes of x, u and w index the same runs."""
    x = as_array(x, "state", (..., sys.state_dim))
    u = as_array(u, "input", x.shape[:-1] + (sys.input_dim,))
    w = as_array(w, "disturbance", x.shape)
    return transition(sys, x, u, w)


def certify_strong_stability(a) -> StabilityCert:
    """Certify ``||A^k|| <= kappa * (1-gamma)**k`` for every k >= 0.

    gamma takes the radius estimate plus a 5% safety margin off the
    stability gap.  Powers are then scanned up to the first K with
    ``||A^K|| <= (1-gamma)**K``, and kappa is the smallest constant making
    the decay inequality hold for k = 0..K-1.  Every k = qK + r with
    0 <= r < K then follows by submultiplicativity:
    ``||A^k|| <= ||A^K||**q ||A^r|| <= kappa * (1-gamma)**k``.  Such a
    K <= RADIUS_POWER exists because ``||A^RADIUS_POWER||`` is the radius
    estimate to that power and 1-gamma exceeds the estimate; if roundoff
    defeats that, NotStronglyStableError is raised.  The zero matrix is
    the one case where gamma = 1 is valid (A^k = 0 for k >= 1).
    """
    a = as_array(a, "A", (None, None))
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"A must be square, got shape {a.shape}")
    if spectral_norm(a) == 0.0:
        return StabilityCert(gamma=1.0, kappa=1.0)
    radius = spectral_radius_estimate(a, RADIUS_POWER)
    if radius >= 1.0:
        raise NotStronglyStableError(
            f"the spectral radius estimate ||A^{RADIUS_POWER}||^(1/{RADIUS_POWER}) = {radius:.6g}, "
            "an upper bound on the spectral radius, is not below 1: the plant could not be "
            "certified strongly stable"
        )
    gamma = (1.0 - radius) * (1.0 - STABILITY_MARGIN)
    decay = 1.0 - gamma
    kappa = 1.0
    power = a
    for k in range(1, RADIUS_POWER + 1):
        ratio = spectral_norm(power) / decay**k
        if ratio <= 1.0:
            return StabilityCert(gamma=gamma, kappa=kappa)
        kappa = max(kappa, ratio)
        power = power @ a
    raise NotStronglyStableError(
        f"no power k <= {RADIUS_POWER} has ||A^k|| <= (1-gamma)^k with gamma = {gamma:.6g}; "
        "cannot certify strong stability"
    )


def steady_state_of_input(sys: LtiSystem, u) -> np.ndarray:
    """The state the plant settles at under constant input u (no disturbance)."""
    u = as_array(u, "input", (sys.input_dim,))
    return sys.steady_state_gain @ u


def _as_steps(seq, dim: int, name: str) -> np.ndarray:
    """``seq`` as (K, dim) rows, one per step: an empty list is zero steps
    and a single vector one step."""
    arr = as_array(seq, name, (...,))
    return as_array(np.empty((0, dim)) if arr.shape == (0,) else np.atleast_2d(arr), name, (None, dim))


def _check_sequences(sys: LtiSystem, x1, u_seq, w_seq):
    x1 = as_array(x1, "initial state", (sys.state_dim,))
    w_seq = _as_steps(w_seq, sys.state_dim, "disturbance sequence")
    if u_seq is not None:
        u_seq = _as_steps(u_seq, sys.input_dim, "input sequence")
        if u_seq.shape[0] != w_seq.shape[0]:
            raise InvalidInputError(
                f"input sequence has {u_seq.shape[0]} steps but disturbance sequence has {w_seq.shape[0]}"
            )
    return x1, u_seq, w_seq


def rollout(sys: LtiSystem, x0, w_seq, u_seq=None, out=None) -> np.ndarray:
    """States ``x_0 = x0``, ``x_{t+1} = A x_t (+ B u_t) + w_t``, unchecked.

    A state has ``x0``'s shape: a vector, or an (N, P) block to roll P
    forcings at once.  ``w_seq`` is (..., K) + x0.shape and ``u_seq``
    (..., K, M); leading axes index runs, all started from ``x0``, and the
    result is (..., K+1) + x0.shape.  A step is ``(A x_t + B u_t) + w_t``
    with ``B u_t`` formed per step, and every product is a stacked
    ``np.matmul`` with a vector as one column, so each run has the bits of
    its own rollout and of :func:`step`.  ``out``, if given, receives the
    states in place of a new array; ``w_seq`` may be ``out`` one step on,
    since each ``w_t`` is read as ``x_{t+1}`` is written.
    """
    x0 = np.asarray(x0, dtype=float)
    w_seq = np.asarray(w_seq, dtype=float)
    column = x0.reshape(x0.shape[:1] + (-1,))  # (N, P); a vector is one column
    lead = w_seq.shape[: w_seq.ndim - x0.ndim - 1]
    # stored run-major, so each run's trajectory is one contiguous block,
    # and stepped through time-major views, so step t indexes one axis
    w_steps = np.moveaxis(w_seq.reshape(lead + (-1,) + column.shape), -3, 0)
    u_steps = None if u_seq is None else np.moveaxis(u_seq, -2, 0)[..., None]
    shape = lead + (len(w_steps) + 1,) + column.shape
    states = np.empty(shape) if out is None else np.reshape(out, shape, copy=False)
    steps = np.moveaxis(states, -3, 0)
    steps[0] = column
    for t, w in enumerate(w_steps):
        x = np.matmul(sys.a, steps[t])
        if u_steps is not None:
            x += np.matmul(sys.b, u_steps[t])
        np.add(x, w, out=steps[t + 1])
    return states.reshape(lead + (len(w_steps) + 1,) + x0.shape)


def simulate(sys: LtiSystem, x1, u_seq, w_seq=None) -> np.ndarray:
    """Roll the plant forward; returns the (T, N) state trajectory.

    ``u_seq`` has T-1 rows; ``w_seq`` defaults to zeros.
    """
    u_seq = _as_steps(u_seq, sys.input_dim, "input sequence")
    if w_seq is None:
        w_seq = np.zeros((len(u_seq), sys.state_dim))
    x1, u_seq, w_seq = _check_sequences(sys, x1, u_seq, w_seq)
    return rollout(sys, x1, w_seq, u_seq)


def simulate_decomposed(sys: LtiSystem, x1, u_seq, w_seq):
    """Split a run into nominal and disturbance-driven parts.

    Returns (nominal, disturbed_part, full) trajectories, each (T, N):
    the nominal part evolves under the inputs alone (starting from x1),
    the disturbance part under the disturbances alone (starting from 0),
    and the full trajectory is their sum.
    """
    x1, u_seq, w_seq = _check_sequences(sys, x1, u_seq, w_seq)
    nominal = rollout(sys, x1, np.zeros_like(w_seq), u_seq)
    dist = rollout(sys, np.zeros(sys.state_dim), w_seq)
    return nominal, dist, nominal + dist


def state_bound(sys: LtiSystem, x1, u_set: BoxSet, w_set: BoxSet) -> StateBound:
    """Worst-case state norm over admissible inputs and disturbances.

    Sums the geometric series of decaying transition norms under the
    plant's certificate ``sys.cert``:
    ``D = kappa ||x1|| + (kappa/gamma) (||B|| u_max + w_max)``, clamped
    away from zero so downstream constants stay finite.
    """
    cert = sys.cert
    x1 = as_array(x1, "initial state", (sys.state_dim,))
    u_max = fit_box(u_set, sys.input_dim, "input box").max_corner_norm()
    w_max = fit_box(w_set, sys.state_dim, "disturbance box").max_corner_norm()
    d = cert.kappa * float(np.linalg.norm(x1))
    d += (cert.kappa / cert.gamma) * (spectral_norm(sys.b) * u_max + w_max)
    return StateBound(max(d, MIN_STATE_BOUND))

"""Online policies: the target-state controller (projected online gradient
descent over the steady-state manifold) and the disturbance-action baseline.

Both controllers follow the same round protocol: ``act`` is called with the
observed state and returns an admissible input, then ``observe`` delivers the
round's feedback (a cost gradient for the target-state controller, the full
cost for the disturbance-action one) together with the next state.

Either controller can also carry a leading run axis: R runs of the same
plant, each with its own state, iterate and feedback, advanced together.
Every run then sees exactly the floating-point operations it would see
alone (products go through :func:`~olcontrol.linalg.matvec` and stacked
``np.matmul``), so a run's trajectory does not depend on its companions.
"""

import math

import numpy as np

from .costs import QuadraticCost
from .errors import InvalidInputError, ProjectionFailureError
from .linalg import as_array, matvec, positive, row_norms, spectral_norm
from .system import BoxSet, LtiSystem

PROJECTION_MOVE_TOL = 1e-10   # stop the inner descent once iterates move less than this
PROJECTION_MAX_ITER = 5000    # a run still moving after this many steps fails
PROJECTION_TOL = 1e-7         # advertised accuracy of the computed projection
PROJECTION_BLOCK = 16         # steps taken between two stop tests of the projection


def _box_least_squares(s: np.ndarray, y: np.ndarray, u_set: BoxSet, step: float, u0) -> np.ndarray:
    """u in the box minimizing ||s u - y||^2, by fixed-step projected
    gradient descent from u0.

    Leading axes of y and u0 index runs, which iterate together.  The runs
    take PROJECTION_BLOCK steps at a time, and the stop rule is tested once
    per block: each run returns the iterate of its first step that moved it
    less than PROJECTION_MOVE_TOL, the one a test after every step returns
    and the one it reaches alone.  The steps it takes after that one, to
    the end of the block, are discarded.  The columns (``[..., None]``)
    keep every product a single matrix-vector one.

    Raises ProjectionFailureError if any run is still moving after
    PROJECTION_MAX_ITER steps, however little.
    """
    lower, upper = u_set.lower[:, None], u_set.upper[:, None]
    s_t = s.T
    y = y[..., None]
    # iterates of one block: iters[0] starts it, iters[i + 1] is its step i
    iters = np.empty((PROJECTION_BLOCK + 1,) + u0.shape + (1,))
    np.minimum(np.maximum(u0[..., None], lower), upper, out=iters[0])
    residual = np.empty(u0.shape[:-1] + y.shape[-2:])
    grad = np.empty(iters.shape[1:])
    u = np.empty(iters.shape[1:])  # each run's iterate once it has stopped
    pending = np.ones(u0.shape[:-1], dtype=bool)
    for start in range(0, PROJECTION_MAX_ITER, PROJECTION_BLOCK):
        k = min(PROJECTION_BLOCK, PROJECTION_MAX_ITER - start)
        for i in range(k):
            # u - step * (s_t @ (s @ u - y)), then max, then min: the
            # operations, and their order, of one step taken alone
            np.matmul(s, iters[i], out=residual)
            np.subtract(residual, y, out=residual)
            np.matmul(s_t, residual, out=grad)
            np.multiply(step, grad, out=grad)
            nxt = np.subtract(iters[i], grad, out=iters[i + 1])
            np.maximum(nxt, lower, out=nxt)
            np.minimum(nxt, upper, out=nxt)
        moved = row_norms((iters[1 : k + 1] - iters[:k])[..., 0])
        stops = pending & (moved < PROJECTION_MOVE_TOL)
        stopped = stops.any(axis=0)
        if stopped.any():
            first = stops.argmax(axis=0) + 1
            picked = np.take_along_axis(iters, first[None, ..., None, None], axis=0)[0]
            np.copyto(u, picked, where=stopped[..., None, None])
            pending &= ~stopped
        if not pending.any():
            return u[..., 0]
        iters[0] = iters[k]
    raise ProjectionFailureError(
        f"projection did not converge: still moving {np.max(moved[k - 1][pending]):.3e} "
        f"after {PROJECTION_MAX_ITER} iterations"
    )


def _projection_step(s: np.ndarray) -> float:
    """Step 1/||S||^2 of the steady-state projection; S = 0 has none."""
    norm = spectral_norm(s)
    if norm == 0.0:
        raise InvalidInputError("steady-state gain is zero: no input moves the steady state")
    return 1.0 / norm**2


def project_steady_state(sys: LtiSystem, u_set: BoxSet, y) -> np.ndarray:
    """Euclidean projection of y onto the steady-state manifold S(U).

    The manifold is parametrized by the input box, so the projection is a
    box-constrained least-squares problem in u, solved by projected
    gradient descent with step 1/lambda_max(S^T S).  The returned point is
    exactly of the form S u with u in the box.
    """
    y = as_array(y, "point", (sys.state_dim,))
    s = sys.steady_state_gain
    return s @ _box_least_squares(s, y, u_set, _projection_step(s), np.zeros(sys.input_dim))


def regret_optimal_step_size(l: float, t: int, sys: LtiSystem) -> float:
    """Regret-optimal step size 2*gamma / (L * sqrt(T * (1 + 4 kappa^2))),
    gamma and kappa from the plant's certificate ``sys.cert``."""
    l = positive(l, "smoothness constant")
    if t < 1:
        raise InvalidInputError(f"horizon must be at least 1, got {t}")
    cert = sys.cert
    return 2.0 * cert.gamma / (l * math.sqrt(t * (1.0 + 4.0 * cert.kappa**2)))


def estimate_disturbance(sys: LtiSystem, x, u, x_next) -> np.ndarray:
    """Recover the disturbance from one observed transition: x' - A x - B u.
    Leading axes of x, u and x' index the same runs."""
    x = as_array(x, "state", (..., sys.state_dim))
    u = as_array(u, "input", x.shape[:-1] + (sys.input_dim,))
    x_next = as_array(x_next, "next state", x.shape)
    return x_next - matvec(sys.a, x) - matvec(sys.b, u)


class OlcController:
    """Tracks a target steady state updated by projected gradient steps.

    The controller keeps an iterate z on the steady-state manifold.  Each
    round it plays the input holding the plant at z (independent of the
    observed state), and on receiving the cost gradient it takes one
    projected-OGD step: z <- Pi_X(z - eta * delta).

    A scalar ``eta`` runs one controller: states, z0 and z are (N,), inputs
    (M,).  An ``eta`` of shape (R,) runs R of them in lockstep, one step
    size each: z0 and z are (R, N), and states, gradients and inputs carry
    the same leading axis.
    """

    feedback = "gradient"

    def __init__(self, sys: LtiSystem, u_set: BoxSet, eta, z0=None):
        eta = as_array(eta, "step size", (...,))
        if not np.all(eta > 0.0):
            raise InvalidInputError(f"step size must be positive, got {eta}")
        if u_set.dim != sys.input_dim:
            raise InvalidInputError("input box dimension does not match the system")
        self.sys = sys
        self.u_set = u_set
        self.eta = eta
        s = sys.steady_state_gain
        self._step = _projection_step(s)
        shape = eta.shape + (sys.state_dim,)
        z0 = np.zeros(shape) if z0 is None else as_array(z0, "z0", shape)
        # start from the manifold point nearest the requested z0
        self._u = _box_least_squares(s, z0, u_set, self._step, np.zeros(eta.shape + (sys.input_dim,)))
        self.z = matvec(s, self._u)

    def act(self, x) -> np.ndarray:
        """Input holding the plant at the current target: ``S u = z``, u in the box.

        This is the input the projection found (``z = S u`` by
        construction).  When B has full column rank it is the only such
        input; when B is rank-deficient it need not be the minimum-norm
        solution of ``B u = (I - A) z``.
        """
        return self._u.copy()

    def observe(self, delta, x_next=None) -> None:
        """One projected gradient step on the target state."""
        delta = as_array(delta, "gradient", self.z.shape)
        target = self.z - self.eta[..., None] * delta
        # warm start at the previous inner minimizer; the projection problem
        # is strongly convex whenever B has full column rank, so the warm
        # start changes the iteration count, not the answer
        s = self.sys.steady_state_gain
        self._u = _box_least_squares(s, target, self.u_set, self._step, self._u)
        self.z = matvec(s, self._u)


def project_dac_blocks(blocks: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Scale each matrix block into its Frobenius ball of radius radii[i];
    ``blocks`` is (..., h_mem, M, N)."""
    norms = np.linalg.norm(blocks, axis=(-2, -1))
    scale = np.divide(radii, norms, out=np.ones_like(norms), where=(norms > radii) & (norms > 0.0))
    return blocks * scale[..., None, None]


def dac_radii(sys: LtiSystem, h_mem: int, radius: float) -> np.ndarray:
    """Per-block Frobenius radii radius * (1-gamma)^i, gamma from ``sys.cert``,
    for h_mem >= 1 blocks and a positive, finite radius."""
    if h_mem < 1:
        raise InvalidInputError(f"memory horizon must be >= 1, got {h_mem}")
    return positive(radius, "DAC radius") * (1.0 - sys.cert.gamma) ** np.arange(h_mem)


def dac_inputs(blocks: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Disturbance-action inputs sum_j M^[j-1] w_{t-j}, one per window.

    ``windows`` is (..., K, h_mem, N), each row of disturbances newest
    first, and ``blocks`` (..., h_mem, M, N); the result is (..., K, M).
    One product per block, summed in block order.
    """
    return np.matmul(windows.swapaxes(-3, -2), blocks.swapaxes(-1, -2)).sum(axis=-3)


class DacController:
    """Disturbance-action baseline: inputs are a learned linear function of
    the last ``h_mem`` disturbances.

    The blocks M^[0..h_mem-1] are updated by online gradient descent on a
    truncated surrogate state (the state the plant would be in had the
    current blocks generated the inputs over the recent past), then
    projected onto per-block Frobenius balls with radii decaying as
    radius * (1-gamma)^i, gamma from the plant's certificate ``sys.cert``.
    Disturbances are recovered exactly from observed transitions since A
    and B are known.

    With ``runs`` unset it runs one controller: blocks are (h_mem, M, N)
    and the history (2 h_mem + 1, N).  ``runs=R`` runs R of them in
    lockstep, sharing eta_g and the radii: blocks (R, h_mem, M, N), history
    (R, 2 h_mem + 1, N), and states, inputs and the cost's Q and c carry
    the leading axis.
    """

    feedback = "cost"

    def __init__(
        self,
        sys: LtiSystem,
        u_set: BoxSet,
        h_mem: int,
        eta_g: float,
        radius: float,
        runs: int | None = None,
    ):
        if u_set.dim != sys.input_dim:
            raise InvalidInputError("input box dimension does not match the system")
        self.sys = sys
        self.u_set = u_set
        self.h_mem = int(h_mem)
        self.eta_g = positive(eta_g, "eta_g")
        self.radii = dac_radii(sys, self.h_mem, radius)
        lead = () if runs is None else (int(runs),)
        self.blocks = np.zeros(lead + (self.h_mem, sys.input_dim, sys.state_dim))
        # newest-first ring of past disturbances, zero-padded for t <= 0;
        # the surrogate looks back 2*h_mem steps
        self.history = np.zeros(lead + (2 * self.h_mem + 1, sys.state_dim))
        # history[..., self._windows[i], :] is the window w_{t-i-1..t-i-h_mem}
        # that fed the input i steps back
        self._windows = np.arange(self.h_mem + 1)[:, None] + np.arange(1, self.h_mem + 1)
        # powers A^i and A^i B for i = 0..h_mem
        n = sys.state_dim
        self._a_pows = np.empty((self.h_mem + 1, n, n))
        self._a_pows[0] = np.eye(n)
        for i in range(1, self.h_mem + 1):
            self._a_pows[i] = self._a_pows[i - 1] @ sys.a
        self._ab_pows = self._a_pows @ sys.b
        self._last_x = None
        self._last_u = None

    def act(self, x) -> np.ndarray:
        """Play sum_i M^[i-1] w_{t-i}, clamped into the input box."""
        x = as_array(x, "state", (..., self.sys.state_dim))
        u = self.u_set.clamp(dac_inputs(self.blocks, self.history[..., None, : self.h_mem, :])[..., 0, :])
        self._last_x = x
        self._last_u = u
        return u

    def _gather_windows(self) -> np.ndarray:
        """The surrogate's h_mem + 1 disturbance windows from the history,
        (..., h_mem + 1, h_mem, N): window i fed the input i steps back."""
        return self.history[..., self._windows, :]

    def surrogate_state(self, blocks=None, windows=None) -> np.ndarray:
        """Truncated prediction of the current state under the given blocks
        (default: the current ones), from ``windows`` (default: gathered
        from the history)."""
        if blocks is None:
            blocks = self.blocks
        if windows is None:
            windows = self._gather_windows()
        # virtual inputs the blocks would have produced i steps back
        virtual = dac_inputs(blocks, windows)
        y = np.einsum("ikn,...in->...k", self._a_pows, self.history[..., : self.h_mem + 1, :])
        y += np.einsum("ikm,...im->...k", self._ab_pows, virtual)
        return y

    def surrogate_grad_blocks(self, delta: np.ndarray, windows=None) -> np.ndarray:
        """Gradient of cost(surrogate_state) with respect to each block."""
        if windows is None:
            windows = self._gather_windows()
        q = np.einsum("ikm,...k->...im", self._ab_pows, delta)  # (A^i B)^T delta
        return np.matmul(q.swapaxes(-1, -2)[..., None, :, :], windows.swapaxes(-3, -2))

    def update(self, cost: QuadraticCost) -> None:
        """One OGD step on the surrogate loss, then project the blocks; the
        state and its gradient share one gather of the windows."""
        windows = self._gather_windows()
        delta = cost.grad(self.surrogate_state(windows=windows))
        stepped = self.blocks - self.eta_g * self.surrogate_grad_blocks(delta, windows)
        self.blocks = project_dac_blocks(stepped, self.radii)

    def observe(self, cost: QuadraticCost, x_next) -> None:
        """Update the blocks from this round's cost, then record the
        disturbance revealed by the observed transition."""
        if self._last_x is None:
            raise InvalidInputError("observe called before act")
        self.update(cost)
        w = estimate_disturbance(self.sys, self._last_x, self._last_u, x_next)
        self.history = np.concatenate([w[..., None, :], self.history[..., :-1, :]], axis=-2)

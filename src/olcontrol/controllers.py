"""Online policies: the target-state controller (projected online gradient
descent over the steady-state manifold) and the disturbance-action baseline.

Both controllers follow the same round protocol: ``act`` is called with the
observed state and returns an admissible input, then ``observe`` delivers the
round's feedback (a cost gradient for the target-state controller, the full
cost for the disturbance-action one) together with the next state.

Either controller can also carry a leading run axis: R runs of the same
plant, each with its own state, iterate and feedback, advanced together.
Every run then sees exactly the floating-point operations it would see
alone (products go through :func:`~olcontrol.linalg.matvec`, stacked
``np.matmul`` and einsums), so a run's trajectory does not depend on its
companions.
"""

import math

import numpy as np

from .costs import QuadraticCost, quadratic_grad
from .errors import InvalidInputError, ProjectionFailureError
from .linalg import as_array, box_qp, count, matvec, positive, spectral_norm
from .system import BoxSet, LtiSystem, fit_box

PROJECTION_MOVE_TOL = 1e-10   # stop the inner descent once iterates move less than this
PROJECTION_MAX_ITER = 5000    # a run still moving after this many steps fails
PROJECTION_TOL = 1e-7         # advertised accuracy of the computed projection
PROJECTION_FIRST_CHUNK = 16  # a fresh solver's first chunk of steps, and the smallest
PROJECTION_SEGMENT_STEPS = 1024  # K, a segment's most steps, and so the longest chunk


class _BoxLeastSquares:
    """u in the box minimizing ||s u - y||^2, by fixed-step projected
    gradient descent u <- clip(P u + c), P = I - step s^T s, c = step s^T y,
    a chunk of steps at a time.

    A step's face records which coordinates its unclipped point P u + c
    puts below the box, above it, or inside.  On one face the step is
    affine with linear part L, P with the clamped rows zeroed, so from an
    anchor u_0 and its first step u_1 on that face, step j is
    u_j = u_1 + H_j (u_1 - u_0), H_j = L + ... + L^(j-1), and a clamped
    coordinate sits exactly on its bound.  Each face's H_1..H_K, K being
    PROJECTION_SEGMENT_STEPS, is built by doubling on its first visit and
    kept: one solver per (s, step, box) serves every call.

    A run's path is cut into segments.  A segment is anchored at the
    iterate u_0 where the path enters a face: its first step u_1 and its
    face's stack and span are set up once, and its steps j = 1..K are all
    taken from that anchor.  It ends at the run's stop, at the step whose
    next step leaves the face, at step K (the next segment is anchored at
    either), or at the cap.  Within a segment the steps are computed a
    chunk at a time: one stacked product gives the chunk's candidate
    steps, another their next steps, and the chunk keeps the candidates up
    to the first whose next step leaves the face: the fixed-step iterates
    in exact arithmetic.  The runs along the leading axes share each
    chunk's length: 4 times the last chunk, up to step K of the run
    furthest into its segment.  The first chunk of a call is a hint kept
    on the solver: the fewest steps a run took in the last call, rounded
    up to a power of two from PROJECTION_FIRST_CHUNK to K, so a call that
    takes about as many steps as the last one, under K, takes them in one
    pass.

    Chunking changes no bit: step j of a segment is the same product of
    H_j with the anchor's vectors whichever chunk holds it, and a run's
    steps do not depend on the chunk lengths its companions or the hint
    set.  Each run returns its iterate of the first step that moved it
    less than PROJECTION_MOVE_TOL, the step a test after every step stops
    at; a run still moving after PROJECTION_MAX_ITER steps, however
    little, raises ProjectionFailureError.  Runs along the leading axes
    each keep the bits they have alone.

    The steps are innermost.  A face's stack is kept as (M, M, K), and a
    chunk's candidates, next steps, face-leave test and moves are (R, M, k)
    arrays.  numpy's inner loop runs over the last axis, so each op runs
    along the chunk's k steps, not over the M coordinates of one step, and a
    step's bits do not depend on its place in the chunk.  Each sum
    over the coordinates adds its terms in order, from zero, so for M <= 2
    the iterates have the bits of the same products laid out (R, k, M),
    coordinates innermost; for larger M numpy's einsum adds such a sum in
    another order.  A move, the root of a sum of squares, can differ in
    its last bit from a BLAS dot product of the step with itself (which
    may fuse a multiply and an add); that changes a stop only for a move
    within one rounding of the tolerance.
    """

    def __init__(self, s: np.ndarray, u_set: BoxSet, step: float):
        m = s.shape[1]
        self.u_set = u_set
        self._p = np.eye(m) - step * (s.T @ s)
        self._st = step * s.T
        self._digits = 3 ** np.arange(m)
        # a face's code has a base-3 digit per coordinate: how many of its two
        # marks the unclipped step exceeds, 0 clamping it low, 1 leaving it
        # free, 2 clamping it high.  The marks are the float under the lower
        # bound (v > it is v >= lower) and the upper bound; edges pads them
        under = [math.nextafter(b, -math.inf) for b in u_set.lower]
        self._edges = np.array([[-math.inf, a, b, math.inf] for a, b in zip(under, u_set.upper)])
        self._marks = self._edges[:, 1:3]
        self._weights = 3 ** (np.arange(2 * m) // 2)  # each coordinate's digit weight, once per mark
        # face code -> its row of the tables; a face not yet visited maps past their end
        self._row = np.full(3**m, 3**m)
        self._table = np.empty((0, m, m, PROJECTION_SEGMENT_STEPS))  # H_1..H_K of each face visited, steps last
        self._spans = np.empty((0, 2, m, 1))  # the edges a step on each face stays between
        self._first_chunk = PROJECTION_FIRST_CHUNK  # the hint: never moves an output

    def _build(self, face: int) -> np.ndarray:
        """H_1..H_K of one face, (K, M, M), by doubling: H_(k+j) = H_k + L^k (I + H_j)."""
        free = face // self._digits % 3 == 1
        power = np.where(free[:, None], self._p, 0.0)  # L^k, from L = P with clamped rows zeroed
        h = np.zeros((self._table.shape[-1],) + self._p.shape)
        k = 1
        while k < len(h):
            n = min(k, len(h) - k)
            h[k : k + n] = h[k - 1] + power + power @ h[:n]
            power = power @ power
            k *= 2
        return h

    def _faces(self, faces: np.ndarray) -> tuple:
        """The table row of each face code in ``faces``, (R,), and its span,
        (R, 2, M, 1); a face's first visit builds both and adds them to the
        tables."""
        rows = self._row[faces]
        try:
            return rows, self._spans[rows]
        except IndexError:  # a face not visited before
            pass
        for face in faces.tolist():
            if self._row[face] == len(self._row):
                self._row[face] = len(self._table)
                self._table = np.concatenate([self._table, self._build(face).transpose(1, 2, 0)[None]])
                # a step keeps a coordinate of digit d above edge d and up to edge d + 1
                digits = face // self._digits % 3
                span = self._edges[np.arange(len(digits)), digits + [[0], [1]]]
                self._spans = np.concatenate([self._spans, span[None, :, :, None]])
        return self._faces(faces)

    def _anchor(self, u: np.ndarray, c: np.ndarray) -> tuple:
        """A segment set up at each run's iterate u: its first step, the
        first step less u, and its face's table row and span."""
        v = matvec(self._p, u) + c
        rows, span = self._faces((v[:, :, None] > self._marks).reshape(len(v), -1) @ self._weights)
        first = np.minimum(np.maximum(v, self.u_set.lower), self.u_set.upper)
        return first, first - u, rows, span

    def __call__(self, y: np.ndarray, u0) -> np.ndarray:
        """The solution for each run of y (..., N), from u0 (..., M), both
        with the same leading axes."""
        last = PROJECTION_SEGMENT_STEPS
        out = np.empty(np.shape(u0))
        m = out.shape[-1]
        flat = out.reshape(-1, m)  # a view, one row per run
        # the pending runs: their rows of flat, iterates and constants, their
        # segments (first step, first step less anchor, face row and span)
        # and two counters: the step each is at in its segment (None in the
        # first chunk, each at its anchor) and the steps it took before the chunk
        runs = np.arange(len(flat))
        u = np.minimum(np.maximum(np.reshape(u0, (-1, m)), self.u_set.lower), self.u_set.upper)
        c = matvec(self._st, y).reshape(-1, m)
        first, d, rows, span = self._anchor(u, c)
        step, taken, k = None, 0, self._first_chunk
        reach = 0  # the most steps a run can have taken by the end of the chunk
        fewest = PROJECTION_MAX_ITER  # the fewest steps a stopped run took
        stuck = []  # the last move of each run still moving at the cap
        # every chunk takes at least one step of each pending run, so the cap ends the loop
        while True:
            if step is None:
                h = self._table[rows, :, :, :k]
            else:
                # H_(i+1)..H_(i+k) of each face at [face, :, :, i]: a strided view
                t = self._table
                windows = np.ndarray(t.shape[:3] + (last - k + 1, k), t.dtype, t, 0, t.strides + t.strides[-1:])
                h = windows[rows, :, :, step]
            # every array of steps is (R, M, k), the steps last, so each op
            # runs along them; walk[:, :, j] is the chunk's step j, u being step 0
            walk = np.empty((len(runs), m, k + 1))
            walk[:, :, 0] = u
            # the candidates, sum_l H_j[:, l] d_l from zero, then + first
            cand = np.einsum("rilk,rl->rik", h, d, out=walk[:, :, 1:])
            cand += first[:, :, None]
            nxt = np.einsum("il,rlk->rik", self._p, cand)
            nxt += c[:, :, None]
            leaves = ((nxt <= span[:, 0]) | (nxt > span[:, 1])).any(axis=1)
            steps = cand - walk[:, :, :-1]
            moves = np.sqrt(np.einsum("rik,rik->rk", steps, steps))
            small = moves < PROJECTION_MOVE_TOL
            # each run ends the chunk at its first step that moves less than
            # the tolerance or leaves the face, at the chunk's last step, or
            # at the cap if this chunk can take a run there
            ends = small | leaves
            ends[:, -1] = True
            at = ends.argmax(axis=1)
            reach += k
            if reach >= PROJECTION_MAX_ITER:
                at = np.minimum(at, PROJECTION_MAX_ITER - 1 - taken)
            pending = np.arange(len(runs))
            u = cand[pending, :, at]
            flat[runs] = u
            stops = small[pending, at]
            if reach >= PROJECTION_MAX_ITER:
                capped = taken + at == PROJECTION_MAX_ITER - 1
                stuck.extend(moves[pending, at][capped & ~stops])
                stops |= capped
            stopped = np.count_nonzero(stops)
            if stopped:
                # while reach is the first size, every run took at most that
                # many steps, and the hint is the first size
                fewest = min(fewest, int((taken + at)[stops].min()) + 1 if reach > PROJECTION_FIRST_CHUNK else 0)
                if stopped == len(runs):
                    break
            # the runs that go on: a segment ends where its next step leaves
            # the face or at step K, and the next one is anchored there
            taken, step = taken + at + 1, at + 1 if step is None else step + at + 1
            fresh = leaves[pending, at] | (step == last)
            if stopped:
                going = ~stops
                runs, u, c, taken, step, fresh, first, d, rows, span = (
                    v[going] for v in (runs, u, c, taken, step, fresh, first, d, rows, span))
            if fresh.any():
                first[fresh], d[fresh], rows[fresh], span[fresh] = self._anchor(u[fresh], c[fresh])
                step[fresh] = 0
            # 4 times this chunk, up to step K of the run furthest into its segment
            k = min(4 * k, last - step.max())
        if stuck:
            raise ProjectionFailureError(
                f"projection did not converge: still moving {max(stuck):.3e} "
                f"after {PROJECTION_MAX_ITER} iterations"
            )
        # the next call's first chunk: the fewest steps a run took, rounded up to a power of two in [16, K]
        self._first_chunk = min(max(PROJECTION_FIRST_CHUNK, 1 << (fewest - 1).bit_length()), last)
        return out


def _projection_step(s: np.ndarray) -> float:
    """Step 1/||S||^2 of the steady-state projection; S = 0 has none."""
    norm = spectral_norm(s)
    if norm == 0.0:
        raise InvalidInputError("steady-state gain is zero: no input moves the steady state")
    return 1.0 / norm**2


def project_steady_state(sys: LtiSystem, u_set: BoxSet, y) -> np.ndarray:
    """Euclidean projection of y onto the steady-state manifold S(U).

    The manifold is parametrized by the input box, so the projection is
    the box-constrained least-squares problem min ||S u - y||^2 in u,
    solved exactly by :func:`~olcontrol.linalg.box_qp` on H = S^T S and
    g = -S^T y, with no tolerance or iteration cap; a rank-deficient S is
    solved too.  The returned point is exactly of the form S u with u in
    the box.
    """
    y = as_array(y, "point", (sys.state_dim,))
    u_set = fit_box(u_set, sys.input_dim, "input box")
    s = sys.steady_state_gain
    return s @ box_qp(s.T @ s, -(s.T @ y), u_set.lower, u_set.upper)


def regret_optimal_step_size(l: float, t: int, sys: LtiSystem) -> float:
    """Regret-optimal step size 2*gamma / (L * sqrt(T * (1 + 4 kappa^2))),
    gamma and kappa from the plant's certificate ``sys.cert``."""
    l = positive(l, "smoothness constant")
    t = count(1)(t, "horizon")
    cert = sys.cert
    return 2.0 * cert.gamma / (l * math.sqrt(t * (1.0 + 4.0 * cert.kappa**2)))


def transition_residual(sys: LtiSystem, x, u, x_next) -> np.ndarray:
    """x' - A x - B u of float arrays, unchecked: the kernel of
    :func:`estimate_disturbance`.  Leading axes index the same runs."""
    return x_next - matvec(sys.a, x) - matvec(sys.b, u)


def estimate_disturbance(sys: LtiSystem, x, u, x_next) -> np.ndarray:
    """Recover the disturbance from one observed transition: x' - A x - B u,
    each argument checked first.  Leading axes of x, u and x' index the
    same runs."""
    x = as_array(x, "state", (..., sys.state_dim))
    u = as_array(u, "input", x.shape[:-1] + (sys.input_dim,))
    return transition_residual(sys, x, u, as_array(x_next, "next state", x.shape))


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
        # entry by entry, as Python objects: a bool or a str is no step size
        entries = np.asarray(eta, dtype=object)
        eta = np.array([positive(e, "step size") for e in entries.flat]).reshape(entries.shape)
        if eta.size == 0:
            raise InvalidInputError("step size has no entries: no runs to play")
        self.sys = sys
        self.u_set = fit_box(u_set, sys.input_dim, "input box")
        self.eta = eta
        s = sys.steady_state_gain
        self._project = _BoxLeastSquares(s, self.u_set, _projection_step(s))
        shape = eta.shape + (sys.state_dim,)
        z0 = np.zeros(shape) if z0 is None else as_array(z0, "z0", shape)
        # start from the manifold point nearest the requested z0
        self._u = self._project(z0, np.zeros(eta.shape + (sys.input_dim,)))
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
        # warm start at the previous inner minimizer.  It saves steps and moves
        # the answer: the stop rule returns an iterate whose distance from the
        # exact projection (up to 4.5e-9 on a cond S 7.4 plant) depends on the
        # start.  The solver keeps the face stacks of every earlier round
        self._u = self._project(target, self._u)
        self.z = matvec(self.sys.steady_state_gain, self._u)


def project_dac_blocks(blocks: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Scale each matrix block into its Frobenius ball of radius radii[i] >= 0;
    ``blocks`` is (..., h_mem, M, N).  A block outside its ball has a
    positive norm, so it is the only one divided by its norm."""
    # the Frobenius norm as np.linalg.norm takes it of real blocks, with its bits
    norms = np.sqrt(np.add.reduce(blocks * blocks, axis=(-2, -1)))
    scale = np.divide(radii, norms, out=np.ones_like(norms), where=norms > radii)
    return blocks * scale[..., None, None]


def dac_radii(sys: LtiSystem, h_mem: int, radius: float) -> np.ndarray:
    """Per-block Frobenius radii radius * (1-gamma)^i, gamma from ``sys.cert``,
    for an integer h_mem >= 1 of blocks and a positive, finite radius."""
    h_mem = count(1)(h_mem, "memory horizon")
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

    A round is the round protocol's ``act(x)``, a check of the state and
    then :meth:`_play`, the input; and ``observe(cost, x_next)``, the
    disturbance recovered from the transition (the drawn one up to
    roundoff, since A and B are known) and then :meth:`_learn` from the
    cost and that disturbance.  ``_play`` and ``_learn`` see no state, so a
    caller that already holds the disturbances can alternate them without
    stepping the plant, as ``harness.run_lockstep`` does for kind "dac".

    The surrogate state is affine in the blocks: with the newest-first
    ``history`` w_{t-1}, w_{t-2}, ... it is
    sum_i A^i history[i] + features @ vec(M), i = 0..h_mem, where
    ``features`` (N, h_mem M N) holds one (N, M N) block per memory block,
    block j = sum_i (A^i B) (x) w_{t-i-j-2}, i = 0..h_mem.  Both start at
    zero, and only ``_learn`` advances them: a new disturbance shifts
    every block one place, so it computes only block 0, from
    ``history[1:]``.  The history keeps the h_mem + 2 disturbances a round
    reads.  A round's surrogate state and its gradient
    ``features^T delta`` are then one product each.

    With ``runs`` unset it runs one controller: blocks are (h_mem, M, N),
    the history (h_mem + 2, N) and the features (N, h_mem M N).
    ``runs=R``, an integer >= 1, runs R of them in lockstep, sharing eta_g
    and the radii: every one of these arrays, and states, inputs and the
    cost's Q and c, carry a leading axis of length R.
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
        self.sys = sys
        self.u_set = fit_box(u_set, sys.input_dim, "input box")
        self.radii = dac_radii(sys, h_mem, radius)
        self.h_mem = len(self.radii)
        self.eta_g = positive(eta_g, "eta_g")
        self._lead = () if runs is None else (count(1)(runs, "runs"),)
        n, m = sys.state_dim, sys.input_dim
        self.blocks = np.zeros(self._lead + (self.h_mem, m, n))
        # powers A^i, i = 0..h_mem, side by side: [A^0 | A^1 | ... | A^h_mem]
        a_pows = np.empty((self.h_mem + 1, n, n))
        a_pows[0] = np.eye(n)
        for i in range(1, self.h_mem + 1):
            a_pows[i] = a_pows[i - 1] @ sys.a
        self._a_row = a_pows.transpose(1, 0, 2).reshape(n, -1)
        # (A^i B)[k, m] at row k M + m, column i
        self._ab_cols = (a_pows @ sys.b).transpose(1, 2, 0).reshape(n * m, -1)
        # past disturbances, newest first, zero for t <= 0: act reads rows
        # :h_mem, the surrogate :h_mem + 1 and the newest feature block 1:
        self.history = np.zeros(self._lead + (self.h_mem + 2, n))
        self.features = np.zeros(self._lead + (n, self.h_mem * m * n))
        self._last_x = None
        self._last_u = None

    def act(self, x) -> np.ndarray:
        """Play :meth:`_play`'s input.  ``x`` is checked here, where it
        enters; the input is computed from checked arrays, and the round
        loop checks it as it leaves."""
        x = as_array(x, "state", self._lead + (self.sys.state_dim,))
        u = self._play()
        self._last_x = x
        self._last_u = u
        return u

    def _play(self) -> np.ndarray:
        """sum_i M^[i-1] w_{t-i}, clipped into the input box: the input,
        which reads only the blocks and the disturbances of past rounds."""
        played = dac_inputs(self.blocks, self.history[..., None, : self.h_mem, :])[..., 0, :]
        return played.clip(self.u_set.lower, self.u_set.upper)

    def surrogate_state(self) -> np.ndarray:
        """Truncated prediction of the current state under the current blocks."""
        recent = self.history[..., : self.h_mem + 1, :].reshape(self._lead + (-1,))
        return matvec(self._a_row, recent) + matvec(self.features, self.blocks.reshape(self._lead + (-1,)))

    def surrogate_grad_blocks(self, delta: np.ndarray) -> np.ndarray:
        """Gradient of cost(surrogate_state) with respect to each block,
        ``features^T delta`` in the blocks' shape."""
        return matvec(self.features.swapaxes(-1, -2), delta).reshape(self.blocks.shape)

    def observe(self, cost: QuadraticCost, x_next) -> None:
        """Recover the disturbance revealed by the transition from the state
        ``act`` saw, then :meth:`_learn` from it.  Each ``act`` serves one
        ``observe``."""
        if self._last_x is None:
            raise InvalidInputError("observe called before act")
        # x_next is checked where it enters; the products after it are not
        x_next = as_array(x_next, "next state", self._last_x.shape)
        w = transition_residual(self.sys, self._last_x, self._last_u, x_next)
        self._last_x = self._last_u = None
        self._learn(cost, w)

    def _learn(self, cost: QuadraticCost, w: np.ndarray) -> None:
        """One OGD step on the surrogate loss of this round's cost, with the
        blocks projected back onto their balls; then record the round's
        disturbance ``w`` and shift the features one block.  No state is
        read: with A and B known, the round is fixed by the costs and the
        disturbances."""
        delta = quadratic_grad(cost.q, cost.c, self.surrogate_state())
        stepped = self.blocks - self.eta_g * self.surrogate_grad_blocks(delta)
        self.blocks = project_dac_blocks(stepped, self.radii)
        self.history = np.concatenate([w[..., None, :], self.history[..., :-1, :]], axis=-2)
        # block 0, sum_i (A^i B) (x) history[i + 1]: one product of the
        # (A^i B) columns with h_mem + 1 history rows
        n, m = self.sys.state_dim, self.sys.input_dim
        newest = np.matmul(self._ab_cols, self.history[..., 1:, :]).reshape(self._lead + (n, m * n))
        self.features = np.concatenate([newest, self.features[..., : -m * n]], axis=-1)

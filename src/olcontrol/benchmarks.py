"""Offline best-in-hindsight solvers defining the regret baselines.

With quadratic costs, each hindsight problem (best fixed input, best
steady state, best disturbance-action blocks) is a small quadratic in its
decision variable, because the trajectory is affine in it.  Each solver
assembles that quadratic once, f(x) = x^T H x + 2 g^T x + k, from the
per-step costs and the state's response to the decision variable, and
then minimizes the assembled model over its feasible set; no solve
simulates the plant.  The two box problems (fixed input, steady state)
are solved exactly by :func:`~olcontrol.linalg.box_qp`, which enumerates
the input box's faces; the DAC blocks, in their Frobenius balls, by
projected descent with a backtracking line search.  The optimum is
simulated once, and the model's value there is kept beside the realized
cost, so a wrong assembly shows as a gap between them.  The solvers take
the costs as one QuadraticBatch (or a list of QuadraticCost, stacked once
on entry).  :func:`solve_benchmarks` solves many runs of one plant in one
batched pass: every rollout over a leading run axis, each assembly and box
solve per run, and the DAC descents in lockstep; the one-run solvers are
its one-run case.  A brute-force grid oracle validates the fixed-input
solver on low-dimensional inputs.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .controllers import dac_inputs, dac_radii, project_dac_blocks
from .costs import QuadraticBatch, as_batch
from .errors import InvalidInputError, UnsupportedDimensionError
from .linalg import box_qp, count, matvec
from .system import BoxSet, LtiSystem, _check_sequences, fit_box, rollout

DESCENT_MOVE_TOL = 1e-9
DESCENT_MAX_ITER = 20_000
GRID_MAX_RESOLUTION = 400


@dataclass
class BenchmarkResult:
    """Solution of one hindsight problem.

    ``optimizer`` is the argmin (an input, a steady state, or a stack of
    disturbance-action blocks); ``step_costs`` are the per-step costs of
    the optimizer's trajectory, which regret curves are computed against,
    and ``value`` is their sum.  ``value_nominal`` is the value at the
    optimum of the quadratic the solver minimized, assembled from the
    nominal trajectory and the costs' centres shifted by it, so it matches
    ``value`` only if that model is the cost of the realized trajectory.
    A box solve's ``iterations`` is the 3^M faces it enumerated and its
    ``converged`` is always True; a DAC descent reports its iterations,
    and ``converged`` is False if it stopped at DESCENT_MAX_ITER.
    """

    optimizer: np.ndarray
    value: float
    iterations: int
    converged: bool
    step_costs: np.ndarray = field(repr=False)
    value_nominal: float


def _check_costs(sys: LtiSystem, costs) -> QuadraticBatch:
    costs = as_batch(costs)
    if costs.dim != sys.state_dim:
        raise InvalidInputError(f"costs act on {costs.dim} states; the system has {sys.state_dim}")
    return costs


def _check_problem(sys: LtiSystem, x1, w_seq, costs, u_seq=None):
    """(x1, u_seq, w_seq, costs) checked against the plant, with the costs
    as one batch of one more step than w_seq; InvalidInputError otherwise."""
    costs = _check_costs(sys, costs)
    x1, u_seq, w_seq = _check_sequences(sys, x1, u_seq, w_seq)
    if len(costs) != w_seq.shape[0] + 1:
        raise InvalidInputError(f"got {len(costs)} costs for {w_seq.shape[0]} steps; need one more cost")
    return x1, u_seq, w_seq, costs


def _adjoint_states(sys: LtiSystem, grads: np.ndarray) -> np.ndarray:
    """Backward recursion lambda_t = grad_t + A^T lambda_{t+1}."""
    horizon = grads.shape[0]
    lam = np.empty_like(grads)
    lam[horizon - 1] = grads[horizon - 1]
    at = sys.a.T
    for t in range(horizon - 2, -1, -1):
        lam[t] = grads[t] + at @ lam[t + 1]
    return lam


def adjoint_input_gradients(sys: LtiSystem, x1, u_seq, w_seq, costs) -> np.ndarray:
    """Gradients of the trajectory cost with respect to each input.

    Simulates forward, runs the adjoint recursion backward, and returns
    the (T-1, M) array with row t-1 equal to B^T lambda_{t+1}.
    """
    x1, u_seq, w_seq, costs = _check_problem(sys, x1, w_seq, costs, u_seq)
    states = rollout(sys, x1, w_seq, u_seq)
    lam = _adjoint_states(sys, costs.grads(states))
    return lam[1:] @ sys.b


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each run's rows of the (R, P) ``a`` and ``b``,
    with the bits of ``np.vdot`` on that run's vectors alone."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _projected_descent(models: list["_Quadratic"], project, x0):
    """Projected gradient descent with a backtracking line search, on every
    run's model at once.

    Each iteration starts from a Barzilai-Borwein trial step (the inverse
    Rayleigh quotient of the last displacement, a cheap curvature probe)
    and halves it until the quadratic upper model holds at the projected
    candidate, which keeps the objective monotone.  A run stops once an
    iteration moves it less than DESCENT_MOVE_TOL, or after DESCENT_MAX_ITER
    iterations.  The runs go in lockstep, each pass one trial step of every
    run still going: each run keeps its own step, backtracking and stop
    test, and every product is taken run by run, so a run has the bits of
    its descent alone.  ``project`` maps a stack of points, (R,) + x0.shape,
    into the feasible set.  Returns (xs, iterations, converged), each with
    a leading axis of R = ``len(models)``.
    """
    runs = len(models)
    xs = project(np.broadcast_to(x0, (runs,) + np.shape(x0)))
    iterations = np.zeros(runs, dtype=int)
    converged = np.zeros(runs, dtype=bool)
    # the runs still going: their rows of the results, models and iterates
    rows, x, its, step = np.arange(runs), xs, np.zeros(runs, dtype=int), np.ones(runs)
    h = np.stack([model.h for model in models])
    lin = np.stack([model.g for model in models])
    lin2, k = 2.0 * lin, np.array([model.k for model in models])
    f, g = _value_and_grad(h, lin, lin2, k, x.reshape(runs, -1))
    while rows.size:
        lead = (len(rows),) + (1,) * (x.ndim - 1)
        cand = project(x - step.reshape(lead) * g.reshape(x.shape))
        d = (cand - x).reshape(len(rows), -1)
        f_cand, g_cand = _value_and_grad(h, lin, lin2, k, cand.reshape(len(rows), -1))
        dd = _dots(d, d)
        accept = f_cand <= f + (_dots(g, d) + 0.5 / step * dd) + 1e-12 * (1.0 + np.abs(f))
        # a run whose candidate fails halves its step and tries again, until
        # the step is spent; the others move to their candidate
        step = np.where(accept, step, step * 0.5)
        moves = accept | (step < 1e-18)
        sty = _dots(d, g_cand - g)
        step = np.divide(dd, sty, out=np.where(moves, step * 2.0, step), where=moves & (sty > 0.0))
        x = np.where(moves.reshape(lead), cand, x)
        f = np.where(moves, f_cand, f)
        g = np.where(moves[:, None], g_cand, g)
        its += moves
        stopped = moves & (np.sqrt(dd) < DESCENT_MOVE_TOL)
        done = stopped | (its == DESCENT_MAX_ITER)
        if np.count_nonzero(done):
            ended = rows[done]
            xs[ended], iterations[ended], converged[ended] = x[done], its[done], stopped[done]
            keep = ~done
            rows, x, f, g, step, its, h, lin, lin2, k = (
                a[keep] for a in (rows, x, f, g, step, its, h, lin, lin2, k)
            )
    return xs, iterations, converged


def _value_and_grad(h, lin, lin2, k, v):
    """Each run's value v^T H v + 2 g^T v + k and gradient 2 (H v + g), from
    the stacks ``h`` (R, P, P), ``lin`` = g (R, P), ``lin2`` = 2 g and ``k``
    (R,), at the (R, P) points ``v``: the bits of :class:`_Quadratic` on
    each run alone."""
    hv = matvec(h, v)
    return _dots(v, hv + lin2) + k, 2.0 * (hv + lin)


@dataclass(frozen=True)
class _Quadratic:
    """f(x) = x^T H x + 2 g^T x + k over the flattened decision variable."""

    h: np.ndarray
    g: np.ndarray
    k: float

    def value(self, x) -> float:
        v = np.ravel(x)
        return float(v @ (self.h @ v + 2.0 * self.g)) + self.k


def _assemble_quadratic(costs: QuadraticBatch, offsets, response, n_blocks: int = 1) -> _Quadratic:
    """Assemble sum_t f_t(x_t) as a quadratic in the decision variable.

    The trajectory is x_t = offsets[t] + sum_j J_t^(j) x^(j), where the
    decision variable splits into ``n_blocks`` blocks of P entries and
    block j acts through the (T, N, P) ``response`` delayed by j steps:
    J_t^(j) = response[t - j], and zero for t < j.  Only that one response
    is stored, never the full (T, N, n_blocks * P) Jacobian.
    """
    qs, cs = costs.qs, costs.cs
    horizon, _, p = response.shape
    d = offsets - cs
    qd = np.einsum("tij,tj->ti", qs, d)
    h = np.zeros((n_blocks, p, n_blocks, p))
    g = np.zeros((n_blocks, p))
    for b in range(min(n_blocks, horizon)):
        # Q_t J_t^(b) for t >= b, rows ordered by (t, state)
        q_resp = np.matmul(qs[b:], response[: horizon - b]).reshape(-1, p)
        for a in range(b + 1):
            block = response[b - a : horizon - a].reshape(-1, p).T @ q_resp
            h[a, :, b] = block
            h[b, :, a] = block.T
        g[b] = response[: horizon - b].reshape(-1, p).T @ qd[b:].ravel()
    size = n_blocks * p
    return _Quadratic(h=h.reshape(size, size), g=g.ravel(), k=float(np.vdot(d, qd)))


@dataclass
class _Runs:
    """R hindsight problems on one plant: each run's checked costs and, for
    the solvers that simulate, its disturbances, stacked as ``ws``
    (R, T-1, N), every run starting from ``x1``."""

    sys: LtiSystem
    costs: list[QuadraticBatch]
    x1: np.ndarray | None = None
    ws: np.ndarray | None = None

    @cached_property
    def free(self) -> np.ndarray:
        """The free response x_t^0 of every run: no input, its own disturbances."""
        return rollout(self.sys, self.x1, self.ws)


def _runs(sys: LtiSystem, x1, draws, horizon: int | None = None) -> _Runs:
    """``draws``' (w_seq, costs) pairs as one _Runs, each checked once by
    _check_problem for ``horizon`` costs (draw 0's if None): the one check of
    a batch of draws.  InvalidInputError names the draw, "draw r of R"."""
    if not draws:
        raise InvalidInputError("no runs: the batch of draws is empty")
    batches, ws = [], []
    for r, (w_seq, costs) in enumerate(draws):
        try:
            x1, _, w_seq, costs = _check_problem(sys, x1, w_seq, costs)
            horizon = len(costs) if horizon is None else horizon
            if len(costs) != horizon:
                raise InvalidInputError(f"got {len(costs)} costs for horizon T={horizon}")
        except InvalidInputError as exc:
            raise InvalidInputError(f"draw {r} of {len(draws)}: {exc}") from exc
        batches.append(costs)
        ws.append(w_seq)
    return _Runs(sys, batches, x1, np.stack(ws))


# One family of hindsight problems solved on every run: each run's model,
# optimizer, iterations and convergence flag, and the (R, T-1, M) inputs
# that realize the optima (None for the steady state, which needs no rollout).
_Optima = namedtuple("_Optima", "models xs iterations converged inputs")


def _scored(runs: _Runs, optima: _Optima, states) -> list[BenchmarkResult]:
    """Each run's result from its optimum and the (T, N) trajectory
    ``states[r]`` that realizes it: the step costs, their sum ``value``, and
    ``value_nominal``, the model's own value at the optimum."""
    results = []
    for model, costs, x, iters, converged, xs in zip(
        optima.models, runs.costs, optima.xs, optima.iterations, optima.converged, states
    ):
        step_costs = costs.values(xs)
        results.append(BenchmarkResult(
            optimizer=x, value=float(np.sum(step_costs)), iterations=int(iters), converged=bool(converged),
            step_costs=step_costs, value_nominal=model.value(x),
        ))
    return results


def _realized(runs: _Runs, *families: _Optima) -> list[list[BenchmarkResult]]:
    """Every family's results, its optima realized in one rollout for all
    the families: a leading family axis on the runs, the families' inputs
    stacked along it and the runs' disturbances broadcast across it, so
    each run of each family has the bits of its own rollout."""
    inputs = np.stack([optima.inputs for optima in families])
    states = rollout(runs.sys, runs.x1, np.broadcast_to(runs.ws, inputs.shape[:2] + runs.ws.shape[1:]), inputs)
    return [_scored(runs, optima, family) for optima, family in zip(families, states)]


def _box_optima(models: list[_Quadratic], u_set: BoxSet) -> _Optima:
    """Each model minimized over the input box by the exact
    :func:`~olcontrol.linalg.box_qp`: its iterations the 3^M faces it
    enumerates, always converged."""
    us = np.stack([box_qp(model.h, model.g, u_set.lower, u_set.upper) for model in models])
    return _Optima(models, us, [3**u_set.dim] * len(models), [True] * len(models), None)


def _fixed_input_models(runs: _Runs) -> list[_Quadratic]:
    """Each run's total cost of the constant input u, with x_t = x_t^0 + G_t u.
    The gains G_t depend on the plant and T alone, so one rollout serves
    every run."""
    sys = runs.sys
    steps = runs.ws.shape[1]
    gains = rollout(sys, np.zeros_like(sys.b), np.broadcast_to(sys.b, (steps,) + sys.b.shape))
    return [_assemble_quadratic(costs, free, gains) for costs, free in zip(runs.costs, runs.free)]


def _fixed_inputs(runs: _Runs, u_set: BoxSet) -> _Optima:
    optima = _box_optima(_fixed_input_models(runs), u_set)
    return optima._replace(inputs=np.broadcast_to(optima.xs[:, None], runs.ws.shape[:2] + (u_set.dim,)))


def best_fixed_input(sys: LtiSystem, x1, w_seq, costs, u_set: BoxSet) -> BenchmarkResult:
    """Best time-invariant input in hindsight.

    Minimizes the cumulative cost of the constant-input trajectory over
    the input box.  The trajectory is affine in u, x_t(u) = x_t^0 + G_t u
    with G_1 = 0 and G_{t+1} = A G_t + B, so the objective is a convex
    quadratic in u; it is assembled once and minimized exactly over the
    box by :func:`~olcontrol.linalg.box_qp` (``iterations`` counts the 3^M
    faces it enumerates, and ``converged`` is always True); the optimum is
    realized by one rollout of the plant.  This is the one-run case of
    :func:`solve_benchmarks`.
    """
    runs = _runs(sys, x1, [(w_seq, costs)])
    [[fixed]] = _realized(runs, _fixed_inputs(runs, fit_box(u_set, sys.input_dim, "input box")))
    return fixed


def _steady_state_models(runs: _Runs) -> list[_Quadratic]:
    """Each run's total cost of holding the steady state x = S u at every step."""
    s = runs.sys.steady_state_gain
    return [
        _assemble_quadratic(costs, np.zeros(costs.cs.shape), np.broadcast_to(s, (len(costs),) + s.shape))
        for costs in runs.costs
    ]


def _steady_states(runs: _Runs, u_set: BoxSet) -> list[BenchmarkResult]:
    s = runs.sys.steady_state_gain
    optima = _box_optima(_steady_state_models(runs), u_set)
    held = matvec(s, optima.xs)[:, None]  # every step of a run sits at S u*
    results = _scored(runs, optima, np.broadcast_to(held, (len(held), len(runs.costs[0]), s.shape[0])))
    for res in results:
        res.optimizer = s @ res.optimizer  # reported as the state x* = S u*
    return results


def best_steady_state(costs, sys: LtiSystem, u_set: BoxSet) -> BenchmarkResult:
    """Best fixed point of the steady-state manifold in hindsight.

    Works in the input parametrization x = S u, so the feasible set is
    the input box.  Every step sees the same state, so the assembled
    quadratic has H = S^T (sum_t Q_t) S; it is minimized exactly over the
    box by :func:`~olcontrol.linalg.box_qp`, as the fixed input's is, and
    the optimizer is reported as the state S u*.  This is the one-run case
    of the steady-state solve of :func:`solve_benchmarks`.
    """
    costs = _check_costs(sys, costs)
    return _steady_states(_Runs(sys, [costs]), fit_box(u_set, sys.input_dim, "input box"))[0]


def _dac_inputs(blocks: np.ndarray, w_seq: np.ndarray) -> np.ndarray:
    """Inputs u_t = sum_j M^[j-1] w_{t-j} for t = 1..T-1, zero-padded history."""
    h = blocks.shape[0]
    padded = np.concatenate([np.zeros((h, w_seq.shape[1])), w_seq])
    # window t holds w_{t-1..t-h}, newest first: padded[h + t - j]
    windows = h + np.arange(w_seq.shape[0])[:, None] - np.arange(1, h + 1)
    return dac_inputs(blocks, padded[windows])


def _dac_models(runs: _Runs, h_mem: int) -> list[_Quadratic]:
    """Each run's total cost of the disturbance-action blocks, flattened (h_mem, M, N)."""
    sys, ws = runs.sys, runs.ws
    n, m = sys.state_dim, sys.input_dim
    runs_count, steps = ws.shape[:2]
    # entry (i, j) of block 1 forces the state with B[:, i] * w_{t-1}[j]; the
    # forcing of x_{t+1} is written where x_{t+1} goes and rolled out in place
    response = np.zeros((runs_count, steps + 1, n, m, n))
    np.einsum("ki,rtj->rtkij", sys.b, ws[:, :-1], out=response[:, 2:])
    response = response.reshape((runs_count, steps + 1, n, m * n))
    rollout(sys, np.zeros((n, m * n)), response[:, 1:], out=response)
    return [
        _assemble_quadratic(costs, free, resp, n_blocks=h_mem)
        for costs, free, resp in zip(runs.costs, runs.free, response)
    ]


def _dacs(runs: _Runs, radii: np.ndarray) -> _Optima:
    """The DAC family on every run, the blocks in the balls of ``radii``,
    minimized by one lockstep descent."""
    sys = runs.sys
    h_mem = radii.shape[0]
    models = _dac_models(runs, h_mem)
    blocks, iterations, converged = _projected_descent(
        models, partial(project_dac_blocks, radii=radii), np.zeros((h_mem, sys.input_dim, sys.state_dim))
    )
    # inputs run by run: their windows take h_mem times the disturbances' memory
    return _Optima(models, blocks, iterations, converged, np.stack(list(map(_dac_inputs, blocks, runs.ws))))


def best_dac(sys: LtiSystem, x1, w_seq, costs, h_mem: int, radius: float) -> BenchmarkResult:
    """Best disturbance-action blocks in hindsight.

    The nominal trajectory is affine in the blocks, so minimizing the
    shifted-cost total over the per-block Frobenius balls (radii decaying
    as radius * (1-gamma)^i, gamma from ``sys.cert``) is convex.  Block j
    feeds w_{t-j} into the input, so the state's response to block j is
    the response to block 1 delayed by j-1 steps; the quadratic is
    assembled from that one (T, N, M*N) response and minimized by
    projected descent.  The optimum is realized by one rollout of the
    inputs the blocks play, as the fixed input's is.  This is the one-run
    case of :func:`solve_benchmarks`.
    """
    radii = dac_radii(sys, h_mem, radius)
    runs = _runs(sys, x1, [(w_seq, costs)])
    [[dac]] = _realized(runs, _dacs(runs, radii))
    return dac


def solve_benchmarks(
    sys: LtiSystem, x1, draws, u_set: BoxSet, h_mem: int, radius: float, steady_state: bool = False
) -> list[tuple]:
    """Every run's hindsight benchmarks in one batched pass.

    ``draws`` holds each run's (w_seq, costs), all on one horizon and all
    starting from ``x1``; each is checked once.  Returns one (best fixed
    input, best DAC, best steady state) triple of BenchmarkResults per
    run, the steady state None unless ``steady_state``; every run's DAC
    blocks lie in the balls of :func:`~olcontrol.controllers.dac_radii`
    for ``radius``.  Four rollouts serve every run: the free responses,
    which both the fixed-input and the DAC models read; the fixed-input
    gains, once for all runs; the DAC responses; and one realization of
    both families' optima, 2R runs stacked.  Each run's models are
    assembled from its own slice of them; the box problems are solved run
    by run, and the DAC models by one lockstep descent, each run stopping
    at its own test.  A run's results have the bits of its one-run solves
    (:func:`best_fixed_input`, :func:`best_dac`, :func:`best_steady_state`).
    """
    u_set = fit_box(u_set, sys.input_dim, "input box")
    radii = dac_radii(sys, h_mem, radius)
    return _solved(_runs(sys, x1, draws), u_set, radii, steady_state)


def _solved(runs: _Runs, u_set: BoxSet, radii: np.ndarray, steady_state: bool) -> list[tuple]:
    """:func:`solve_benchmarks` on checked ``runs``, a fitted box and the
    DAC balls' ``radii``."""
    fixed, dac = _realized(runs, _fixed_inputs(runs, u_set), _dacs(runs, radii))
    steady = _steady_states(runs, u_set) if steady_state else [None] * len(runs.costs)
    return list(zip(fixed, dac, steady))


def grid_oracle_fixed_input(
    sys: LtiSystem,
    x1,
    w_seq,
    costs,
    u_set: BoxSet,
    resolution: int,
) -> BenchmarkResult:
    """Brute-force fixed-input benchmark on a regular grid.

    ``resolution`` counts intervals per axis (so resolution+1 points
    including both box edges); coarse grids are exact subsets of any
    refinement by an integer factor.  Only 1- and 2-dimensional input
    spaces are supported -- this is a validation oracle, not a solver.
    ``value_nominal`` is the grid's own total at the chosen point.
    """
    x1, _, w_seq, costs = _check_problem(sys, x1, w_seq, costs)
    u_set = fit_box(u_set, sys.input_dim, "input box")
    if sys.input_dim > 2:
        raise UnsupportedDimensionError(
            f"grid oracle supports input dimension <= 2, got {sys.input_dim}"
        )
    resolution = count(1, GRID_MAX_RESOLUTION)(resolution, "resolution")

    axes = [
        np.linspace(u_set.lower[i], u_set.upper[i], resolution + 1)
        for i in range(u_set.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)  # (P, M)

    points = grid.shape[0]
    totals = np.zeros(points)
    states = np.broadcast_to(x1, (points, sys.state_dim)).copy()
    inputs_through_b = grid @ sys.b.T
    for t in range(len(costs)):
        d = states - costs.cs[t]
        totals += ((d @ costs.qs[t]) * d).sum(1)
        if t < len(costs) - 1:
            states = states @ sys.a.T + inputs_through_b + w_seq[t]
    best = int(np.argmin(totals))
    u_star = grid[best]
    u_seq = np.broadcast_to(u_star, (w_seq.shape[0], sys.input_dim))
    step_costs = costs.values(rollout(sys, x1, w_seq, u_seq))
    return BenchmarkResult(
        optimizer=u_star,
        value=float(np.sum(step_costs)),
        iterations=points,
        converged=True,
        step_costs=step_costs,
        value_nominal=float(totals[best]),
    )

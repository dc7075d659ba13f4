"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The 20-seed bundles (clean and disturbed, several horizons) are built once
in module-scoped fixtures and shared across criteria; building them is the
bulk of the wall time (a few minutes).  Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from olcontrol import (
    ExperimentConfig,
    LtiSystem,
    QuadraticCost,
    adjoint_input_gradients,
    best_fixed_input,
    best_steady_state,
    certify_strong_stability,
    grid_oracle_fixed_input,
    simulate,
    simulate_decomposed,
    steady_state_of_input,
)
from olcontrol.benchmarks import _adjoint_states, _dac_inputs
from olcontrol.costs import QuadraticBatch, as_batch
from olcontrol.harness import (
    CostGenConfig,
    DacConfig,
    RunRecord,
    derive_run_params,
    draw_run,
    run_experiment,
    run_lockstep,
    run_seeds,
    solve_draws,
)
from olcontrol.system import BoxSet, rollout

SEEDS = 20
BASE_SEED = 1


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@dataclass
class Bundle:
    cfg: object
    records: list[RunRecord] = field(default_factory=list)
    build_seconds: float = 0.0  # runs + the benchmarks the criterion clocks


def _build_bundle(t: int) -> Bundle:
    # the path `olcontrol run` takes: all seeds in lockstep, then each
    # seed's hindsight benchmarks
    cfg = ExperimentConfig(t=t, n_runs=SEEDS, seed=BASE_SEED, disturbances_on=True)
    start = time.perf_counter()
    records = run_seeds(cfg, range(SEEDS))
    return Bundle(cfg=cfg, records=records, build_seconds=time.perf_counter() - start)


@pytest.fixture(scope="module")
def clean_100():
    # criterion 1 clocks the runs plus the steady-state benchmark; the
    # fixed-input benchmark (criterion 3) is solved outside the clock
    cfg = ExperimentConfig(t=100, n_runs=SEEDS, seed=BASE_SEED, disturbances_on=False)
    return _timed_clean_bundle(cfg)


@pytest.fixture(scope="module")
def clean_1000():
    cfg = ExperimentConfig(t=1000, n_runs=SEEDS, seed=BASE_SEED, disturbances_on=False)
    return _timed_clean_bundle(cfg)


def _timed_clean_bundle(cfg) -> Bundle:
    bundle = Bundle(cfg=cfg)
    sys = cfg.system()
    start = time.perf_counter()
    draws = [draw_run(cfg, k) for k in range(SEEDS)]
    traces = run_lockstep(cfg, "olc", draws)
    for k, ((costs, w_seq, params), trace) in enumerate(zip(draws, traces)):
        record = RunRecord(run_index=k, seed=cfg.seed + k, costs=costs, w_seq=w_seq,
                           params=params, traces={"olc": trace})
        record.bench_x = best_steady_state(costs, sys, cfg.u_box)
        bundle.records.append(record)
    bundle.build_seconds = time.perf_counter() - start
    return bundle


@pytest.fixture(scope="module")
def dist_100():
    return _build_bundle(100)


@pytest.fixture(scope="module")
def dist_250():
    return _build_bundle(250)


@pytest.fixture(scope="module")
def dist_1000():
    return _build_bundle(1000)


def _regret_x(record) -> float:
    return record.traces["olc"].total_cost - record.bench_x.value


def _regret_u(record, kind="olc") -> float:
    return record.traces[kind].total_cost - record.bench_u.value


def _regret_limit(cfg, record, t: int, kappa_factor: float) -> float:
    kappa, gamma = cfg.system().cert.kappa, cfg.system().cert.gamma
    return (2.0 * record.params.l * cfg.bound.d**2 / gamma) * (
        np.sqrt(t * (1.0 + 4.0 * kappa**2)) + kappa_factor * kappa
    )


def test_criterion_01_disturbance_free_regret_bound(clean_100, clean_1000):
    worst = -np.inf
    for bundle, t in ((clean_100, 100), (clean_1000, 1000)):
        for record in bundle.records:
            slack = _regret_limit(bundle.cfg, record, t, 1.0) - _regret_x(record)
            worst = max(worst, _regret_x(record) / _regret_limit(bundle.cfg, record, t, 1.0))
            assert slack >= 0.0, f"seed {record.seed} at T={t}: regret exceeds the bound by {-slack}"
    elapsed = clean_100.build_seconds + clean_1000.build_seconds
    ok = elapsed < 30.0
    verdict(1, "disturbance-free regret bound", ok and worst <= 1.0,
            f"max regret/bound {worst:.4f}, runtime {elapsed:.1f}s < 30s")


def test_criterion_02_disturbed_regret_bound(dist_100, dist_1000):
    worst = -np.inf
    for bundle, t in ((dist_100, 100), (dist_1000, 1000)):
        for record in bundle.records:
            ratio = _regret_u(record) / _regret_limit(bundle.cfg, record, t, 2.0)
            worst = max(worst, ratio)
    verdict(2, "disturbed regret bound", worst <= 1.0, f"max regret/bound {worst:.4f}")


def test_criterion_03_regret_gap(clean_100, clean_1000):
    # |R_u - R_x| <= 2 kappa L D^2 / gamma; the spec's two zero lower
    # bounds negate each other and are dropped (see decisions ledger)
    worst = -np.inf
    for bundle in (clean_100, clean_1000):
        for record in bundle.records:
            if record.bench_u is None:
                record.bench_u = best_fixed_input(
                    bundle.cfg.system(), bundle.cfg.x1, record.w_seq, record.costs, bundle.cfg.u_box
                )
            cert = bundle.cfg.system().cert
            limit = 2.0 * cert.kappa * record.params.l * bundle.cfg.bound.d**2 / cert.gamma
            gap = abs(_regret_u(record) - _regret_x(record))
            worst = max(worst, gap / limit)
    verdict(3, "regret gap within the tracking constant", worst <= 1.0, f"max |gap|/limit {worst:.2e}")


def test_criterion_04_target_path_increments(clean_100, clean_1000, dist_100, dist_250, dist_1000):
    worst = -np.inf
    for bundle in (clean_100, clean_1000, dist_100, dist_250, dist_1000):
        for record in bundle.records:
            # the target at round t is the steady state of the input played
            z = record.traces["olc"].inputs @ bundle.cfg.system().steady_state_gain.T
            ld = record.params.l * bundle.cfg.bound.d
            for tau in range(1, 21):
                if tau >= z.shape[0]:
                    break
                moves = np.linalg.norm(z[tau:] - z[:-tau], axis=1)
                limit = record.params.eta * tau * ld + 1e-9
                worst = max(worst, float(np.max(moves) - limit))
                assert np.max(moves) <= limit
    verdict(4, "target-state increments bounded by eta*tau*L*D", worst <= 0.0,
            f"max excess {worst:.2e}")


def test_criterion_05_sublinear_fixed_input_regret(dist_250, dist_1000):
    mean_250 = np.mean([_regret_u(r) / 250.0 for r in dist_250.records])
    mean_1000 = np.mean([_regret_u(r) / 1000.0 for r in dist_1000.records])
    verdict(5, "per-step regret shrinks with the horizon", mean_1000 < mean_250,
            f"R_u/T: {mean_1000:.3f} at T=1000 vs {mean_250:.3f} at T=250")


def test_criterion_06_fixed_input_benchmark_wins(dist_1000):
    wins = sum(r.bench_u.value <= r.bench_m.value for r in dist_1000.records)
    verdict(6, "best fixed input beats best disturbance-action policy", wins >= 0.8 * SEEDS,
            f"{wins}/{SEEDS} seeds")


def test_criterion_07_olc_beats_dac_against_fixed_input(dist_1000):
    wins = sum(_regret_u(r, "olc") < _regret_u(r, "dac") for r in dist_1000.records)
    verdict(7, "target-state controller beats the baseline on fixed-input regret",
            wins >= 0.9 * SEEDS, f"{wins}/{SEEDS} seeds")


def test_criterion_08_dac_benchmark_trends(dist_250, dist_1000):
    dac_250 = np.mean([(r.traces["dac"].total_cost - r.bench_m.value) / 250.0 for r in dist_250.records])
    dac_1000 = np.mean([(r.traces["dac"].total_cost - r.bench_m.value) / 1000.0 for r in dist_1000.records])
    sublinear = dac_1000 < dac_250
    negative = sum(r.traces["olc"].total_cost < r.bench_m.value for r in dist_1000.records)
    verdict(8, "baseline sublinear vs its own benchmark; controller beats that benchmark",
            sublinear and negative > SEEDS / 2,
            f"dac regret/T {dac_1000:.3f} < {dac_250:.3f}; olc below bench_m in {negative}/{SEEDS}")


def _central_diff(fn, point: np.ndarray) -> np.ndarray:
    # quadratic objectives have no truncation error, so a generous step
    # keeps the roundoff noise far below the 1e-6 comparison level
    h = 1e-4 * (1.0 + float(np.linalg.norm(point)))
    flat = point.ravel()
    out = np.empty_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        out[i] = (fn((flat + bump).reshape(point.shape)) - fn((flat - bump).reshape(point.shape))) / (2 * h)
    return out.reshape(point.shape)


def _rel_vec_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.linalg.norm((analytic - numeric).ravel()) / max(np.linalg.norm(numeric.ravel()), 1e-9))


def test_criterion_09_gradient_oracles():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    h_mem = 2
    for instance in range(50):
        a = rng.standard_normal((3, 3))
        a *= 0.6 / np.max(np.abs(np.linalg.eigvals(a)))
        sys = LtiSystem(a, rng.standard_normal((3, 2)))
        horizon = 20
        costs = []
        for _ in range(horizon):
            s = rng.standard_normal((3, 3))
            costs.append(QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 3, 3)))
        w_seq = rng.uniform(-0.3, 0.3, (horizon - 1, 3))
        x1 = rng.standard_normal(3)
        batch = as_batch(costs)

        # fixed-input parametrization: summed adjoint gradient vs central differences
        u0 = rng.uniform(-1, 1, 2)

        def total_fixed(u):
            states = simulate(sys, x1, np.tile(u, (horizon - 1, 1)), w_seq)
            return float(np.sum(batch.values(states)))

        states = simulate(sys, x1, np.tile(u0, (horizon - 1, 1)), w_seq)
        lam = _adjoint_states(sys, batch.grads(states))
        grad_fixed = lam[1:].sum(axis=0) @ sys.b
        worst = max(worst, _rel_vec_err(grad_fixed, _central_diff(total_fixed, u0)))

        # disturbance-action parametrization
        blocks = rng.standard_normal((h_mem, 2, 3)) * 0.3
        xd = rollout(sys, np.zeros(3), w_seq)

        def total_dac(bl):
            nominal = simulate(sys, x1, _dac_inputs(bl, w_seq))
            return float(np.sum(batch.values(nominal + xd)))

        nominal = simulate(sys, x1, _dac_inputs(blocks, w_seq))
        lam = _adjoint_states(sys, batch.grads(nominal + xd))
        q = lam[1:] @ sys.b
        grad_blocks = np.zeros_like(blocks)
        for j in range(1, h_mem + 1):
            grad_blocks[j - 1] = q[j:].T @ w_seq[: horizon - 1 - j]
        worst = max(worst, _rel_vec_err(grad_blocks, _central_diff(total_dac, blocks)))

        # cost gradients
        x = rng.standard_normal(3)
        cost = costs[instance % horizon]
        worst = max(worst, _rel_vec_err(cost.grad(x), _central_diff(cost.value, x)))

        # per-slot adjoint gradients on a few instances
        if instance < 5:
            u_seq = rng.uniform(-1, 1, (horizon - 1, 2))
            grads = adjoint_input_gradients(sys, x1, u_seq, w_seq, costs)

            def total_seq(useq):
                states = simulate(sys, x1, useq, w_seq)
                return float(np.sum(batch.values(states)))

            worst = max(worst, _rel_vec_err(grads, _central_diff(total_seq, u_seq)))

    elapsed = time.perf_counter() - start
    verdict(9, "gradient oracles match finite differences", worst <= 1e-6 and elapsed < 5.0,
            f"max rel err {worst:.2e}, runtime {elapsed:.2f}s < 5s")


def test_criterion_10_solver_matches_grid_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        a *= rng.uniform(0.3, 0.7) / np.max(np.abs(np.linalg.eigvals(a)))
        sys = LtiSystem(a, rng.standard_normal((3, 2)))
        horizon = 50
        costs = []
        for _ in range(horizon):
            s = rng.standard_normal((3, 3))
            costs.append(QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(-1, 1, 3)))
        w_seq = rng.uniform(-0.1, 0.1, (horizon - 1, 3))
        box = BoxSet.symmetric(0.5, 2)
        solved = best_fixed_input(sys, np.zeros(3), w_seq, costs, box)
        grid = grid_oracle_fixed_input(sys, np.zeros(3), w_seq, costs, box, resolution=400)
        worst = max(worst, abs(solved.value - grid.value))
    verdict(10, "fixed-input solver matches the grid oracle", worst <= 1e-3,
            f"max |value gap| {worst:.2e}")


def test_criterion_11_superposition_and_cost_equivalence(dist_1000):
    worst_super = 0.0
    worst_cost = 0.0
    worst_bench = 0.0
    for record in dist_1000.records:
        cfg = dist_1000.cfg
        sys = cfg.system()
        for trace in record.traces.values():
            nominal, dist, full = simulate_decomposed(sys, cfg.x1, trace.inputs, record.w_seq)
            scale = np.maximum(np.abs(trace.states), 1.0)
            worst_super = max(worst_super, float(np.max(np.abs(full - trace.states) / scale)))
            for t in range(0, cfg.t, 97):
                cost = record.costs[t]
                f_val = cost.value(trace.states[t])
                # the nominal cost is the same quadratic centred at c_t - x^w_t
                g_val = QuadraticCost(q=cost.q, c=cost.c - dist[t]).value(nominal[t])
                worst_cost = max(worst_cost, abs(g_val - f_val) / max(abs(f_val), 1.0))
        for bench in (record.bench_u, record.bench_m):
            worst_bench = max(worst_bench, abs(bench.value - bench.value_nominal) / max(abs(bench.value), 1.0))
    ok = worst_super <= 1e-9 and worst_cost <= 1e-9 and worst_bench <= 1e-9
    verdict(11, "superposition and nominal-cost equivalence",
            ok, f"superposition {worst_super:.1e}, costs {worst_cost:.1e}, benchmarks {worst_bench:.1e}")


def test_criterion_12_geometric_tracking():
    rng = np.random.default_rng(777)
    cfg = ExperimentConfig()
    sys = cfg.system()
    cert = certify_strong_stability(sys.a)
    horizon = 25
    ok = True
    for _ in range(SEEDS):
        u = rng.uniform(cfg.u_box.lower, cfg.u_box.upper)
        z = steady_state_of_input(sys, u)
        x1 = rng.standard_normal(3) * 2
        states = simulate(sys, x1, np.tile(u, (horizon - 1, 1)))
        e0 = np.linalg.norm(x1 - z)
        for t in range(horizon):
            bound = cert.kappa * (1.0 - cert.gamma) ** t * e0
            if np.linalg.norm(states[t] - z) > bound:
                ok = False
    verdict(12, "geometric tracking of constant-input steady states", ok)


def test_criterion_13_deterministic_csv_output(tmp_path):
    cfg = ExperimentConfig(t=12, n_runs=2, seed=3)
    run_experiment(cfg, output_dir=tmp_path / "a")
    run_experiment(cfg, output_dir=tmp_path / "b")
    identical = True
    for name in ("run_0.csv", "run_1.csv", "summary.csv", "benchmarks.csv"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            identical = False
    verdict(13, "byte-identical output for identical config and seed", identical)


def _zoomed_grid_oracle(sys, x1, w_seq, costs, u_box: BoxSet, rounds: int = 4, resolution: int = 20):
    """The grid oracle, zoomed: each round grids the window of one cell
    either side of the last round's best point, so the spacing falls
    tenfold a round, from 0.5 to 5e-4 on the ±5 box, at 441 points a round.
    The full box at the oracle's finest grid is 0.025 apart, which at
    T = 1000 leaves its best point 0.05–0.2 above the optimum."""
    box = u_box
    for _ in range(rounds):
        grid = grid_oracle_fixed_input(sys, x1, w_seq, costs, box, resolution=resolution)
        cell = (box.upper - box.lower) / resolution
        box = BoxSet(np.maximum(grid.optimizer - cell, u_box.lower), np.minimum(grid.optimizer + cell, u_box.upper))
    return grid


def test_criterion_14_oco_reduction():
    # At A = 0 the plant forgets its past: x_{t+1} = B u_t + w_t, and S = B.
    # OLC is then projected online gradient descent on
    # h_t(u) = f_t(B u + w_{t-1}) over the input box, and its regret against
    # the best fixed input is the regret of online convex optimization
    # (Zinkevich, 2003).  The gradient at x_t scores u_{t-1} and moves
    # u_t: the feedback arrives one round late.
    start = time.perf_counter()
    ok, worst_ratio, worst_gap = True, 0.0, 0.0
    for disturbances_on in (False, True):
        cfg = ExperimentConfig(a=np.zeros((3, 3)), t=1000, n_runs=3, disturbances_on=disturbances_on)
        sys, box, b = cfg.system(), cfg.u_box, cfg.b
        # B has orthonormal columns, so the step 1/||S||^2 is 1 and the
        # projection onto S(U) is a clip of B^T z
        ok &= (sys.cert.gamma, sys.cert.kappa) == (1.0, 1.0) and np.array_equal(sys.steady_state_gain, b)
        diam_sq = float(np.sum((box.upper - box.lower) ** 2))
        draws = [draw_run(cfg, k) for k in range(cfg.n_runs)]
        traces, benches = run_lockstep(cfg, "olc", draws), solve_draws(cfg, draws)
        for k, (costs, w_seq, params) in enumerate(draws):
            trace, bench_u = traces[k], benches[k][0]
            u, inputs = np.zeros(b.shape[1]), []
            for t in range(cfg.t - 1):
                inputs.append(u)
                grad = 2.0 * (costs.qs[t] @ (trace.states[t] - costs.cs[t]))
                u = np.clip(u - params.eta * (b.T @ grad), box.lower, box.upper)
            ok &= np.array_equal(np.array(inputs), trace.inputs)
            # the gradients of h_t at the inputs played, from the trace's states
            grads = costs.grads(trace.states)[1:] @ b
            regret = trace.total_cost - bench_u.value
            bound = diam_sq / (2.0 * params.eta) + 0.5 * params.eta * float(np.sum(grads**2))
            worst_ratio = max(worst_ratio, regret / bound)
            if k == 0:  # the grid takes 0.2 s a run
                grid = _zoomed_grid_oracle(sys, cfg.x1, w_seq, costs, box)
                worst_gap = max(worst_gap, abs(grid.value - bench_u.value))
    elapsed = time.perf_counter() - start
    verdict(14, "OLC at A = 0 is projected OGD within the Zinkevich bound",
            ok and worst_ratio <= 1.0 and worst_gap <= 1e-3,
            f"max R_u / bound {worst_ratio:.3f}, max |bench_u - grid| {worst_gap:.2e}, runtime {elapsed:.2f}s")


def test_criterion_15_cost_scale_by_two():
    # Doubling every Q_t doubles each cost, its gradient and L, so OLC's
    # regret-optimal step halves; DAC's step is halved by hand.  Every
    # controller step and every hindsight optimizer then sees the products
    # of the unscaled run times a power of two, which floating point keeps
    # exactly: inputs and optimizers agree bit for bit, costs are exactly
    # twice.  A transpose or assembly error that scaled one term and not
    # another would break the equality.
    start = time.perf_counter()
    ok, checked = True, 0
    for disturbances_on in (True, False):
        records = []
        for q_scale, eta_g in ((1.0, 1.0), (2.0, 0.5)):
            cfg = ExperimentConfig(t=1000, n_runs=4, disturbances_on=disturbances_on,
                                   cost_gen=CostGenConfig(q_scale=q_scale), dac=DacConfig(eta_g=eta_g / np.sqrt(1000)))
            records.append(run_seeds(cfg, range(cfg.n_runs)))
        for base, scaled in zip(*records):
            for kind in ("olc", "dac"):
                ok &= np.array_equal(base.traces[kind].inputs, scaled.traces[kind].inputs)
                ok &= np.array_equal(2.0 * base.traces[kind].costs, scaled.traces[kind].costs)
            for bench in ("bench_u", "bench_m", "bench_x"):
                b, sc = getattr(base, bench), getattr(scaled, bench)
                ok &= (b is None) == (sc is None)
                if b is None:
                    continue
                checked += 1
                ok &= np.array_equal(b.optimizer, sc.optimizer) and b.iterations == sc.iterations
                ok &= 2.0 * b.value == sc.value and np.array_equal(2.0 * b.step_costs, sc.step_costs)
    elapsed = time.perf_counter() - start
    verdict(15, "doubling the costs doubles them exactly and moves no input or optimizer",
            ok and checked == 4 * (2 + 3), f"{checked} hindsight results compared, runtime {elapsed:.2f}s")


PERMUTATION_RTOL = 1e-9  # normwise, against max(1, max |mapped value|)


def _normwise_error(got, want) -> float:
    """max |got - want| over max(1, max |want|)."""
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(np.asarray(got) - want), initial=0.0))
    return err / max(1.0, float(np.max(np.abs(want), initial=0.0)))


def _permuted(cfg, draws, perm):
    """``cfg`` and ``draws`` with the state coordinates permuted by P,
    (P x)_i = x[perm[i]]: A -> P A P^T, B -> P B, Q_t -> P Q_t P^T, c_t -> P c_t,
    w_t -> P w_t, x1 -> P x1, by indexing alone.  The permuted config derives
    its own certificate, D and DAC radius, and each run its own L and eta."""
    box = cfg.w_box
    cfg_p = ExperimentConfig(t=cfg.t, n_runs=cfg.n_runs, disturbances_on=cfg.disturbances_on,
                             a=cfg.a[np.ix_(perm, perm)], b=cfg.b[perm], x1=cfg.x1[perm],
                             w_box=BoxSet(box.lower[perm], box.upper[perm]))
    draws_p = []
    for costs, w_seq, _ in draws:
        costs_p = QuadraticBatch(costs.qs[:, perm][:, :, perm], costs.cs[:, perm])
        draws_p.append((costs_p, w_seq[:, perm], derive_run_params(cfg_p, costs_p)))
    return cfg_p, draws_p


def test_criterion_16_state_permutation():
    # Renaming the state coordinates renames every state-space quantity and
    # leaves the inputs, the costs and the hindsight values as they were: the
    # norms that fix gamma, kappa, D, L and eta are permutation-invariant,
    # and so is every sum the controllers and the solvers form, up to the
    # order of its terms.  An index or transpose slip that mixes state
    # coordinates with each other, or with inputs, breaks the relation.  The
    # reversal maps the ring plant's A to its transpose.
    start = time.perf_counter()
    worst, ok, checked = 0.0, True, 0

    def close(got, want):
        nonlocal worst
        worst = max(worst, _normwise_error(got, want))

    for disturbances_on in (True, False):
        cfg = ExperimentConfig(t=1000, n_runs=4, disturbances_on=disturbances_on)
        draws = [draw_run(cfg, k) for k in range(cfg.n_runs)]
        base_traces = {kind: run_lockstep(cfg, kind, draws) for kind in ("olc", "dac")}
        base_benches = solve_draws(cfg, draws)
        for perm in ([1, 2, 0], [2, 1, 0]):
            cfg_p, draws_p = _permuted(cfg, draws, perm)
            cert, cert_p = cfg.system().cert, cfg_p.system().cert
            for got, want in ((cert_p.gamma, cert.gamma), (cert_p.kappa, cert.kappa),
                              (cfg_p.bound.d, cfg.bound.d), (cfg_p.dac_radius, cfg.dac_radius)):
                close(got, want)
            for (_, _, params), (_, _, params_p) in zip(draws, draws_p):
                close(params_p.l, params.l)
                close(params_p.eta, params.eta)
            traces = {kind: run_lockstep(cfg_p, kind, draws_p) for kind in ("olc", "dac")}
            for kind, runs in traces.items():
                for trace, want in zip(runs, base_traces[kind]):
                    close(trace.inputs, want.inputs)
                    close(trace.states, want.states[:, perm])
                    close(trace.costs, want.costs)
            for triple, want_triple in zip(solve_draws(cfg_p, draws_p), base_benches):
                for name, got, want in zip(("u", "m", "x"), triple, want_triple):
                    ok &= (got is None) == (want is None)
                    if want is None:
                        continue
                    checked += 1
                    # an input as is; DAC blocks M_j P^T and a steady state P x*
                    # permute their last (state) axis
                    close(got.optimizer, want.optimizer if name == "u" else want.optimizer[..., perm])
                    for field_name in ("value", "value_nominal", "step_costs"):
                        close(getattr(got, field_name), getattr(want, field_name))
                    ok &= got.converged == want.converged
                    ok &= name == "m" or got.iterations == want.iterations
    elapsed = time.perf_counter() - start
    verdict(16, "permuting the state coordinates maps every state and leaves inputs and costs",
            ok and checked == 2 * 4 * (2 + 3) and worst <= PERMUTATION_RTOL,
            f"{checked} hindsight results compared, worst normwise error {worst:.2e}, runtime {elapsed:.2f}s")


INPUT_RELATION_RTOL = 1e-9  # normwise, against max(1, max |mapped value|)
ASYMMETRIC_U_BOX = BoxSet([-0.25, -0.5], [2.0, 1.0])  # OLC and DAC inputs both reach it


def _inputs_mapped(cfg, draws, perm, sign):
    """``cfg`` and ``draws`` with the inputs renamed u -> sign * u[perm]:
    B -> sign * B[:, perm], and the input box permuted and, for sign -1,
    reflected, by indexing and negation alone.  The costs and disturbances
    stay; the mapped config derives its own D and DAC radius, and each run
    its own L and eta."""
    box = cfg.u_box
    lower, upper = (box.lower[perm], box.upper[perm]) if sign > 0 else (-box.upper[perm], -box.lower[perm])
    cfg_p = ExperimentConfig(t=cfg.t, n_runs=cfg.n_runs, disturbances_on=cfg.disturbances_on,
                             b=sign * cfg.b[:, perm], u_box=BoxSet(lower, upper))
    return cfg_p, [(costs, w_seq, derive_run_params(cfg_p, costs)) for costs, w_seq, _ in draws]


def test_criterion_17_input_relations():
    # Permuting the inputs (B -> B P, the box permuted) or reflecting them
    # (B -> -B, the box reflected) maps every input, OLC's and DAC's, the
    # fixed-input optimizer and the DAC blocks, and leaves every state,
    # cost, steady state and value as it was: B u, ||B||, the box's corner
    # norms and the steady-state set S(U) do not change, and every sum the
    # controllers and the solvers form holds the same terms.  The box is not
    # symmetric and some inputs sit on it, so it has to map along: a bound
    # applied to the wrong coordinate or with the wrong sign, or a column of
    # B paired with the wrong input, breaks the relation.
    start = time.perf_counter()
    worst, ok, checked, on_box = 0.0, True, 0, {"olc": 0, "dac": 0}

    def close(got, want):
        nonlocal worst
        worst = max(worst, _normwise_error(got, want))

    for disturbances_on in (True, False):
        cfg = ExperimentConfig(t=1000, n_runs=4, disturbances_on=disturbances_on, u_box=ASYMMETRIC_U_BOX)
        draws = [draw_run(cfg, k) for k in range(cfg.n_runs)]
        base_traces = {kind: run_lockstep(cfg, kind, draws) for kind in ("olc", "dac")}
        base_benches = solve_draws(cfg, draws)
        for kind, runs in base_traces.items():
            on_box[kind] += sum(np.count_nonzero((t.inputs == cfg.u_box.lower) | (t.inputs == cfg.u_box.upper))
                                for t in runs)
        for perm, sign in (([1, 0], 1.0), ([0, 1], -1.0)):
            cfg_p, draws_p = _inputs_mapped(cfg, draws, perm, sign)
            close(cfg_p.bound.d, cfg.bound.d)
            close(cfg_p.dac_radius, cfg.dac_radius)
            for (_, _, params), (_, _, params_p) in zip(draws, draws_p):
                close(params_p.l, params.l)
                close(params_p.eta, params.eta)
            traces = {kind: run_lockstep(cfg_p, kind, draws_p) for kind in ("olc", "dac")}
            for kind, runs in traces.items():
                for trace, want in zip(runs, base_traces[kind]):
                    close(trace.inputs, sign * want.inputs[:, perm])
                    close(trace.states, want.states)
                    close(trace.costs, want.costs)
            for triple, want_triple in zip(solve_draws(cfg_p, draws_p), base_benches):
                for name, got, want in zip(("u", "m", "x"), triple, want_triple):
                    ok &= (got is None) == (want is None)
                    if want is None:
                        continue
                    checked += 1
                    # a fixed input maps, and so do DAC blocks (h_mem, M, N)
                    # along their input axis; a steady state stays
                    axis = {"u": -1, "m": -2}.get(name)
                    close(got.optimizer, want.optimizer if axis is None
                          else sign * np.take(want.optimizer, perm, axis=axis))
                    for field_name in ("value", "value_nominal", "step_costs"):
                        close(getattr(got, field_name), getattr(want, field_name))
                    ok &= got.converged == want.converged
                    ok &= name == "m" or got.iterations == want.iterations
    elapsed = time.perf_counter() - start
    verdict(17, "permuting or reflecting the inputs maps every input and leaves states and costs",
            ok and checked == 2 * 4 * (2 + 3) and worst <= INPUT_RELATION_RTOL and min(on_box.values()) > 0,
            f"{checked} hindsight results compared, worst normwise error {worst:.2e}, "
            f"inputs on the box: {on_box['olc']} OLC, {on_box['dac']} DAC, runtime {elapsed:.2f}s")

import csv
import json
import os
import pickle
import signal
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from olcontrol import (
    BoxSet,
    ConfigError,
    DacController,
    InvalidInputError,
    InvalidStateError,
    LtiSystem,
    OlcController,
    ProjectionFailureError,
    QuadraticBatch,
    QuadraticCost,
    compute_regret,
    config_from_dict,
    load_config,
)
from olcontrol.costs import as_batch
from olcontrol.harness import (
    REGRET_COLUMNS,
    CostGenConfig,
    DacConfig,
    ExperimentConfig,
    OlcConfig,
    default_system_matrices,
    derive_run_params,
    draw_run,
    generate_costs,
    generate_disturbances,
    make_rng,
    run_experiment,
    run_lockstep,
    run_one_seed,
    run_seeds,
    run_single,
)
from olcontrol.controllers import dac_radii, project_dac_blocks
from olcontrol.linalg import spectral_norm
from olcontrol.system import state_bound


@pytest.fixture()
def tiny_cfg():
    return ExperimentConfig(t=12, n_runs=2, seed=3)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        assert cfg.t == 1000 and cfg.n_runs == 20

    def test_horizon_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(t=1)

    def test_q_scale_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cost_gen=CostGenConfig(q_scale=0.0))

    @pytest.mark.parametrize("overrides", [
        {"seed": -1},
        {"t": 1},
        {"n_runs": 0},
        {"b": np.zeros((3, 2))},
        {"dac": DacConfig(h_mem=0)},
    ], ids=["seed", "t", "n_runs", "b", "h_mem"])
    def test_checked_when_built(self, overrides):
        # no config object exists that a run could not use
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize("kwargs", [
        {"a": np.array([[1.5]]), "b": np.array([[1.0]]),
         "u_box": BoxSet([-1.0], [1.0]), "w_box": BoxSet([-1.0], [1.0])},
        {"a": 0.5 * np.eye(2)},
        {"x1": [0, "a", 0]},
    ], ids=["unstable", "b_rows", "x1_text"])
    def test_plant_errors_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError, match="bad plant or x1"):
            ExperimentConfig(**kwargs)

    def test_replace_checks_again(self, tiny_cfg):
        with pytest.raises(ConfigError, match="n_runs"):
            replace(tiny_cfg, n_runs=0)

    def test_shared_values_derived_once(self, tiny_cfg):
        sys = tiny_cfg.system()
        assert tiny_cfg.bound == state_bound(sys, tiny_cfg.x1, tiny_cfg.u_box, tiny_cfg.w_box)
        assert tiny_cfg.dac_radius == sys.cert.kappa**3 * spectral_norm(sys.b)
        # replace derives them again, and a dac value wins over its default
        longer = replace(tiny_cfg, t=250)
        assert longer.dac_eta_g == 1.0 / np.sqrt(250)
        assert longer.bound == tiny_cfg.bound
        explicit = replace(tiny_cfg, dac=DacConfig(eta_g=0.3, radius=2.5))
        assert (explicit.dac_eta_g, explicit.dac_radius) == (0.3, 2.5)
        wider = replace(tiny_cfg, w_box=BoxSet.symmetric(1.0, 3))
        assert wider.bound == state_bound(sys, wider.x1, wider.u_box, wider.w_box)
        assert wider.bound.d > tiny_cfg.bound.d

    def test_runs_share_the_dac_radii(self, tiny_cfg, monkeypatch):
        import olcontrol.benchmarks as bench_mod
        import olcontrol.harness as harness_mod

        radii = dac_radii(tiny_cfg.system(), tiny_cfg.dac.h_mem, tiny_cfg.dac_radius)
        built, projected = [], []

        class Recording(DacController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def recording_project(blocks, radii):
            projected.append(radii)
            return project_dac_blocks(blocks, radii)

        monkeypatch.setattr(harness_mod, "DacController", Recording)
        monkeypatch.setattr(bench_mod, "project_dac_blocks", recording_project)
        records = run_seeds(tiny_cfg, [0, 1, 2])
        [ctrl] = built
        assert ctrl.blocks.shape[0] == 3 and ctrl.eta_g == tiny_cfg.dac_eta_g
        assert np.array_equal(ctrl.radii, radii)
        assert projected and all(np.array_equal(r, radii) for r in projected)
        for rec in records:
            norms = np.linalg.norm(rec.bench_m.optimizer, axis=(-2, -1))
            assert np.all(norms <= radii * (1.0 + 1e-12))

    def test_defaults_derived_from_dimensions(self):
        cfg = ExperimentConfig()
        ring_a, ring_b = default_system_matrices()
        np.testing.assert_array_equal(cfg.a, ring_a)
        np.testing.assert_array_equal(cfg.b, ring_b)
        np.testing.assert_array_equal(cfg.u_box.upper, [5.0, 5.0])
        np.testing.assert_array_equal(cfg.w_box.lower, [-0.5, -0.5, -0.5])
        np.testing.assert_array_equal(cfg.x1, np.zeros(3))
        scalar = config_from_dict({"system": {"A": [[0.5]], "B": [[1.0, 2.0]]}})
        np.testing.assert_array_equal(scalar.u_box.lower, [-5.0, -5.0])
        np.testing.assert_array_equal(scalar.w_box.upper, [0.5])
        np.testing.assert_array_equal(scalar.x1, [0.0])
        from_json = config_from_dict({})
        for name in ("seed", "t", "n_runs", "cost_gen", "olc", "dac", "disturbances_on", "output_dir"):
            assert getattr(from_json, name) == getattr(cfg, name)

    @pytest.mark.parametrize("doc", [
        {"olc": {"eta_override": 0.0}},
        {"olc": {"eta_override": -0.1}},
        {"olc": {"eta_override": float("inf")}},
        {"dac": {"eta_g": 0.0}},
        {"dac": {"eta_g": -1.0}},
        {"dac": {"radius": 0.0}},
        {"dac": {"radius": -2.0}},
        {"dac": {"radius": float("nan")}},
        {"cost_gen": {"q_scale": float("nan")}},
        {"cost_gen": {"q_ridge": float("nan")}},
        {"cost_gen": {"c_max": float("inf")}},
        {"x1": [0.0, float("nan"), 0.0]},
        {"x1": [0.0, 0.0]},
        {"T": 2.7},
        {"n_runs": 1.9},
        {"seed": True},
        {"seed": "1"},
        {"seed": -1},
        {"dac": {"H_mem": 2.5}},
        {"disturbances_on": "false"},
        {"disturbances_on": 0},
        {"output_dir": 5},
        {"system": {"A": [[0.5]], "B": [[0.0]]}},
        {"cost_gen": {"c_max": "5"}},
        {"cost_gen": {"q_scale": True}},
        {"cost_gen": {"q_ridge": None}},
        {"olc": {"eta_override": "0.1"}},
        {"dac": {"eta_g": True}},
        {"dac": {"radius": "1"}},
        {"u_box": {"lower": [True, -1], "upper": [1, 1]}},
        {"w_box": {"lower": [-0.5] * 3, "upper": [0.5, "0.5", 0.5]}},
        {"x1": [True, 0, 0]},
        {"system": {"A": [[0.5]], "B": [[True]]}},
        {"system": {"A": [["0.5"]], "B": [[1.0]]}},
        {"cost_gen": {"c_max": 10**400}},
        {"x1": [10**400, 0, 0]},
    ])
    def test_bad_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict({"T": 5, "n_runs": 1, **doc})

    def test_plant_built_once_per_config(self, monkeypatch):
        builds = []
        post_init = LtiSystem.__post_init__

        def counting(self):
            builds.append(self)
            post_init(self)

        monkeypatch.setattr(LtiSystem, "__post_init__", counting)
        cfg = ExperimentConfig(t=12, n_runs=1, disturbances_on=False)
        record = run_one_seed(cfg, 0)
        assert record.bench_x is not None
        assert len(builds) == 1 and cfg.system() is builds[0]

    def test_certified_once_per_plant(self, monkeypatch):
        import olcontrol.system as system_mod

        calls = []
        certify = system_mod.certify_strong_stability

        def counting(a):
            calls.append(a)
            return certify(a)

        monkeypatch.setattr(system_mod, "certify_strong_stability", counting)
        cfg = ExperimentConfig(t=12, n_runs=1)
        assert len(calls) == 1
        run_one_seed(cfg, 0)
        assert len(calls) == 1

    def test_json_round_trip(self, tmp_path):
        doc = {
            "seed": 5,
            "T": 20,
            "n_runs": 2,
            "system": {"A": [[0.5]], "B": [[1.0]]},
            "u_box": {"lower": [-1.0], "upper": [1.0]},
            "w_box": {"lower": [-0.1], "upper": [0.1]},
            "cost_gen": {"q_scale": 1.0, "q_ridge": 0.1, "c_max": 2.0},
            "olc": {"eta_override": None},
            "dac": {"H_mem": 3, "eta_g": 0.05, "radius": 1.0},
            "disturbances_on": True,
            "output_dir": "out",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.seed == 5 and cfg.t == 20 and cfg.dac.h_mem == 3
        assert cfg.u_box.lower[0] == -1.0

    def test_json_numbers_accepted(self):
        cfg = config_from_dict({"cost_gen": {"c_max": 5, "q_scale": 1.5},
                                "olc": {"eta_override": None}, "dac": {"radius": 2},
                                "u_box": {"lower": [-1, -1.5], "upper": [1, 2]}})
        assert type(cfg.cost_gen.c_max) is float and cfg.cost_gen.c_max == 5.0
        assert cfg.olc.eta_override is None and cfg.dac.radius == 2.0
        np.testing.assert_array_equal(cfg.u_box.lower, [-1.0, -1.5])

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"T": 10, "horizon": 10})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"dac": {"H": 3}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_unstable_system_rejected(self):
        with pytest.raises(ConfigError, match="NotStronglyStableError"):
            config_from_dict({"system": {"A": [[1.5]], "B": [[1.0]]}, "u_box": {"lower": [-1], "upper": [1]}, "w_box": {"lower": [-1], "upper": [1]}})


class TestGenerators:
    def test_costs_match_per_step_draws(self, tiny_cfg):
        batch = generate_costs(tiny_cfg, make_rng(42))
        assert isinstance(batch, QuadraticBatch) and len(batch) == tiny_cfg.t
        # reference: one draw of S then one of c per step, the documented formula
        rng, gen, n = make_rng(42), tiny_cfg.cost_gen, 3
        for t in range(tiny_cfg.t):
            s = rng.standard_normal((n, n))
            q = gen.q_scale * (s.T @ s / n + gen.q_ridge * np.eye(n))
            np.testing.assert_array_equal(batch.qs[t], 0.5 * (q + q.T))
            np.testing.assert_array_equal(batch.cs[t], rng.uniform(0.0, gen.c_max, size=n))

    def test_costs_deterministic(self, tiny_cfg):
        c1 = generate_costs(tiny_cfg, make_rng(42))
        c2 = generate_costs(tiny_cfg, make_rng(42))
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a.q, b.q)
            np.testing.assert_array_equal(a.c, b.c)

    def test_costs_positive_definite(self, tiny_cfg):
        costs = generate_costs(tiny_cfg, make_rng(0))
        floor = tiny_cfg.cost_gen.q_scale * tiny_cfg.cost_gen.q_ridge
        for cost in costs:
            assert np.min(np.linalg.eigvalsh(cost.q)) >= floor * (1 - 1e-9)

    def test_targets_in_range(self, tiny_cfg):
        costs = generate_costs(tiny_cfg, make_rng(0))
        cs = np.stack([c.c for c in costs])
        assert np.all(cs >= 0.0) and np.all(cs <= tiny_cfg.cost_gen.c_max)

    def test_disturbances_off_zero(self):
        cfg = ExperimentConfig(t=50, disturbances_on=False)
        w = generate_disturbances(cfg, make_rng(1))
        assert w.shape == (49, 3)
        np.testing.assert_array_equal(w, 0.0)

    def test_disturbances_deterministic(self, tiny_cfg):
        w1 = generate_disturbances(tiny_cfg, make_rng(9))
        w2 = generate_disturbances(tiny_cfg, make_rng(9))
        np.testing.assert_array_equal(w1, w2)

    def test_disturbance_mean_clt(self):
        cfg = ExperimentConfig(t=100_001)
        w = generate_disturbances(cfg, make_rng(11))
        halfwidth = 0.5
        sigma = halfwidth / np.sqrt(3.0)  # std of U(-h, h) is h/sqrt(3)
        bound = 3.0 * sigma / np.sqrt(w.shape[0])
        assert np.all(np.abs(w.mean(axis=0)) <= bound)


class TestRunSingle:
    def test_zero_costs_zero_disturbances(self):
        cfg = ExperimentConfig(t=20, disturbances_on=False, olc=OlcConfig(eta_override=0.1))
        costs = [QuadraticCost(q=np.zeros((3, 3)), c=np.zeros(3))] * 20
        w = np.zeros((19, 3))
        trace = run_single(cfg, "olc", costs, w, derive_run_params(cfg, costs))
        np.testing.assert_array_equal(trace.states, 0.0)
        np.testing.assert_array_equal(trace.inputs, 0.0)
        np.testing.assert_array_equal(trace.costs, 0.0)

    def test_replay_reproduces_states(self, tiny_cfg):
        rng = make_rng(tiny_cfg.seed)
        costs = generate_costs(tiny_cfg, rng)
        w = generate_disturbances(tiny_cfg, rng)
        trace = run_single(tiny_cfg, "olc", costs, w, derive_run_params(tiny_cfg, costs))
        from olcontrol import simulate

        replay = simulate(tiny_cfg.system(), tiny_cfg.x1, trace.inputs, w)
        np.testing.assert_array_equal(replay, trace.states)

    @pytest.mark.parametrize("kind", ["olc", "dac"])
    def test_costs_scored_on_the_trajectory(self, tiny_cfg, kind):
        # the trace is scored after the loop, as the hindsight benchmarks are
        rec = run_one_seed(tiny_cfg, 0, kinds=(kind,))
        costs = [rec.costs[t] for t in range(tiny_cfg.t)]
        trace = run_single(tiny_cfg, kind, costs, rec.w_seq, rec.params)
        np.testing.assert_array_equal(trace.states, rec.traces[kind].states)
        np.testing.assert_array_equal(trace.costs, as_batch(costs).values(trace.states))
        np.testing.assert_array_equal(rec.traces[kind].costs, rec.costs.values(trace.states))

    def test_cumulative_costs_non_decreasing(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        for trace in rec.traces.values():
            assert np.all(np.diff(np.cumsum(trace.costs)) >= 0.0)

    def test_states_within_bound(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        for trace in rec.traces.values():
            assert np.max(np.linalg.norm(trace.states, axis=1)) <= tiny_cfg.bound.d

    def test_bound_violation_aborts(self, tiny_cfg):
        rng = make_rng(0)
        costs = generate_costs(tiny_cfg, rng)
        w = generate_disturbances(tiny_cfg, rng)
        params = derive_run_params(tiny_cfg, costs)
        # disturbances far outside the box: the round loop checks their
        # shape and finiteness, and the states they drive against D
        with pytest.raises(InvalidStateError, match="exceeds"):
            run_single(tiny_cfg, "dac", costs, 1e6 * w, params=params)

    def test_olc_target_is_steady_state_of_input(self, tiny_cfg):
        # a trace keeps no targets: the OLC target at round t is S @ inputs[t]
        seen = []

        def recording(sys, cfg, params):
            ctrl = OlcController(sys, cfg.u_box, params.eta, z0=cfg.x1)
            act = ctrl.act

            def act_and_record(x):
                seen.append(ctrl.z.copy())
                return act(x)

            ctrl.act = act_and_record
            return ctrl

        rng = make_rng(2)
        costs = generate_costs(tiny_cfg, rng)
        w = generate_disturbances(tiny_cfg, rng)
        trace = run_single(tiny_cfg, recording, costs, w, derive_run_params(tiny_cfg, costs))
        s = tiny_cfg.system().steady_state_gain
        assert len(seen) == tiny_cfg.t - 1
        for t, z in enumerate(seen):
            np.testing.assert_array_equal(s @ trace.inputs[t], z)

    def test_protocol_ordering(self, tiny_cfg):
        calls = []

        class SpyController:
            feedback = "gradient"

            def __init__(self, sys, cfg, params):
                self.sys = sys

            def act(self, x):
                calls.append(("act", np.array(x)))
                return np.zeros(self.sys.input_dim)

            def observe(self, delta, x_next=None):
                calls.append(("observe", np.array(delta)))

        rng = make_rng(1)
        costs = generate_costs(tiny_cfg, rng)
        w = generate_disturbances(tiny_cfg, rng)
        trace = run_single(tiny_cfg, SpyController, costs, w, derive_run_params(tiny_cfg, costs))
        kinds = [c[0] for c in calls]
        assert kinds == ["act", "observe"] * (tiny_cfg.t - 1)
        # feedback is the gradient at the pre-transition state
        for t in range(tiny_cfg.t - 1):
            observed = calls[2 * t + 1][1]
            np.testing.assert_allclose(observed, costs[t].grad(trace.states[t]), atol=1e-12)

    def test_regret_guarantee_scalar_smoke(self):
        cfg = ExperimentConfig(
            t=100,
            n_runs=1,
            seed=2,
            a=np.array([[0.5]]),
            b=np.array([[1.0]]),
            u_box=BoxSet([-2.0], [2.0]),
            w_box=BoxSet([0.0], [0.0]),
            x1=np.zeros(1),
            disturbances_on=False,
        )
        rng = make_rng(cfg.seed)
        costs = generate_costs(cfg, rng)
        w = generate_disturbances(cfg, rng)
        params = derive_run_params(cfg, costs)
        trace = run_single(cfg, "olc", costs, w, params)
        from olcontrol import best_steady_state

        bench = best_steady_state(costs, cfg.system(), cfg.u_box)
        regret = trace.total_cost - bench.value
        kappa, gamma = cfg.system().cert.kappa, cfg.system().cert.gamma
        bound = (2 * params.l * cfg.bound.d**2 / gamma) * (
            np.sqrt(cfg.t * (1 + 4 * kappa**2)) + kappa
        )
        assert regret <= bound


class TestLockstep:
    @pytest.mark.parametrize("kind", ["olc", "dac"])
    @pytest.mark.parametrize("plant", [
        {},
        # steady-state gain with cond ~ 7.4: long projections of unequal length
        {"b": np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), "disturbances_on": False},
    ], ids=["ring_disturbed", "skewed_clean"])
    def test_matches_single_runs(self, plant, kind):
        cfg = ExperimentConfig(t=60, n_runs=3, seed=4, **plant)
        draws = [draw_run(cfg, k) for k in range(3)]
        traces = run_lockstep(cfg, kind, draws)
        assert len(traces) == 3
        for trace, (costs, w_seq, params) in zip(traces, draws):
            single = run_single(cfg, kind, costs, w_seq, params)
            for name in ("states", "inputs", "costs"):
                got = getattr(trace, name)
                assert got.flags.c_contiguous
                assert np.array_equal(got, getattr(single, name)), name

    def test_run_seeds_matches_one_seed_at_a_time(self, tiny_cfg):
        together = run_seeds(tiny_cfg, [0, 1])
        for rec in together:
            alone = run_one_seed(tiny_cfg, rec.run_index)
            for kind in ("olc", "dac"):
                np.testing.assert_array_equal(rec.traces[kind].states, alone.traces[kind].states)
            assert rec.bench_u.value == alone.bench_u.value and rec.bench_m.value == alone.bench_m.value

    @pytest.mark.parametrize("plant", [
        {},
        {"b": np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), "disturbances_on": False},
    ], ids=["ring_disturbed", "skewed_clean"])
    def test_benchmarks_match_one_seed_at_a_time(self, plant):
        cfg = ExperimentConfig(t=40, n_runs=3, seed=8, **plant)
        together = run_seeds(cfg, range(3), kinds=())
        for rec in together:
            alone = run_one_seed(cfg, rec.run_index, kinds=())
            assert (rec.bench_x is None) == cfg.disturbances_on
            for bench in ("bench_u", "bench_m") + (() if cfg.disturbances_on else ("bench_x",)):
                for name in ("optimizer", "value", "iterations", "converged", "step_costs", "value_nominal"):
                    got, want = getattr(getattr(rec, bench), name), getattr(getattr(alone, bench), name)
                    assert np.array_equal(got, want), (bench, name)

    def test_bound_violation_in_one_run_aborts(self, tiny_cfg):
        draws = [draw_run(tiny_cfg, k) for k in range(3)]
        costs, w_seq, params = draws[1]
        draws[1] = (costs, 1e6 * w_seq, params)  # far outside the disturbance box
        for kind in ("olc", "dac"):
            with pytest.raises(InvalidStateError, match=f"exceeds the certified bound {tiny_cfg.bound.d:.6g} at t=2"):
                run_lockstep(tiny_cfg, kind, draws)

    @pytest.mark.parametrize("bad", [
        lambda costs, w: (costs, np.vstack([w, w[:1]])),          # one disturbance too many
        lambda costs, w: (costs, w[:-1]),                         # one disturbance too few
        lambda costs, w: (costs, np.hstack([w, w[:, :1]])),       # disturbances one state too wide
        lambda costs, w: (QuadraticBatch(costs.qs[:-1], costs.cs[:-1]), w[:-1]),  # T-1 costs
        lambda costs, w: (costs, np.vstack([w[:-1], np.full((1, w.shape[1]), np.nan)])),  # a NaN disturbance
        None,                                                     # no draws at all
    ], ids=["long_w", "short_w", "wide_w", "short_horizon", "nan_w", "no_draws"])
    def test_unusable_draw_rejected(self, tiny_cfg, bad):
        if bad is None:
            with pytest.raises(InvalidInputError, match="no runs"):
                run_lockstep(tiny_cfg, "olc", [])
            with pytest.raises(InvalidInputError, match="no runs"):
                run_seeds(tiny_cfg, [], kinds=())
            return
        draws = [draw_run(tiny_cfg, k) for k in range(2)]
        costs, w_seq, params = draws[1]
        costs, w_seq = bad(costs, w_seq)
        draws[1] = (costs, w_seq, params)
        for kind in ("olc", "dac"):
            with pytest.raises(InvalidInputError, match="draw 1 of 2"):
                run_lockstep(tiny_cfg, kind, draws)
            with pytest.raises(InvalidInputError, match="draw 0 of 1"):
                run_single(tiny_cfg, kind, costs, w_seq, params)


class TestRegret:
    def test_last_row_matches_totals(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        rep = compute_regret(rec)
        for kind in ("olc", "dac"):
            expected = rec.traces[kind].total_cost - rec.bench_u.value
            assert rep.regret_u[kind][-1] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            expected_m = rec.traces[kind].total_cost - rec.bench_m.value
            assert rep.regret_m[kind][-1] == pytest.approx(expected_m, rel=1e-9, abs=1e-9)

    def test_no_traces_gives_empty_curves(self, tiny_cfg):
        # the record `olcontrol bench` builds: benchmarks only
        rep = compute_regret(run_one_seed(tiny_cfg, 0, kinds=()))
        assert rep.cum_costs == {}
        assert rep.regret_u == {} and rep.regret_m == {}
        assert rep.regret_x is None

    @pytest.mark.parametrize("disturbances_on", [True, False])
    def test_u_and_m_regret_zero_at_first_step(self, disturbances_on):
        # every trajectory starts at x1 and is scored the same way
        cfg = ExperimentConfig(t=50, n_runs=3, seed=3, disturbances_on=disturbances_on)
        for k in range(cfg.n_runs):
            rep = compute_regret(run_one_seed(cfg, k))
            for bench in ("u", "m"):
                for kind in ("olc", "dac"):
                    assert rep.curve(bench, kind)[0] == 0.0, (k, bench, kind)

    def test_clean_dac_regret_zero_throughout(self):
        # without disturbances the DAC plays its benchmark's inputs, all zero
        cfg = ExperimentConfig(t=50, n_runs=3, seed=3, disturbances_on=False)
        for k in range(cfg.n_runs):
            rec = run_one_seed(cfg, k, kinds=("dac",))
            np.testing.assert_array_equal(rec.traces["dac"].inputs, 0.0)
            np.testing.assert_array_equal(compute_regret(rec).curve("m", "dac"), 0.0)

    def test_missing_benchmark_rejected(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        rec.bench_u = None
        with pytest.raises(InvalidStateError):
            compute_regret(rec)

    def test_replaying_optimizer_gives_zero_regret(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        u_star = rec.bench_u.optimizer

        class ReplayController:
            feedback = "gradient"

            def __init__(self, sys, cfg, params):
                pass

            def act(self, x):
                return u_star

            def observe(self, delta, x_next=None):
                pass

        trace = run_single(tiny_cfg, ReplayController, rec.costs, rec.w_seq, rec.params)
        regret = trace.total_cost - rec.bench_u.value
        assert regret == pytest.approx(0.0, abs=1e-9 * max(1.0, rec.bench_u.value))

    def test_regret_u_nonnegative(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        rep = compute_regret(rec)
        scale = max(1.0, rec.bench_u.value)
        for kind in ("olc", "dac"):
            assert rep.regret_u[kind][-1] >= -1e-8 * scale

    def test_benchmark_gap_magnitude(self):
        cfg = ExperimentConfig(t=60, n_runs=1, seed=4, disturbances_on=False)
        rec = run_one_seed(cfg, 0, kinds=("olc",))
        gap = rec.bench_u.value - rec.bench_x.value
        cert = cfg.system().cert
        limit = 2 * cert.kappa * rec.params.l * cfg.bound.d**2 / cert.gamma
        assert abs(gap) <= limit


class TestExperimentOutput:
    def test_csv_bundle(self, tiny_cfg, tmp_path):
        result = run_experiment(tiny_cfg, output_dir=tmp_path / "out")
        assert not result.failures
        run0 = (tmp_path / "out" / "run_0.csv").read_text().splitlines()
        assert run0[0] == "t,cost_olc,cost_dac,cum_olc,cum_dac,regret_olc_u,regret_dac_u,regret_olc_m,regret_dac_m"
        assert len(run0) == 1 + tiny_cfg.t
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("t,mean_regret_olc_u,std_regret_olc_u")
        assert len(summary) == 1 + tiny_cfg.t
        bench = (tmp_path / "out" / "benchmarks.csv").read_text().splitlines()
        assert bench[0] == "run,bench_u,bench_m"
        assert len(bench) == 1 + tiny_cfg.n_runs

    def test_clean_mode_has_x_columns(self, tmp_path):
        cfg = ExperimentConfig(t=10, n_runs=1, seed=5, disturbances_on=False)
        run_experiment(cfg, output_dir=tmp_path / "out")
        header = (tmp_path / "out" / "run_0.csv").read_text().splitlines()[0]
        assert header.endswith("regret_olc_x,regret_dac_x")

    def test_byte_identical_reruns(self, tiny_cfg, tmp_path):
        run_experiment(tiny_cfg, output_dir=tmp_path / "a")
        run_experiment(tiny_cfg, output_dir=tmp_path / "b")
        for name in ("run_0.csv", "run_1.csv", "summary.csv", "benchmarks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_twelve_significant_digits(self, tiny_cfg, tmp_path):
        run_experiment(tiny_cfg, output_dir=tmp_path / "out")
        row = (tmp_path / "out" / "run_0.csv").read_text().splitlines()[1].split(",")
        value = row[1]
        if "." in value:
            digits = value.replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) <= 12

    def test_failed_run_recorded_and_isolated(self, tiny_cfg, tmp_path, monkeypatch):
        import olcontrol.harness as harness_mod

        real = harness_mod.run_seeds

        def flaky(cfg, ks, **kwargs):
            if 0 in ks:
                raise RuntimeError("synthetic failure")
            return real(cfg, ks, **kwargs)

        monkeypatch.setattr(harness_mod, "run_seeds", flaky)
        result = run_experiment(tiny_cfg, output_dir=tmp_path / "out")
        assert result.failures == {0: "RuntimeError: synthetic failure"}
        assert not (tmp_path / "out" / "run_0.csv").exists()
        assert (tmp_path / "out" / "run_1.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        manifest = (tmp_path / "out" / "failures.csv").read_text().splitlines()
        assert manifest[0] == "run,error" and manifest[1].startswith("0,")

    def test_clean_rerun_removes_stale_failures(self, tiny_cfg, tmp_path, monkeypatch):
        import olcontrol.harness as harness_mod

        real = harness_mod.run_seeds

        def failing(cfg, ks, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness_mod, "run_seeds", failing)
        assert run_experiment(tiny_cfg, output_dir=tmp_path / "out").failures
        assert (tmp_path / "out" / "failures.csv").exists()
        monkeypatch.setattr(harness_mod, "run_seeds", real)
        assert not run_experiment(tiny_cfg, output_dir=tmp_path / "out").failures
        assert not (tmp_path / "out" / "failures.csv").exists()

    def test_out_holds_only_this_bundle(self, tiny_cfg, tmp_path, monkeypatch):
        import olcontrol.harness as harness_mod

        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        (out / "run_x.csv").write_text("keep")
        run_experiment(replace(tiny_cfg, n_runs=3), output_dir=out)
        run_experiment(replace(tiny_cfg, n_runs=1), output_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmarks.csv", "notes.txt", "run_0.csv", "run_x.csv", "summary.csv"]

        real = harness_mod.run_seeds

        def flaky(cfg, ks, **kwargs):
            if 1 in ks:
                raise RuntimeError("synthetic failure")
            return real(cfg, ks, **kwargs)

        monkeypatch.setattr(harness_mod, "run_seeds", flaky)
        run_experiment(replace(tiny_cfg, n_runs=2), output_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmarks.csv", "failures.csv", "notes.txt", "run_0.csv", "run_x.csv", "summary.csv"]

        monkeypatch.setattr(harness_mod, "run_seeds", lambda cfg, ks: flaky(cfg, [1]))
        run_experiment(replace(tiny_cfg, n_runs=2), output_dir=out)
        assert sorted(p.name for p in out.iterdir()) == ["failures.csv", "notes.txt", "run_x.csv"]

    def test_failing_seed_isolated_under_lockstep(self, tmp_path, monkeypatch):
        import olcontrol.harness as harness_mod

        cfg = ExperimentConfig(t=30, n_runs=3, seed=6)
        run_experiment(cfg, output_dir=tmp_path / "clean")
        real = harness_mod.draw_run

        def blow_up_seed_1(cfg, run_index):
            costs, w_seq, params = real(cfg, run_index)
            if run_index == 1:
                w_seq = 1e6 * w_seq  # far outside the disturbance box: the state leaves the D-ball
            return costs, w_seq, params

        monkeypatch.setattr(harness_mod, "draw_run", blow_up_seed_1)
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        assert list(result.failures) == [1]
        with open(tmp_path / "out" / "failures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["run", "1"]
        assert rows[1][1].startswith("InvalidStateError: state norm")
        for k in (0, 2):
            name = f"run_{k}.csv"
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
        assert not (tmp_path / "out" / "run_1.csv").exists()

    def test_hindsight_failure_isolated_under_lockstep(self, tmp_path, monkeypatch):
        import olcontrol.benchmarks as bench_mod

        cfg = ExperimentConfig(t=30, n_runs=3, seed=6)
        run_experiment(cfg, output_dir=tmp_path / "clean")
        # seed 1's fixed-input model, which the batched pass builds bit for bit
        costs, w_seq, _ = draw_run(cfg, 1)
        [seed_1_model] = bench_mod._fixed_input_models(bench_mod._runs(cfg.system(), cfg.x1, [(w_seq, costs)]))
        real = bench_mod._projected_descent

        def fail_seed_1(model, project, x0):
            if np.array_equal(model.g, seed_1_model.g):
                raise RuntimeError("synthetic hindsight failure")
            return real(model, project, x0)

        monkeypatch.setattr(bench_mod, "_projected_descent", fail_seed_1)
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        assert result.failures == {1: "RuntimeError: synthetic hindsight failure"}
        with open(tmp_path / "out" / "failures.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["run", "error"], ["1", "RuntimeError: synthetic hindsight failure"]]
        for k in (0, 2):
            name = f"run_{k}.csv"
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
        assert not (tmp_path / "out" / "run_1.csv").exists()

    def test_failure_message_is_one_field(self, tiny_cfg, tmp_path, monkeypatch):
        import olcontrol.harness as harness_mod

        message = 'shapes (2,) and (3,) not aligned: "quoted"\nsecond line'

        def failing(cfg, ks):
            raise ValueError(message)

        monkeypatch.setattr(harness_mod, "run_seeds", failing)
        run_experiment(tiny_cfg, output_dir=tmp_path / "out")
        with open(tmp_path / "out" / "failures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["run", "error"], ["0", f"ValueError: {message}"], ["1", f"ValueError: {message}"]]

    def test_columns_follow_the_table(self, tmp_path):
        cfg = ExperimentConfig(t=10, n_runs=2, seed=5, disturbances_on=False)
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        run0 = np.loadtxt(tmp_path / "out" / "run_0.csv", delimiter=",", skiprows=1)
        summary = np.loadtxt(tmp_path / "out" / "summary.csv", delimiter=",", skiprows=1)
        assert len(REGRET_COLUMNS) == 6
        for i, (col, bench, kind) in enumerate(REGRET_COLUMNS):
            assert col == f"regret_{kind}_{bench}"
            curves = np.stack([rep.curve(bench, kind) for rep in result.reports])
            np.testing.assert_allclose(run0[:, 5 + i], curves[0], rtol=1e-11)
            np.testing.assert_allclose(summary[:, 1 + 2 * i], curves.mean(axis=0), rtol=1e-11, atol=1e-9)

    def test_x1_config_key(self):
        cfg = config_from_dict({
            "T": 10,
            "x1": [1.0, 0.0, -1.0],
            "u_box": {"lower": [-5, -5], "upper": [5, 5]},
            "w_box": {"lower": [-0.5] * 3, "upper": [0.5] * 3},
        })
        np.testing.assert_allclose(cfg.x1, [1.0, 0.0, -1.0])


# B = [[1, 1.2], [0, 0], [1, 1]]: cond(S) ~ 24, too slow for the fixed-step
# projection within its cap, so every run's OLC loop raises
COND_S_24_B = np.array([[1.0, 1.2], [0.0, 0.0], [1.0, 1.0]])
forks_here = pytest.mark.skipif(sys.platform != "linux", reason="run_seeds forks only on Linux")


@pytest.fixture()
def deadline():
    """Fail, instead of hanging, a test still running after 60 s: a parent
    that waits for a child still writing to it never returns."""
    def expired(signum, frame):
        raise TimeoutError("still running after 60 s")

    if not hasattr(signal, "SIGALRM"):  # Windows, where run_seeds does not fork
        yield
        return
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestForkedFirstKind:
    """run_seeds plays the first kind in a forked child while it plays the
    others and solves the benchmarks itself."""

    @pytest.mark.parametrize("can_fork", [pytest.param(True, marks=forks_here), False],
                             ids=["forked", "in_process"])
    def test_traces_match_in_process_lockstep(self, monkeypatch, can_fork):
        import olcontrol.harness as harness_mod

        monkeypatch.setattr(harness_mod, "_CAN_FORK", can_fork)
        forks, real_fork = [], getattr(os, "fork", None)  # Windows has none
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork(), raising=False)
        # T = 1000: the child's traces outgrow a 64 KiB pipe buffer
        cfg = ExperimentConfig(t=1000, n_runs=3, seed=5)
        records = run_seeds(cfg, range(3))
        assert len(forks) == can_fork
        want = run_lockstep(cfg, "olc", [draw_run(cfg, k) for k in range(3)])
        assert len(pickle.dumps(want)) > 1 << 16
        for rec, trace in zip(records, want):
            for name in ("states", "inputs", "costs"):
                assert np.array_equal(getattr(rec.traces["olc"], name), getattr(trace, name)), name

    def test_child_failure_raised_and_recorded(self, tmp_path):
        import olcontrol.harness as harness_mod

        cfg = ExperimentConfig(t=60, n_runs=2, seed=3, b=COND_S_24_B)
        with pytest.raises(ProjectionFailureError, match="did not converge") as info:
            run_seeds(cfg, [0])
        if harness_mod._CAN_FORK:
            # the child's traceback is the cause
            assert isinstance(info.value.__cause__, harness_mod._ChildTraceback)
            assert "_box_least_squares" in str(info.value.__cause__)
        run_experiment(cfg, output_dir=tmp_path)
        # the bytes the kinds wrote when they played in turn, in one process
        assert (tmp_path / "failures.csv").read_text() == (
            "run,error\n"
            "0,ProjectionFailureError: projection did not converge: still moving 4.270e-09 after 5000 iterations\n"
            "1,ProjectionFailureError: projection did not converge: still moving 7.743e-08 after 5000 iterations\n"
        )

    def test_first_kinds_failure_wins(self, tiny_cfg, monkeypatch):
        import olcontrol.harness as harness_mod

        def hindsight_fails(*args, **kwargs):
            raise RuntimeError("synthetic hindsight failure")

        monkeypatch.setattr(harness_mod, "solve_benchmarks", hindsight_fails)
        with pytest.raises(ProjectionFailureError):
            run_seeds(ExperimentConfig(t=60, n_runs=1, seed=3, b=COND_S_24_B), [0])
        with pytest.raises(RuntimeError, match="synthetic hindsight failure"):
            run_seeds(tiny_cfg, [0, 1])

    @forks_here
    def test_child_death_named(self, tiny_cfg, monkeypatch):
        import olcontrol.harness as harness_mod

        parent, real = os.getpid(), harness_mod.run_lockstep

        def dies_in_child(cfg, kind, draws):
            if os.getpid() != parent:
                os._exit(7)
            return real(cfg, kind, draws)

        monkeypatch.setattr(harness_mod, "run_lockstep", dies_in_child)
        with pytest.raises(ChildProcessError, match="exit status 7"):
            run_seeds(tiny_cfg, [0, 1])

    @forks_here
    def test_interrupted_parent_kills_child(self, tiny_cfg, monkeypatch):
        import olcontrol.harness as harness_mod

        class Interrupt(BaseException):
            pass

        parent, real = os.getpid(), harness_mod.run_lockstep

        def slow_in_child(cfg, kind, draws):
            if os.getpid() != parent:
                time.sleep(60)
            return real(cfg, kind, draws)

        def interrupted(*args, **kwargs):
            raise Interrupt

        monkeypatch.setattr(harness_mod, "run_lockstep", slow_in_child)
        monkeypatch.setattr(harness_mod, "solve_benchmarks", interrupted)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            run_seeds(tiny_cfg, [0, 1])
        assert time.monotonic() - start < 30.0

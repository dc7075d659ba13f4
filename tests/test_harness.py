import csv
import json
import traceback
from dataclasses import fields, replace
from pathlib import Path

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
    QuadraticBatch,
    QuadraticCost,
    compute_regret,
    config_from_dict,
    load_config,
)
from olcontrol.cli import cli_main
from olcontrol.costs import as_batch
from olcontrol.harness import (
    CostGenConfig,
    DacConfig,
    ExperimentConfig,
    OlcConfig,
    RunParams,
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
    solve_draws,
    _CONFIG,
    _Section,
)
from olcontrol.controllers import dac_radii, project_dac_blocks
from olcontrol.linalg import spectral_norm
from olcontrol.system import StateBound, state_bound


@pytest.fixture()
def tiny_cfg():
    return ExperimentConfig(t=12, n_runs=2, seed=3)


# (Python overrides, the same value in JSON): numbers that pass a type
# check but are too large for numpy, an int64 or a float
OVERSIZED = {
    "T": ({"t": 10**400}, {"T": 10**400}),
    "n_runs": ({"n_runs": 2**63}, {"n_runs": 2**63}),
    "H_mem": ({"dac": DacConfig(h_mem=2**63)}, {"dac": {"H_mem": 2**63}}),
    "radius": ({"dac": DacConfig(radius=10**400)}, {"dac": {"radius": 10**400}}),
    "eta_g": ({"dac": DacConfig(eta_g=10**400)}, {"dac": {"eta_g": 10**400}}),
    "eta_override": ({"olc": OlcConfig(eta_override=10**400)}, {"olc": {"eta_override": 10**400}}),
    "c_max": ({"cost_gen": CostGenConfig(c_max=10**400)}, {"cost_gen": {"c_max": 10**400}}),
    "q_scale": ({"cost_gen": CostGenConfig(q_scale=10**400)}, {"cost_gen": {"q_scale": 10**400}}),
    "q_ridge": ({"cost_gen": CostGenConfig(q_ridge=10**400)}, {"cost_gen": {"q_ridge": 10**400}}),
    "x1": ({"x1": [10**400, 0, 0]}, {"x1": [10**400, 0, 0]}),
}


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
        {"dac": DacConfig(h_mem=2.5)},
        {"dac": DacConfig(h_mem=True)},
        {"t": 5.5},
        {"seed": 1.5},
        {"n_runs": 2.5},
        {"seed": True},
        {"disturbances_on": "no"},
        {"output_dir": 3},
        {"cost_gen": CostGenConfig(q_ridge=True)},
        {"olc": OlcConfig(eta_override=True)},
        {"cost_gen": CostGenConfig(q_scale="5")},
        {"dac": DacConfig(eta_g="x")},
        {"u_box": [[-1, -1], [1, 1]]},
        {"dac": {"h_mem": 3}},
        {"u_box": BoxSet.symmetric(1.0, 3)},
        {"w_box": BoxSet.symmetric(1.0, 2)},
    ], ids=["seed", "t", "n_runs", "b", "h_mem", "h_mem_float", "h_mem_bool", "t_float", "seed_float",
            "n_runs_float", "seed_bool", "disturbances_on_text", "output_dir_int", "q_ridge_bool",
            "eta_override_bool", "q_scale_text", "eta_g_text", "u_box_list", "dac_dict", "u_box_dim", "w_box_dim"])
    def test_checked_when_built(self, overrides):
        # no config object exists that a run could not use
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    def test_numpy_scalars_and_paths_accepted(self, tmp_path):
        cfg = ExperimentConfig(seed=np.int64(3), t=np.int32(12), n_runs=np.uint8(1),
                               cost_gen=CostGenConfig(q_scale=1, c_max=np.float32(5.0)),
                               dac=DacConfig(h_mem=np.int64(4), eta_g=np.float64(0.1)),
                               disturbances_on=np.bool_(False), output_dir=tmp_path / "out")
        result = run_experiment(cfg)
        assert not result.failures and result.output_dir == tmp_path / "out"

    @pytest.mark.parametrize("kwargs", [
        {"a": np.array([[1.5]]), "b": np.array([[1.0]]),
         "u_box": BoxSet([-1.0], [1.0]), "w_box": BoxSet([-1.0], [1.0])},
        {"a": 0.5 * np.eye(2)},
        {"x1": [0, "a", 0]},
    ], ids=["unstable", "b_rows", "x1_text"])
    def test_plant_errors_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError, match="bad plant or x1"):
            ExperimentConfig(**kwargs)

    def test_inputs_past_the_box_solve_refused(self):
        # the hindsight box solves enumerate 3^M faces, M <= 8: a ninth input
        # is refused when the config is made, not after every run's loops
        assert ExperimentConfig(b=np.full((3, 8), 0.1)).b.shape == (3, 8)
        with pytest.raises(ConfigError, match="B has 9 inputs"):
            ExperimentConfig(b=np.full((3, 9), 0.1))

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

    @pytest.mark.parametrize("name", list(OVERSIZED))
    def test_oversized_numbers_rejected(self, name, tmp_path, capsys):
        overrides, doc = OVERSIZED[name]
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["check", "--config", str(path)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_largest_numbers_accepted(self, tmp_path, capsys):
        assert ExperimentConfig(n_runs=2**63 - 1, dac=DacConfig(h_mem=2**63 - 1)).n_runs == 2**63 - 1
        assert config_from_dict({"cost_gen": {"c_max": 1e308}}).cost_gen.c_max == 1e308
        # PCG64 takes any integer >= 0, so the seed has no upper limit
        record = run_one_seed(ExperimentConfig(seed=10**400, t=12, n_runs=1), 0)
        assert record.seed == 10**400 and np.isfinite(record.traces["olc"].costs).all()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 10**400, "T": 12, "n_runs": 1}))
        assert load_config(path).seed == 10**400
        assert cli_main(["check", "--config", str(path)]) == 0
        capsys.readouterr()

    def test_integer_past_the_json_digit_limit(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"T": 1%s}' % ("0" * 5000))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_values_stored_as_plain_python(self, tmp_path):
        cfg = ExperimentConfig(seed=np.int64(3), t=np.int32(12), n_runs=np.uint8(1),
                               cost_gen=CostGenConfig(q_scale=1, c_max=np.float32(5.0)),
                               olc=OlcConfig(eta_override=np.float64(0.2)),
                               dac=DacConfig(h_mem=np.int64(4), eta_g=np.float64(0.1)),
                               disturbances_on=np.bool_(False), output_dir=tmp_path)
        values = [cfg.seed, cfg.t, cfg.n_runs, cfg.dac.h_mem, cfg.cost_gen.q_scale, cfg.cost_gen.q_ridge,
                  cfg.cost_gen.c_max, cfg.olc.eta_override, cfg.dac.eta_g, cfg.disturbances_on]
        assert [type(v) for v in values] == [int] * 4 + [float] * 5 + [bool]
        assert cfg.output_dir is tmp_path and cfg.dac.radius is None

    def test_default_json_is_the_default_config(self):
        doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
        from_json, default = config_from_dict(doc), ExperimentConfig()
        for f in fields(ExperimentConfig):
            if not f.init:
                continue
            got, want = getattr(from_json, f.name), getattr(default, f.name)
            if isinstance(want, BoxSet):
                assert np.array_equal(got.lower, want.lower) and np.array_equal(got.upper, want.upper), f.name
            elif isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

    def test_table_matches_the_dataclasses(self):
        # each section's rows name every init field of its class exactly
        # once, so no key can be read from JSON and left unchecked
        def init_fields(cls):
            return sorted(f.name for f in fields(cls) if f.init)

        sections = []

        def row_fields(rows):
            names = []
            for name, kind in rows.values():
                if isinstance(kind, _Section) and kind.cls is None:
                    names += row_fields(kind.rows)  # fields of the enclosing class
                    continue
                names.append(name)
                if isinstance(kind, _Section):
                    assert sorted(row_fields(kind.rows)) == init_fields(kind.cls), name
                    sections.append(kind.cls)
            return names

        assert sorted(row_fields(_CONFIG)) == init_fields(ExperimentConfig)
        assert set(sections) == {CostGenConfig, OlcConfig, DacConfig, BoxSet}


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("horizon", [2, 7, 500])
    @pytest.mark.parametrize("c_max", [0.0, 0.3, 5.0])
    def test_costs_match_per_step_draws(self, seed, n, horizon, c_max):
        # reference: one fresh draw of S, then one of c, per step, and the
        # documented formula; the stacks and the stream left after them (so
        # the disturbances drawn next) must be exactly this loop's
        cfg = ExperimentConfig(t=horizon, n_runs=1, seed=seed, a=0.5 * np.eye(n), b=np.eye(n)[:, :1],
                               cost_gen=CostGenConfig(c_max=c_max))
        rng, ref = make_rng(seed), make_rng(seed)
        batch = generate_costs(cfg, rng)
        assert isinstance(batch, QuadraticBatch) and len(batch) == horizon
        gen = cfg.cost_gen
        ss, cs = [], []
        for _ in range(horizon):
            ss.append(ref.standard_normal((n, n)))
            cs.append(ref.uniform(0.0, c_max, size=n))
        q = gen.q_scale * (np.matmul(np.swapaxes(ss, 1, 2), ss) / n + gen.q_ridge * np.eye(n))
        assert np.array_equal(batch.qs, 0.5 * (q + q.swapaxes(1, 2)))
        assert np.array_equal(batch.cs, np.array(cs))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(generate_disturbances(cfg, rng), generate_disturbances(cfg, ref))

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
        batch, w_seq, params = draw_run(tiny_cfg, 0)
        [lockstep] = run_lockstep(tiny_cfg, kind, [(batch, w_seq, params)])
        costs = [batch[t] for t in range(tiny_cfg.t)]
        trace = run_single(tiny_cfg, kind, costs, w_seq, params)
        np.testing.assert_array_equal(trace.states, lockstep.states)
        np.testing.assert_array_equal(trace.costs, as_batch(costs).values(trace.states))
        np.testing.assert_array_equal(lockstep.costs, batch.values(trace.states))

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

    @pytest.mark.parametrize("played", [
        np.array([[np.nan, 0.0]]),   # a NaN input
        np.array([[np.inf, 0.0]]),   # an infinite one
        np.zeros((1, 3)),            # one input too many
        np.zeros(2),                 # no run axis
    ], ids=["nan", "inf", "wide", "no_run_axis"])
    def test_controller_input_checked_as_it_leaves_act(self, tiny_cfg, played):
        class Playing:
            feedback = "gradient"

            def __init__(self, sys, cfg, params):
                pass

            def act(self, x):
                return played

            def observe(self, delta, x_next):
                pass

        costs, w_seq, params = draw_run(tiny_cfg, 0)
        with pytest.raises(InvalidInputError, match="input"):
            run_single(tiny_cfg, Playing, costs, w_seq, params)

    def test_nan_state_is_a_state_error_where_it_appears(self):
        # a nilpotent A with a large entry is certified (gamma 0.95), so a
        # state 1e10 far along its second coordinate is within D; the
        # controller's next input, finite but 1e308, overflows B u to +inf
        # where A x overflows to -inf, and the state it drives is NaN
        cfg = ExperimentConfig(t=5, n_runs=1, a=np.array([[0.0, -1e300], [0.0, 0.0]]), b=np.array([[4.0], [1.0]]),
                               u_box=BoxSet.symmetric(5.0, 1), w_box=BoxSet.symmetric(0.5, 2),
                               dac=DacConfig(radius=1.0))

        class Overflowing:
            feedback = "gradient"

            def __init__(self, sys, cfg, params):
                self.rounds = 0

            def act(self, x):
                self.rounds += 1
                return np.array([[1e10 if self.rounds == 1 else 1e308]])

            def observe(self, delta, x_next):
                pass

        costs = generate_costs(cfg, make_rng(0))
        w_seq = generate_disturbances(cfg, make_rng(1))
        params = RunParams(l=1.0, eta=1.0)  # kappa^2 overflows the derived step; the controller reads none
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidStateError, match="state norm nan exceeds the certified bound .* at t=3"):
                run_single(cfg, Overflowing, costs, w_seq, params)

    def test_olc_target_is_steady_state_of_input(self, tiny_cfg):
        # a trace keeps no targets: the OLC target at round t is S @ inputs[t]
        seen = []

        def recording(sys, cfg, params):
            ctrl = OlcController(sys, cfg.u_box, np.array([p.eta for p in params]), z0=cfg.x1[None])
            act = ctrl.act

            def act_and_record(x):
                seen.append(ctrl.z[0].copy())
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
                calls.append(("act", np.array(x[0])))
                return np.zeros((1, self.sys.input_dim))

            def observe(self, delta, x_next=None):
                calls.append(("observe", np.array(delta[0])))

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

    def test_run_single_is_one_run_lockstep(self, tiny_cfg):
        draws = [draw_run(tiny_cfg, k) for k in range(3)]
        seen = []

        def recording(sys, cfg, params):
            seen.append(params)
            eta = np.array([p.eta for p in params])
            return OlcController(sys, cfg.u_box, eta, z0=np.broadcast_to(cfg.x1, eta.shape + cfg.x1.shape))

        run_single(tiny_cfg, recording, *draws[0])
        run_lockstep(tiny_cfg, recording, draws)
        # a callable kind always gets the params list: R = 1, then R = 3
        assert seen == [[draws[0][2]], [params for _, _, params in draws]]
        assert all(type(params) is list for params in seen)
        for kind in ("olc", "dac"):
            single = run_single(tiny_cfg, kind, *draws[0])
            lockstep = run_lockstep(tiny_cfg, kind, draws[:1])[0]
            for name in ("states", "inputs", "costs"):
                assert np.array_equal(getattr(single, name), getattr(lockstep, name)), (kind, name)

    def test_run_seeds_matches_one_seed_at_a_time(self, tiny_cfg):
        together = run_seeds(tiny_cfg, [0, 1])
        for rec in together:
            alone = run_one_seed(tiny_cfg, rec.run_index)
            for kind in ("olc", "dac"):
                np.testing.assert_array_equal(rec.traces[kind].states, alone.traces[kind].states)
            assert rec.bench_u.value == alone.bench_u.value and rec.bench_m.value == alone.bench_m.value

    def test_run_seeds_checks_the_draws_once(self, tiny_cfg, monkeypatch):
        # one checked _Runs, shared by both controllers and the hindsight pass
        import olcontrol.harness as harness_mod
        from olcontrol.benchmarks import _runs

        built = []

        def counted(*args, **kwargs):
            built.append(_runs(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness_mod, "_runs", counted)
        run_seeds(tiny_cfg, [0, 1])
        assert len(built) == 1

    @pytest.mark.parametrize("plant", [
        {},
        {"b": np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), "disturbances_on": False},
    ], ids=["ring_disturbed", "skewed_clean"])
    def test_benchmarks_match_one_seed_at_a_time(self, plant):
        cfg = ExperimentConfig(t=40, n_runs=3, seed=8, **plant)
        draws = [draw_run(cfg, k) for k in range(3)]
        for draw, together in zip(draws, solve_draws(cfg, draws)):
            [alone] = solve_draws(cfg, [draw])
            assert (together[2] is None) == cfg.disturbances_on
            for bench, got, want in zip("umx", together, alone):
                if got is None:
                    continue
                for name in ("optimizer", "value", "iterations", "converged", "step_costs", "value_nominal"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (bench, name)

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
        lambda costs, w: (costs, "abc"),                          # disturbances given as text
        lambda costs, w: (costs, [list(w[0]), list(w[1, :2])]),   # ragged disturbances
        lambda costs, w: (costs, {"w": w}),                       # disturbances in a dict
        None,                                                     # no draws at all
    ], ids=["long_w", "short_w", "wide_w", "short_horizon", "nan_w", "text_w", "ragged_w", "dict_w", "no_draws"])
    def test_unusable_draw_rejected(self, tiny_cfg, bad):
        if bad is None:
            with pytest.raises(InvalidInputError, match="no runs"):
                run_lockstep(tiny_cfg, "olc", [])
            with pytest.raises(InvalidInputError, match="no runs"):
                run_seeds(tiny_cfg, [])
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


def looped_dac(sys, cfg, params):
    """DAC as a callable kind, which always plays the round loop."""
    return DacController(sys, cfg.u_box, cfg.dac.h_mem, cfg.dac_eta_g, cfg.dac_radius, runs=len(params))


# disturbed plants on which DAC's inputs move: the ring, the skewed plant and
# criterion 17's box, where the clip binds
DISTURBED_PLANTS = {
    "ring": {},
    "skewed": {"b": np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])},
    "criterion17_box": {"u_box": BoxSet(np.array([-0.25, -0.5]), np.array([2.0, 1.0]))},
}


class TestDacWithoutPlant:
    """Kind "dac" learns from the drawn disturbances with no plant in its
    loop and gets its states from one rollout; the round protocol, which
    recovers each disturbance from the transition, agrees with it to
    roundoff."""

    @pytest.mark.parametrize("plant", DISTURBED_PLANTS.values(), ids=DISTURBED_PLANTS.keys())
    def test_matches_the_round_protocol(self, plant, monkeypatch):
        import olcontrol.harness as harness_mod

        cfg = ExperimentConfig(t=300, n_runs=3, seed=7, **plant)
        draws = [draw_run(cfg, k) for k in range(3)]
        looped = run_lockstep(cfg, looped_dac, draws)
        monkeypatch.setattr(harness_mod, "transition", None)  # stepping the plant would raise
        for got, want in zip(run_lockstep(cfg, "dac", draws), looped):
            assert np.max(np.abs(got.inputs - want.inputs)) <= 1e-12
            assert abs(got.total_cost - want.total_cost) <= 1e-12 * abs(want.total_cost)

    def test_clip_binds_on_criterion17_box(self):
        cfg = ExperimentConfig(t=300, n_runs=3, seed=7, **DISTURBED_PLANTS["criterion17_box"])
        inputs = np.stack([tr.inputs for tr in run_lockstep(cfg, "dac", [draw_run(cfg, k) for k in range(3)])])
        assert np.any((inputs == cfg.u_box.lower) | (inputs == cfg.u_box.upper))

    @pytest.mark.parametrize("plant", DISTURBED_PLANTS.values(), ids=DISTURBED_PLANTS.keys())
    def test_lockstep_matches_runs_alone(self, plant):
        cfg = ExperimentConfig(t=120, n_runs=3, seed=9, **plant)
        draws = [draw_run(cfg, k) for k in range(3)]
        for trace, draw in zip(run_lockstep(cfg, "dac", draws), draws):
            [alone] = run_lockstep(cfg, "dac", [draw])
            for name in ("states", "inputs", "costs"):
                assert getattr(trace, name).flags.c_contiguous, name
                assert np.array_equal(getattr(trace, name), getattr(alone, name)), name

    @pytest.mark.parametrize("changed", [0, 1, 17, 58], ids=lambda s: f"from_w{s}")
    def test_inputs_are_causal(self, changed):
        # w_s for s >= changed replaced: the input at round t reads w_0..w_{t-1},
        # so every input up to round ``changed`` keeps its bits
        cfg = ExperimentConfig(t=60, n_runs=2, seed=3)
        draws = [draw_run(cfg, k) for k in range(2)]
        other = [draw_run(cfg, k + 2)[1] for k in range(2)]
        changed_draws = [
            (costs, np.vstack([w_seq[:changed], w_other[changed:]]), params)
            for (costs, w_seq, params), w_other in zip(draws, other)
        ]
        for got, want in zip(run_lockstep(cfg, "dac", changed_draws), run_lockstep(cfg, "dac", draws)):
            assert np.array_equal(got.inputs[: changed + 1], want.inputs[: changed + 1])
            assert not np.array_equal(got.states[changed + 1 :], want.states[changed + 1 :])
            if changed + 1 < len(want.inputs):
                assert not np.array_equal(got.inputs[changed + 1 :], want.inputs[changed + 1 :])


class TestCleanDac:
    """With every disturbance zero, DAC's blocks never move and it plays
    ``clip(0)``: ``run_lockstep(cfg, "dac", ...)`` builds no controller and
    keeps every bit of the round loop."""

    @pytest.mark.parametrize("x1", [None, [1.0, 0.0, -1.0]], ids=["origin", "off_origin"])
    @pytest.mark.parametrize("plant", [
        {"disturbances_on": False},
        {"b": np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), "disturbances_on": False},
        # criterion 17's box
        {"u_box": BoxSet(np.array([-0.25, -0.5]), np.array([2.0, 1.0])), "disturbances_on": False},
        {"u_box": BoxSet(np.array([0.0, -1.0]), np.array([2.0, 0.0])), "disturbances_on": False},
        # disturbances on, drawn from a box that holds only 0
        {"w_box": BoxSet(np.zeros(3), np.zeros(3))},
    ], ids=["ring", "skewed", "criterion17_box", "box_bound_at_zero", "zero_w_box"])
    def test_matches_the_loop(self, plant, x1, monkeypatch):
        import olcontrol.harness as harness_mod

        cfg = ExperimentConfig(t=80, n_runs=3, seed=5, x1=x1, **plant)
        draws = [draw_run(cfg, k) for k in range(3)]
        assert not any(w_seq.any() for _, w_seq, _ in draws)
        looped = run_lockstep(cfg, looped_dac, draws)
        monkeypatch.setattr(harness_mod, "DacController", None)  # building one would raise
        for got, want in zip(run_lockstep(cfg, "dac", draws), looped):
            for name in ("states", "inputs", "costs"):
                assert getattr(got, name).flags.c_contiguous, name
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_box_without_zero_plays_its_clip(self, monkeypatch):
        import olcontrol.harness as harness_mod

        box = BoxSet(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        cfg = ExperimentConfig(t=60, n_runs=2, seed=3, u_box=box, disturbances_on=False)
        draws = [draw_run(cfg, k) for k in range(2)]
        looped = run_lockstep(cfg, looped_dac, draws)
        monkeypatch.setattr(harness_mod, "DacController", None)  # building one would raise
        for trace, want in zip(run_lockstep(cfg, "dac", draws), looped):
            assert np.array_equal(trace.inputs, np.broadcast_to(np.clip(0.0, box.lower, box.upper), trace.inputs.shape))
            for name in ("states", "inputs", "costs"):
                assert np.array_equal(getattr(trace, name), getattr(want, name)), name

    def test_bound_violation_has_the_loops_message(self):
        # a non-normal plant whose free response from x1 grows at its
        # second state, past a D shrunk between the two norms
        cfg = ExperimentConfig(t=20, n_runs=2, seed=3, a=np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]),
                               x1=[0.0, 1.0, 0.0], disturbances_on=False)
        object.__setattr__(cfg, "bound", StateBound(1.05))
        draws = [draw_run(cfg, k) for k in range(2)]
        with pytest.raises(InvalidStateError) as looped:
            run_lockstep(cfg, looped_dac, draws)
        with pytest.raises(InvalidStateError) as shortcut:
            run_lockstep(cfg, "dac", draws)
        assert str(shortcut.value) == str(looped.value) == (
            "state norm 1.11803 exceeds the certified bound 1.05 at t=2"
        )

    def test_earliest_round_then_first_run_named(self):
        from olcontrol.harness import _check_within

        cfg = ExperimentConfig(t=12, n_runs=3)
        d = cfg.bound.d
        # runs 1 and 2 leave the ball at round 2 (t = 3), run 0 at round 1
        # (t = 2) with a NaN; the check names run 0, then run 1 once run 0 passes
        states = np.zeros((3, 4, 3))
        states[0, 1, 0] = np.nan
        states[1, 2, 0] = 2 * d
        states[2, 2:, 0] = 3 * d
        with pytest.raises(InvalidStateError, match="state norm nan .* at t=2$"):
            _check_within(cfg, states)
        states[0, 1, 0] = 0.0
        with pytest.raises(InvalidStateError, match=f"state norm {2 * d:.6g} .* at t=3$"):
            _check_within(cfg, states)
        # rounds 2 and 3 of run 2 alone, as the loop checks them
        with pytest.raises(InvalidStateError, match=f"state norm {3 * d:.6g} .* at t=3$"):
            _check_within(cfg, states[2:, 2:], first=2)


class TestRegret:
    def test_last_row_matches_totals(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        table = compute_regret(rec)
        for kind in ("olc", "dac"):
            expected = rec.traces[kind].total_cost - rec.bench_u.value
            assert table[f"regret_{kind}_u"][-1] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            expected_m = rec.traces[kind].total_cost - rec.bench_m.value
            assert table[f"regret_{kind}_m"][-1] == pytest.approx(expected_m, rel=1e-9, abs=1e-9)

    def test_no_traces_gives_empty_curves(self, tiny_cfg):
        # a record with benchmarks only: no controller, so no column
        assert compute_regret(replace(run_one_seed(tiny_cfg, 0), traces={})) == {}

    @pytest.mark.parametrize("disturbances_on", [True, False])
    def test_u_and_m_regret_zero_at_first_step(self, disturbances_on):
        # every trajectory starts at x1 and is scored the same way
        cfg = ExperimentConfig(t=50, n_runs=3, seed=3, disturbances_on=disturbances_on)
        for k in range(cfg.n_runs):
            table = compute_regret(run_one_seed(cfg, k))
            for bench in ("u", "m"):
                for kind in ("olc", "dac"):
                    assert table[f"regret_{kind}_{bench}"][0] == 0.0, (k, bench, kind)

    def test_clean_dac_regret_zero_throughout(self):
        # without disturbances the DAC plays its benchmark's inputs, all zero
        cfg = ExperimentConfig(t=50, n_runs=3, seed=3, disturbances_on=False)
        draws = [draw_run(cfg, k) for k in range(cfg.n_runs)]
        for trace, (_, bench_m, _) in zip(run_lockstep(cfg, "dac", draws), solve_draws(cfg, draws)):
            np.testing.assert_array_equal(trace.inputs, 0.0)
            np.testing.assert_array_equal(np.cumsum(trace.costs) - np.cumsum(bench_m.step_costs), 0.0)

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
                return u_star[None]

            def observe(self, delta, x_next=None):
                pass

        trace = run_single(tiny_cfg, ReplayController, rec.costs, rec.w_seq, rec.params)
        regret = trace.total_cost - rec.bench_u.value
        assert regret == pytest.approx(0.0, abs=1e-9 * max(1.0, rec.bench_u.value))

    def test_regret_u_nonnegative(self, tiny_cfg):
        rec = run_one_seed(tiny_cfg, 0)
        table = compute_regret(rec)
        scale = max(1.0, rec.bench_u.value)
        for kind in ("olc", "dac"):
            assert table[f"regret_{kind}_u"][-1] >= -1e-8 * scale

    def test_benchmark_gap_magnitude(self):
        cfg = ExperimentConfig(t=60, n_runs=1, seed=4, disturbances_on=False)
        draw = draw_run(cfg, 0)
        [(bench_u, _, bench_x)] = solve_draws(cfg, [draw])
        gap = bench_u.value - bench_x.value
        cert = cfg.system().cert
        limit = 2 * cert.kappa * draw[2].l * cfg.bound.d**2 / cert.gamma
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
        # not names run_experiment writes, so not its to delete
        (out / "run_007.csv").write_text("keep")
        (out / "run_01.csv").write_text("keep")
        run_experiment(replace(tiny_cfg, n_runs=3), output_dir=out)
        run_experiment(replace(tiny_cfg, n_runs=1), output_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmarks.csv", "notes.txt", "run_0.csv", "run_007.csv", "run_01.csv", "run_x.csv", "summary.csv"]

        real = harness_mod.run_seeds

        def flaky(cfg, ks, **kwargs):
            if 1 in ks:
                raise RuntimeError("synthetic failure")
            return real(cfg, ks, **kwargs)

        monkeypatch.setattr(harness_mod, "run_seeds", flaky)
        run_experiment(replace(tiny_cfg, n_runs=2), output_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmarks.csv", "failures.csv", "notes.txt", "run_0.csv", "run_007.csv", "run_01.csv", "run_x.csv",
            "summary.csv"]

        monkeypatch.setattr(harness_mod, "run_seeds", lambda cfg, ks: flaky(cfg, [1]))
        run_experiment(replace(tiny_cfg, n_runs=2), output_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "failures.csv", "notes.txt", "run_007.csv", "run_01.csv", "run_x.csv"]

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
        real = bench_mod.box_qp

        def fail_seed_1(h, g, lower, upper):
            if np.array_equal(g, seed_1_model.g):
                raise RuntimeError("synthetic hindsight failure")
            return real(h, g, lower, upper)

        monkeypatch.setattr(bench_mod, "box_qp", fail_seed_1)
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

    @pytest.mark.parametrize("disturbances_on", [True, False])
    def test_columns_follow_the_table(self, disturbances_on, tmp_path):
        cfg = ExperimentConfig(t=10, n_runs=2, seed=5, disturbances_on=disturbances_on)
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        benches = "um" if disturbances_on else "umx"
        regret = [f"regret_{kind}_{bench}" for bench in benches for kind in ("olc", "dac")]
        for k, table in enumerate(result.tables):
            assert list(table) == ["cost_olc", "cost_dac", "cum_olc", "cum_dac", *regret]
            lines = (tmp_path / "out" / f"run_{k}.csv").read_text().splitlines()
            assert lines[0].split(",") == ["t", *table]
            values = np.loadtxt(lines[1:], delimiter=",")
            for i, curve in enumerate(table.values()):
                np.testing.assert_allclose(values[:, 1 + i], curve, rtol=1e-11)
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[0].split(",") == ["t", *(f"{s}_{col}" for col in regret for s in ("mean", "std"))]
        summary = np.loadtxt(lines[1:], delimiter=",")
        for i, col in enumerate(regret):
            curves = np.stack([table[col] for table in result.tables])
            np.testing.assert_allclose(summary[:, 1 + 2 * i], curves.mean(axis=0), rtol=1e-11, atol=1e-9)
            np.testing.assert_allclose(summary[:, 2 + 2 * i], curves.std(axis=0), rtol=1e-11, atol=1e-9)

    def test_x1_config_key(self):
        cfg = config_from_dict({
            "T": 10,
            "x1": [1.0, 0.0, -1.0],
            "u_box": {"lower": [-5, -5], "upper": [5, 5]},
            "w_box": {"lower": [-0.5] * 3, "upper": [0.5] * 3},
        })
        np.testing.assert_allclose(cfg.x1, [1.0, 0.0, -1.0])


@pytest.fixture()
def leaves_the_ball(monkeypatch):
    """Draws whose disturbances grow a thousandfold from step 31 on, so that
    every run of 60 steps leaves the D-ball at t = 32: each controller
    raises InvalidStateError, with a state norm of its own."""
    import olcontrol.harness as harness_mod

    real = harness_mod.generate_disturbances

    def grown(cfg, rng):
        w = real(cfg, rng)
        w[30:] *= 1e3
        return w

    monkeypatch.setattr(harness_mod, "generate_disturbances", grown)


class TestForkedFirstKind:
    """run_seeds plays OLC, then DAC, then solves the hindsight benchmarks,
    in this process: each part has the bits of its own call, and the first
    kind's failure, OLC's, is the one raised."""

    def test_traces_match_in_process_lockstep(self):
        cfg = ExperimentConfig(t=1000, n_runs=3, seed=5)
        records = run_seeds(cfg, range(3))
        draws = [draw_run(cfg, k) for k in range(3)]
        benches = solve_draws(cfg, draws)
        for kind in ("olc", "dac"):
            for rec, trace in zip(records, run_lockstep(cfg, kind, draws)):
                for name in ("states", "inputs", "costs"):
                    assert np.array_equal(getattr(rec.traces[kind], name), getattr(trace, name)), (kind, name)
        for rec, (bench_u, bench_m, _) in zip(records, benches):
            for got, want in ((rec.bench_u, bench_u), (rec.bench_m, bench_m)):
                assert np.array_equal(got.optimizer, want.optimizer)
                assert np.array_equal(got.step_costs, want.step_costs)

    @pytest.mark.usefixtures("leaves_the_ball")
    def test_child_failure_raised_and_recorded(self, tmp_path):
        cfg = ExperimentConfig(t=60, n_runs=2, seed=3)
        with pytest.raises(InvalidStateError) as alone:
            run_lockstep(cfg, "olc", [draw_run(cfg, 0)])
        with pytest.raises(InvalidStateError) as info:
            run_seeds(cfg, [0])
        assert str(info.value) == str(alone.value)
        # the traceback reaches the OLC round loop that raised
        assert any(frame.f_code.co_name == "_lockstep" and frame.f_locals.get("kind") == "olc"
                   for frame, _ in traceback.walk_tb(info.value.__traceback__))
        run_experiment(cfg, output_dir=tmp_path)
        assert (tmp_path / "failures.csv").read_text() == (
            "run,error\n"
            "0,InvalidStateError: state norm 558.372 exceeds the certified bound 12.5323 at t=32\n"
            "1,InvalidStateError: state norm 620.732 exceeds the certified bound 12.5323 at t=32\n"
        )

    @pytest.mark.usefixtures("leaves_the_ball")
    def test_first_kinds_failure_wins(self, tiny_cfg, monkeypatch):
        import olcontrol.harness as harness_mod

        def hindsight_fails(*args, **kwargs):
            raise RuntimeError("synthetic hindsight failure")

        monkeypatch.setattr(harness_mod, "_solved", hindsight_fails)
        cfg = ExperimentConfig(t=60, n_runs=1, seed=3)
        # DAC fails on the same draw, with a state norm of its own
        with pytest.raises(InvalidStateError) as olc:
            run_lockstep(cfg, "olc", [draw_run(cfg, 0)])
        with pytest.raises(InvalidStateError) as dac:
            run_lockstep(cfg, "dac", [draw_run(cfg, 0)])
        with pytest.raises(InvalidStateError) as info:
            run_seeds(cfg, [0])
        assert str(info.value) == str(olc.value) != str(dac.value)
        # T = 12: the disturbances never grow, and the hindsight failure is raised
        with pytest.raises(RuntimeError, match="synthetic hindsight failure"):
            run_seeds(tiny_cfg, [0, 1])

"""Experiment orchestration: seeded generators, controller runs, regret
curves, and CSV persistence.

Everything downstream of a config and a seed is deterministic: the RNG is
numpy's PCG64 (a documented, splittable 64-bit generator), run k uses seed
``seed + k``, and CSV floats are printed with 12 significant digits, so two
invocations with the same config produce byte-identical files.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkResult, best_dac, best_fixed_input, best_steady_state
from .controllers import DacController, OlcController, regret_optimal_step_size
from .costs import QuadraticCost, SmoothnessParams, smoothness_constant
from .errors import ConfigError, InvalidInputError, InvalidStateError
from .linalg import spectral_norm
from .system import (
    BoxSet,
    LtiSystem,
    StabilityCert,
    StateBound,
    certify_strong_stability,
    state_bound,
    step,
)

DEFAULT_Q_SCALE = 1.0
DEFAULT_Q_RIDGE = 0.1
DEFAULT_C_MAX = 5.0
CONTROLLER_KINDS = ("olc", "dac")


def default_system_matrices():
    """The stock simulation plant: a three-state ring with two actuators."""
    a = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.2], [0.2, 0.0, 1.0]]) / 3.6
    b = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    return a, b


@dataclass(frozen=True)
class CostGenConfig:
    q_scale: float = DEFAULT_Q_SCALE
    q_ridge: float = DEFAULT_Q_RIDGE
    c_max: float = DEFAULT_C_MAX


@dataclass(frozen=True)
class OlcConfig:
    eta_override: float | None = None


@dataclass(frozen=True)
class DacConfig:
    h_mem: int = 10
    eta_g: float | None = None   # defaults to 1/sqrt(T)
    radius: float | None = None  # defaults to kappa^3 * ||B||


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1
    t: int = 1000
    n_runs: int = 20
    a: np.ndarray = None
    b: np.ndarray = None
    u_box: BoxSet = None
    w_box: BoxSet = None
    cost_gen: CostGenConfig = field(default_factory=CostGenConfig)
    olc: OlcConfig = field(default_factory=OlcConfig)
    dac: DacConfig = field(default_factory=DacConfig)
    disturbances_on: bool = True
    output_dir: str = "results"
    x1: np.ndarray = None

    def __post_init__(self):
        if self.a is None or self.b is None:
            raise ConfigError("system matrices A and B are required")
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        x1 = np.zeros(self.a.shape[0]) if self.x1 is None else np.asarray(self.x1, dtype=float)
        object.__setattr__(self, "x1", x1)

    def validate(self) -> "ExperimentConfig":
        if self.t < 2:
            raise ConfigError(f"horizon T must be >= 2, got {self.t}")
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.cost_gen.q_scale <= 0.0:
            raise ConfigError("cost_gen.q_scale must be positive")
        if self.cost_gen.q_ridge < 0.0 or self.cost_gen.c_max < 0.0:
            raise ConfigError("cost_gen.q_ridge and c_max must be non-negative")
        if self.dac.h_mem < 1:
            raise ConfigError("dac.H_mem must be >= 1")
        sys = self.system()  # raises if A is unstable or shapes are off
        if self.u_box.dim != sys.input_dim:
            raise ConfigError("u_box dimension does not match B")
        if self.w_box.dim != sys.state_dim:
            raise ConfigError("w_box dimension does not match A")
        if self.x1.shape[0] != sys.state_dim:
            raise ConfigError("x1 dimension does not match A")
        return self

    def system(self) -> LtiSystem:
        return LtiSystem(self.a, self.b)


def default_config(**overrides) -> ExperimentConfig:
    """Stock experiment: the ring plant, box-bounded inputs and disturbances,
    random quadratic costs, horizon 1000, 20 runs."""
    a, b = default_system_matrices()
    cfg = ExperimentConfig(
        a=a,
        b=b,
        u_box=BoxSet.symmetric(5.0, 2),
        w_box=BoxSet.symmetric(0.5, 3),
        x1=np.zeros(3),
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _require_keys(mapping: dict, allowed: dict, where: str) -> dict:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return mapping


def _box_from_json(obj, where: str) -> BoxSet:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object with 'lower' and 'upper'")
    _require_keys(obj, {"lower": 1, "upper": 1}, where)
    try:
        return BoxSet(np.asarray(obj["lower"], dtype=float), np.asarray(obj["upper"], dtype=float))
    except (KeyError, InvalidInputError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-like document.

    Keys mirror the documented schema exactly (T and dac.H_mem are
    capitalized); unknown keys are rejected at every level.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    top = {
        "seed": 1, "T": 1, "n_runs": 1, "system": 1, "u_box": 1, "w_box": 1,
        "cost_gen": 1, "olc": 1, "dac": 1, "disturbances_on": 1, "output_dir": 1,
        "x1": 1,
    }
    _require_keys(doc, top, "config")
    try:
        system = doc.get("system")
        if system is None:
            a, b = default_system_matrices()
        else:
            _require_keys(system, {"A": 1, "B": 1}, "system")
            a = np.asarray(system["A"], dtype=float)
            b = np.asarray(system["B"], dtype=float)
        cost_doc = _require_keys(doc.get("cost_gen", {}), {"q_scale": 1, "q_ridge": 1, "c_max": 1}, "cost_gen")
        olc_doc = _require_keys(doc.get("olc", {}), {"eta_override": 1}, "olc")
        dac_doc = _require_keys(doc.get("dac", {}), {"H_mem": 1, "eta_g": 1, "radius": 1}, "dac")
        u_box = _box_from_json(doc["u_box"], "u_box") if "u_box" in doc else BoxSet.symmetric(5.0, b.shape[1])
        w_box = _box_from_json(doc["w_box"], "w_box") if "w_box" in doc else BoxSet.symmetric(0.5, a.shape[0])
        x1 = np.asarray(doc.get("x1", np.zeros(a.shape[0])), dtype=float)
        cfg = ExperimentConfig(
            seed=int(doc.get("seed", 1)),
            t=int(doc.get("T", 1000)),
            n_runs=int(doc.get("n_runs", 20)),
            a=a,
            b=b,
            u_box=u_box,
            w_box=w_box,
            cost_gen=CostGenConfig(
                q_scale=float(cost_doc.get("q_scale", DEFAULT_Q_SCALE)),
                q_ridge=float(cost_doc.get("q_ridge", DEFAULT_Q_RIDGE)),
                c_max=float(cost_doc.get("c_max", DEFAULT_C_MAX)),
            ),
            olc=OlcConfig(
                eta_override=None if olc_doc.get("eta_override") is None else float(olc_doc["eta_override"]),
            ),
            dac=DacConfig(
                h_mem=int(dac_doc.get("H_mem", 10)),
                eta_g=None if dac_doc.get("eta_g") is None else float(dac_doc["eta_g"]),
                radius=None if dac_doc.get("radius") is None else float(dac_doc["radius"]),
            ),
            disturbances_on=bool(doc.get("disturbances_on", True)),
            output_dir=str(doc.get("output_dir", "results")),
            x1=x1,
        )
        return cfg.validate()
    except (InvalidInputError, ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; same seed, same stream, on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


def generate_costs(cfg: ExperimentConfig, rng: np.random.Generator) -> list[QuadraticCost]:
    """Draw the per-step quadratic costs.

    Q_t = q_scale * (S^T S / N + q_ridge * I) with S standard normal
    (symmetrized to kill roundoff), and targets c_t drawn uniformly from
    [0, c_max]^N.  Nonzero-mean targets are what make the fixed-input
    benchmark bite: costs whose minima sit at a fixed offset reward a
    policy that can hold the plant away from the origin.
    """
    n = cfg.a.shape[0]
    gen = cfg.cost_gen
    costs = []
    eye = np.eye(n)
    for _ in range(cfg.t):
        s = rng.standard_normal((n, n))
        q = gen.q_scale * (s.T @ s / n + gen.q_ridge * eye)
        q = 0.5 * (q + q.T)
        c = rng.uniform(0.0, gen.c_max, size=n)
        costs.append(QuadraticCost(q=q, c=c))
    return costs


def generate_disturbances(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the (T-1, N) disturbance sequence, uniform on the box.

    The draw is consumed from the stream even when disturbances are
    switched off, so clean and disturbed runs with the same seed face the
    same costs.
    """
    w = rng.uniform(cfg.w_box.lower, cfg.w_box.upper, size=(cfg.t - 1, cfg.w_box.dim))
    if not cfg.disturbances_on:
        return np.zeros_like(w)
    return w


@dataclass(frozen=True)
class RunParams:
    """Per-run derived constants shared by controllers and bound checks."""

    cert: StabilityCert
    bound: StateBound
    smooth: SmoothnessParams
    eta: float


def derive_run_params(cfg: ExperimentConfig, costs) -> RunParams:
    cert = certify_strong_stability(cfg.a)
    bound = state_bound(cert, cfg.system(), cfg.x1, cfg.u_box, cfg.w_box)
    # the smoothness formula needs a bound on ||c_t||; targets are drawn
    # per coordinate from [0, c_max], so the norm bound is c_max * sqrt(N)
    c_norm_max = cfg.cost_gen.c_max * np.sqrt(cfg.a.shape[0])
    smooth = smoothness_constant(costs, bound, c_norm_max)
    eta = cfg.olc.eta_override
    if eta is None:
        eta = regret_optimal_step_size(smooth.l, cfg.t, cert)
    return RunParams(cert=cert, bound=bound, smooth=smooth, eta=eta)


@dataclass
class Trace:
    """One controller's trajectory through one run."""

    kind: str
    states: np.ndarray   # (T, N)
    inputs: np.ndarray   # (T-1, M)
    costs: np.ndarray    # (T,)
    targets: np.ndarray | None = None  # (T-1, N) target states, olc only
    eta: float | None = None

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())


def _build_controller(cfg: ExperimentConfig, kind: str, params: RunParams, sys: LtiSystem):
    if kind == "olc":
        return OlcController(sys, cfg.u_box, params.eta, z0=cfg.x1)
    if kind == "dac":
        eta_g = cfg.dac.eta_g if cfg.dac.eta_g is not None else 1.0 / np.sqrt(cfg.t)
        radius = cfg.dac.radius
        if radius is None:
            radius = params.cert.kappa**3 * spectral_norm(cfg.b)
        return DacController(
            sys, cfg.u_box, cfg.dac.h_mem, eta_g, radius, params.cert.gamma
        )
    raise InvalidInputError(f"unknown controller kind {kind!r}")


def run_single(cfg: ExperimentConfig, kind, costs, w_seq, params: RunParams | None = None) -> Trace:
    """Run one controller through the round protocol for T steps.

    Per round: the controller sees the state and acts, the cost and its
    feedback are revealed at the pre-transition state, and only then does
    the plant move.  ``kind`` is "olc", "dac", or a callable returning a
    controller (for tests).  Every visited state is checked against the
    bound D.
    """
    sys = cfg.system()
    if params is None:
        params = derive_run_params(cfg, costs)
    if callable(kind):
        ctrl = kind(sys, cfg, params)
        kind_name = getattr(ctrl, "kind", "custom")
    else:
        ctrl = _build_controller(cfg, kind, params, sys)
        kind_name = kind
    horizon = cfg.t
    n, m = sys.state_dim, sys.input_dim
    states = np.empty((horizon, n))
    inputs = np.empty((horizon - 1, m))
    costs_out = np.empty(horizon)
    targets = np.empty((horizon - 1, n)) if isinstance(ctrl, OlcController) else None
    bound_slack = params.bound.d * (1.0 + 1e-9)

    x = cfg.x1.astype(float).copy()
    for t in range(horizon):
        if np.linalg.norm(x) > bound_slack:
            raise InvalidStateError(
                f"state norm {np.linalg.norm(x):.6g} exceeds the certified bound {params.bound.d:.6g} at t={t + 1}"
            )
        states[t] = x
        costs_out[t] = costs[t].value(x)
        if t == horizon - 1:
            break
        if targets is not None:
            targets[t] = ctrl.z
        u = ctrl.act(x)
        inputs[t] = u
        x_next = step(sys, x, u, w_seq[t])
        if ctrl.feedback == "gradient":
            ctrl.observe(costs[t].grad(x), x_next)
        else:
            ctrl.observe(costs[t], x_next)
        x = x_next
    return Trace(kind=kind_name, states=states, inputs=inputs, costs=costs_out,
                 targets=targets, eta=params.eta if kind == "olc" else None)


@dataclass
class RunRecord:
    """Everything recorded about one seeded run."""

    run_index: int
    seed: int
    costs: list
    w_seq: np.ndarray
    params: RunParams
    traces: dict[str, Trace]
    bench_u: BenchmarkResult | None = None
    bench_m: BenchmarkResult | None = None
    bench_x: BenchmarkResult | None = None


@dataclass
class RegretReport:
    """Cumulative regret curves against each benchmark, per controller."""

    horizon: int
    cum_costs: dict[str, np.ndarray]
    regret_u: dict[str, np.ndarray]
    regret_m: dict[str, np.ndarray]
    regret_x: dict[str, np.ndarray] | None = None


def solve_run_benchmarks(cfg: ExperimentConfig, record: RunRecord,
                         with_dac: bool = True, with_steady: bool | None = None) -> RunRecord:
    """Attach the hindsight baselines for this run's realization."""
    sys = cfg.system()
    record.bench_u = best_fixed_input(sys, cfg.x1, record.w_seq, record.costs, cfg.u_box)
    if with_dac:
        radius = cfg.dac.radius
        if radius is None:
            radius = record.params.cert.kappa**3 * spectral_norm(cfg.b)
        record.bench_m = best_dac(
            sys, cfg.x1, record.w_seq, record.costs, cfg.dac.h_mem,
            radius, gamma=record.params.cert.gamma,
        )
    if with_steady is None:
        with_steady = not cfg.disturbances_on
    if with_steady:
        record.bench_x = best_steady_state(record.costs, sys, cfg.u_box)
    return record


def compute_regret(record: RunRecord) -> RegretReport:
    """Prefix-sum regret curves against the full-horizon benchmark optimizers."""
    if record.bench_u is None:
        raise InvalidStateError("fixed-input benchmark missing; solve benchmarks first")
    bench_u_prefix = np.cumsum(record.bench_u.step_costs)
    cum = {kind: np.cumsum(tr.costs) for kind, tr in record.traces.items()}
    regret_u = {kind: cum[kind] - bench_u_prefix for kind in cum}
    regret_m = {}
    if record.bench_m is not None:
        bench_m_prefix = np.cumsum(record.bench_m.step_costs)
        regret_m = {kind: cum[kind] - bench_m_prefix for kind in cum}
    regret_x = None
    if record.bench_x is not None:
        bench_x_prefix = np.cumsum(record.bench_x.step_costs)
        regret_x = {kind: cum[kind] - bench_x_prefix for kind in cum}
    return RegretReport(
        horizon=record.traces[next(iter(record.traces))].costs.shape[0],
        cum_costs=cum,
        regret_u=regret_u,
        regret_m=regret_m,
        regret_x=regret_x,
    )


def run_one_seed(cfg: ExperimentConfig, run_index: int,
                 kinds=CONTROLLER_KINDS, with_benchmarks: bool = True) -> RunRecord:
    """Fresh costs and disturbances for run ``run_index``, all controllers."""
    rng = make_rng(cfg.seed + run_index)
    costs = generate_costs(cfg, rng)
    w_seq = generate_disturbances(cfg, rng)
    params = derive_run_params(cfg, costs)
    traces = {kind: run_single(cfg, kind, costs, w_seq, params) for kind in kinds}
    record = RunRecord(
        run_index=run_index, seed=cfg.seed + run_index, costs=costs,
        w_seq=w_seq, params=params, traces=traces,
    )
    if with_benchmarks:
        solve_run_benchmarks(cfg, record)
    return record


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _regret_columns(cfg: ExperimentConfig) -> list[str]:
    cols = ["regret_olc_u", "regret_dac_u", "regret_olc_m", "regret_dac_m"]
    if not cfg.disturbances_on:
        cols += ["regret_olc_x", "regret_dac_x"]
    return cols


def write_run_csv(path, cfg: ExperimentConfig, record: RunRecord, report: RegretReport) -> None:
    cols = ["t", "cost_olc", "cost_dac", "cum_olc", "cum_dac"] + _regret_columns(cfg)
    olc, dac = record.traces["olc"], record.traces["dac"]
    lines = [",".join(cols)]
    for i in range(cfg.t):
        row = [
            str(i + 1),
            _fmt(olc.costs[i]), _fmt(dac.costs[i]),
            _fmt(report.cum_costs["olc"][i]), _fmt(report.cum_costs["dac"][i]),
            _fmt(report.regret_u["olc"][i]), _fmt(report.regret_u["dac"][i]),
            _fmt(report.regret_m["olc"][i]), _fmt(report.regret_m["dac"][i]),
        ]
        if report.regret_x is not None:
            row += [_fmt(report.regret_x["olc"][i]), _fmt(report.regret_x["dac"][i])]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(path, cfg: ExperimentConfig, reports: list[RegretReport]) -> None:
    """Per-step mean and standard deviation of each regret column."""
    cols = _regret_columns(cfg)
    header = ["t"]
    for col in cols:
        header += [f"mean_{col}", f"std_{col}"]
    stacks = {}
    for col in cols:
        kind = "olc" if "_olc_" in col else "dac"
        which = col.rsplit("_", 1)[1]
        curves = []
        for rep in reports:
            curve = {"u": rep.regret_u, "m": rep.regret_m, "x": rep.regret_x or {}}[which]
            curves.append(curve[kind])
        stacks[col] = np.stack(curves)
    lines = [",".join(header)]
    for i in range(cfg.t):
        row = [str(i + 1)]
        for col in cols:
            vals = stacks[col][:, i]
            row += [_fmt(vals.mean()), _fmt(vals.std())]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_benchmarks_csv(path, records: list[RunRecord]) -> None:
    lines = ["run,bench_u,bench_m"]
    for rec in records:
        lines.append(f"{rec.run_index},{_fmt(rec.bench_u.value)},{_fmt(rec.bench_m.value)}")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    reports: list[RegretReport]
    failures: dict[int, str]
    output_dir: Path


def _seed_task(payload):
    """One run, isolated: failures come back as messages, not exceptions."""
    cfg, k = payload
    try:
        record = run_one_seed(cfg, k)
        report = compute_regret(record)
        return k, record, report, None
    except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
        return k, None, None, f"{type(exc).__name__}: {exc}"


def run_experiment(cfg: ExperimentConfig, output_dir=None, workers: int = 1) -> ExperimentResult:
    """Run all seeds, solve all benchmarks, and write the CSV bundle.

    Emits run_<k>.csv per run, summary.csv with per-step mean/std of each
    regret column, benchmarks.csv with the final benchmark values, and a
    failures.csv manifest when individual runs fail.

    Runs are independent (run k derives everything from seed + k), so with
    ``workers > 1`` they execute in a process pool; results are merged in
    index order and the output stays byte-identical to a sequential run.
    """
    cfg.validate()
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payloads = [(cfg, k) for k in range(cfg.n_runs)]
    if workers > 1:
        # spawn rather than fork: forking a process with live BLAS thread
        # pools is not reliably safe
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            outcomes = list(pool.map(_seed_task, payloads))
    else:
        outcomes = [_seed_task(p) for p in payloads]
    records: list[RunRecord] = []
    reports: list[RegretReport] = []
    failures: dict[int, str] = {}
    for k, record, report, error in outcomes:
        if error is not None:
            failures[k] = error
            continue
        records.append(record)
        reports.append(report)
        write_run_csv(out / f"run_{k}.csv", cfg, record, report)
    if reports:
        write_summary_csv(out / "summary.csv", cfg, reports)
        write_benchmarks_csv(out / "benchmarks.csv", records)
    if failures:
        lines = ["run,error"] + [f"{k},{msg!r}" for k, msg in sorted(failures.items())]
        (out / "failures.csv").write_text("\n".join(lines) + "\n")
    return ExperimentResult(records=records, reports=reports, failures=failures, output_dir=out)

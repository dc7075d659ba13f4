"""Experiment orchestration: seeded generators, controller runs, regret
curves, and CSV persistence.

Everything downstream of a config and a seed is deterministic: the RNG is
numpy's PCG64 (a documented, splittable 64-bit generator), run k uses seed
``seed + k``, and CSV floats are printed with 12 significant digits, so two
invocations with the same config produce byte-identical files.
"""

import csv
import json
import os
import pickle
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkResult, _check_problem, solve_benchmarks
from .controllers import DacController, OlcController, regret_optimal_step_size
from .costs import QuadraticBatch, QuadraticCost, smoothness_constant
from .errors import ConfigError, InvalidInputError, InvalidStateError
from .linalg import as_array, row_norms, spectral_norm
from .system import BoxSet, LtiSystem, StateBound, state_bound, step

CONTROLLER_KINDS = ("olc", "dac")


def default_system_matrices():
    """The stock simulation plant: a three-state ring with two actuators."""
    a = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.2], [0.2, 0.0, 1.0]]) / 3.6
    b = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    return a, b


@dataclass(frozen=True)
class CostGenConfig:
    q_scale: float = 1.0
    q_ridge: float = 0.1
    c_max: float = 5.0


@dataclass(frozen=True)
class OlcConfig:
    eta_override: float | None = None  # defaults to the regret-optimal step


@dataclass(frozen=True)
class DacConfig:
    h_mem: int = 10
    eta_g: float | None = None   # defaults to 1/sqrt(T)
    radius: float | None = None  # defaults to kappa^3 * ||B||


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment; every field has its default here.

    Left unset, A and B are the ring plant of :func:`default_system_matrices`,
    the boxes are ±5 on each input and ±0.5 on each state, and x1 is the
    origin.  The plant is built once, here, and shared by every run, and
    every field is checked here too (ConfigError), so a config that exists
    is one a run can use; ``dataclasses.replace`` checks again.  What the
    config alone fixes is derived here as well, once for every run: the
    state bound D (``bound``) and the DAC step and radius, each the
    ``dac`` value or, left unset, 1/sqrt(T) and kappa^3 ||B||.
    """

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
    _system: LtiSystem = field(init=False, repr=False, compare=False)
    bound: StateBound = field(init=False, repr=False, compare=False)    # D
    dac_eta_g: float = field(init=False, repr=False, compare=False)
    dac_radius: float = field(init=False, repr=False, compare=False)  # of the first block

    def __post_init__(self):
        ring_a, ring_b = default_system_matrices()
        try:
            sys = LtiSystem(ring_a if self.a is None else self.a, ring_b if self.b is None else self.b)
            x1 = np.zeros(sys.state_dim) if self.x1 is None else as_array(self.x1, "x1", (sys.state_dim,))
        except (ValueError, TypeError) as exc:  # the plant's errors are ValueErrors
            raise ConfigError(f"bad plant or x1: {type(exc).__name__}: {exc}") from exc
        n, m = sys.state_dim, sys.input_dim
        derived = {
            "_system": sys,
            "a": sys.a,
            "b": sys.b,
            "u_box": BoxSet.symmetric(5.0, m) if self.u_box is None else self.u_box,
            "w_box": BoxSet.symmetric(0.5, n) if self.w_box is None else self.w_box,
            "x1": x1,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.t < 2:
            raise ConfigError(f"horizon T must be >= 2, got {self.t}")
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        gen = self.cost_gen
        if not np.isfinite([gen.q_scale, gen.q_ridge, gen.c_max]).all():
            raise ConfigError("cost_gen values must be finite")
        if gen.q_scale <= 0.0:
            raise ConfigError("cost_gen.q_scale must be positive")
        if gen.q_ridge < 0.0 or gen.c_max < 0.0:
            raise ConfigError("cost_gen.q_ridge and c_max must be non-negative")
        if self.dac.h_mem < 1:
            raise ConfigError("dac.H_mem must be >= 1")
        for name, value in (("olc.eta_override", self.olc.eta_override),
                            ("dac.eta_g", self.dac.eta_g), ("dac.radius", self.dac.radius)):
            if value is not None and not 0.0 < value < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not self.b.any():
            raise ConfigError("B is all zeros: no input reaches the plant")
        if self.u_box.dim != m:
            raise ConfigError("u_box dimension does not match B")
        if self.w_box.dim != n:
            raise ConfigError("w_box dimension does not match A")
        eta_g, radius = self.dac.eta_g, self.dac.radius
        derived = {
            "bound": state_bound(sys, x1, self.u_box, self.w_box),
            "dac_eta_g": 1.0 / np.sqrt(self.t) if eta_g is None else eta_g,
            "dac_radius": sys.cert.kappa**3 * spectral_norm(sys.b) if radius is None else radius,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def system(self) -> LtiSystem:
        return self._system


def _exactly(kind: type, optional: bool = False):
    """Converter passing values of type ``kind`` only (true is not an int),
    and null when ``optional``.  A float key takes any JSON number, int or
    float, and returns it as a float."""
    kinds, name = ((int, float), "a number") if kind is float else ((kind,), f"of type {kind.__name__}")

    def check(value, key):
        if optional and value is None:
            return None
        if type(value) not in kinds:
            raise ConfigError(f"{key} must be {name}, got {value!r}")
        return kind(value)

    return check


def _array(value, key):
    """Nested JSON arrays of numbers as a float array.  Every leaf is
    checked, since ``np.asarray([True, -1])`` is an int array."""
    number = _exactly(float)

    def leaves(item):
        return [leaves(v) for v in item] if isinstance(item, list) else number(item, key)

    return np.asarray(leaves(value), dtype=float)


def _fields(doc, schema: dict, where: str) -> dict:
    """Convert the keys present in ``doc``; absent keys keep the field defaults.
    Each converter gets the value and its dotted key, for its messages."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    prefix = "" if where == "config" else f"{where}."
    return {schema[key][0]: schema[key][1](value, prefix + key) for key, value in doc.items()}


def _section(cls, schema: dict):
    def build(doc, where):
        fields = _fields(doc, schema, where)
        try:
            return cls(**fields)
        except (InvalidInputError, TypeError) as exc:
            raise ConfigError(f"bad {where}: {exc}") from exc

    return build


_BOX = {"lower": ("lower", _array), "upper": ("upper", _array)}

# JSON key -> (field name, converter).  The "system" section's A and B
# become the config's a and b.
_SCHEMA = {
    "seed": ("seed", _exactly(int)),
    "T": ("t", _exactly(int)),
    "n_runs": ("n_runs", _exactly(int)),
    "system": ("system", lambda doc, where: _fields(doc, {"A": ("a", _array), "B": ("b", _array)}, where)),
    "u_box": ("u_box", _section(BoxSet, _BOX)),
    "w_box": ("w_box", _section(BoxSet, _BOX)),
    "cost_gen": ("cost_gen", _section(CostGenConfig, {
        "q_scale": ("q_scale", _exactly(float)), "q_ridge": ("q_ridge", _exactly(float)),
        "c_max": ("c_max", _exactly(float)),
    })),
    "olc": ("olc", _section(OlcConfig, {"eta_override": ("eta_override", _exactly(float, optional=True))})),
    "dac": ("dac", _section(DacConfig, {
        "H_mem": ("h_mem", _exactly(int)),
        "eta_g": ("eta_g", _exactly(float, optional=True)), "radius": ("radius", _exactly(float, optional=True)),
    })),
    "disturbances_on": ("disturbances_on", _exactly(bool)),
    "output_dir": ("output_dir", _exactly(str)),
    "x1": ("x1", _array),
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON-like document.

    Keys mirror the documented schema exactly (T and dac.H_mem are
    capitalized); unknown keys are rejected at every level, and a key left
    out keeps the :class:`ExperimentConfig` default.
    """
    try:
        kwargs = _fields(doc, _SCHEMA, "config")
    # what the converters can raise past their own checks: a ragged array
    # (ValueError) and a JSON integer too large for a float (OverflowError)
    except (ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    kwargs.update(kwargs.pop("system", {}))
    return ExperimentConfig(**kwargs)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; ``overrides`` (top-level JSON key -> value)
    replace the file's keys before the one :func:`config_from_dict`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    return config_from_dict(doc)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; same seed, same stream, on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


def generate_costs(cfg: ExperimentConfig, rng: np.random.Generator) -> QuadraticBatch:
    """Draw the per-step quadratic costs.

    Q_t = q_scale * (S^T S / N + q_ridge * I) with S standard normal
    (symmetrized to kill roundoff), and targets c_t drawn uniformly from
    [0, c_max]^N.  Nonzero-mean targets are what make the fixed-input
    benchmark bite: costs whose minima sit at a fixed offset reward a
    policy that can hold the plant away from the origin.
    """
    n = cfg.a.shape[0]
    gen = cfg.cost_gen
    ss = np.empty((cfg.t, n, n))
    cs = np.empty((cfg.t, n))
    for t in range(cfg.t):  # one S, then one c, per step: the stream's order
        ss[t] = rng.standard_normal((n, n))
        cs[t] = rng.uniform(0.0, gen.c_max, size=n)
    q = gen.q_scale * (np.matmul(ss.swapaxes(1, 2), ss) / n + gen.q_ridge * np.eye(n))
    return QuadraticBatch(0.5 * (q + q.swapaxes(1, 2)), cs)


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
    """The constants a run's own costs fix.  What every run shares, the
    certificate ``cfg.system().cert``, D and the DAC step and radius, is
    derived on the config."""

    l: float            # smoothness L: ||grad f_t(x)|| <= L*D on the D-ball
    eta: float          # OLC step size


def derive_run_params(cfg: ExperimentConfig, costs) -> RunParams:
    # the smoothness formula needs a bound on ||c_t||; targets are drawn
    # per coordinate from [0, c_max], so the norm bound is c_max * sqrt(N)
    c_norm_max = cfg.cost_gen.c_max * np.sqrt(cfg.a.shape[0])
    l = smoothness_constant(costs, cfg.bound, c_norm_max)
    eta = cfg.olc.eta_override
    return RunParams(l=l, eta=regret_optimal_step_size(l, cfg.t, cfg.system()) if eta is None else eta)


@dataclass
class Trace:
    """One controller's trajectory through one run: what the round loop saw.

    An OLC target is the steady state of the input it plays, so its target
    at round t is ``S @ inputs[t]``.
    """

    states: np.ndarray   # (T, N)
    inputs: np.ndarray   # (T-1, M)
    costs: np.ndarray    # (T,)

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())


def _build_controller(cfg: ExperimentConfig, kind: str, params: list[RunParams], lead: tuple):
    """Controller ``kind`` for runs with the given params and leading shape,
    () for one run, (R,) for R in lockstep."""
    sys = cfg.system()
    if kind == "olc":
        eta = np.array([p.eta for p in params]).reshape(lead)
        return OlcController(sys, cfg.u_box, eta, z0=np.broadcast_to(cfg.x1, lead + cfg.x1.shape))
    if kind == "dac":
        return DacController(sys, cfg.u_box, cfg.dac.h_mem, cfg.dac_eta_g, cfg.dac_radius,
                             runs=lead[0] if lead else None)
    raise InvalidInputError(f"unknown controller kind {kind!r}")


def _play(cfg: ExperimentConfig, kind, draws: list, lead: tuple) -> list[Trace]:
    """The round loop, over the leading run shape ``lead`` (see run_lockstep)."""
    sys = cfg.system()
    horizon, n, m = cfg.t, sys.state_dim, sys.input_dim
    if not draws:
        raise InvalidInputError("no runs to play")
    batches, w_seqs = [], []
    for r, (costs, w_seq, _) in enumerate(draws):
        try:
            _, _, w_seq, costs = _check_problem(sys, cfg.x1, w_seq, costs)
            if len(costs) != horizon:
                raise InvalidInputError(f"got {len(costs)} costs for horizon T={horizon}")
        except InvalidInputError as exc:
            raise InvalidInputError(f"draw {r} of {len(draws)}: {exc}") from exc
        batches.append(costs)
        w_seqs.append(w_seq)
    params = [p for _, _, p in draws]
    # per-round stacks: round t of every run is qs[t], cs[t], ws[t]
    qs = np.stack([b.qs for b in batches], axis=1).reshape((horizon,) + lead + (n, n))
    cs = np.stack([b.cs for b in batches], axis=1).reshape((horizon,) + lead + (n,))
    ws = np.stack(w_seqs, axis=1).reshape((horizon - 1,) + lead + (n,))
    bound_slack = cfg.bound.d * (1.0 + 1e-9)
    if callable(kind):
        ctrl = kind(sys, cfg, params if lead else params[0])
    else:
        ctrl = _build_controller(cfg, kind, params, lead)
    # run-major, so each run's trajectory is one contiguous block
    states = np.empty(lead + (horizon, n))
    inputs = np.empty(lead + (horizon - 1, m))

    x = np.broadcast_to(cfg.x1, lead + (n,)).astype(float)
    for t in range(horizon):
        norms = row_norms(x)
        over = norms > bound_slack
        if over.any():
            r = np.argmax(over)
            raise InvalidStateError(
                f"state norm {norms.flat[r]:.6g} exceeds the certified bound {cfg.bound.d:.6g} at t={t + 1}"
            )
        states[..., t, :] = x
        if t == horizon - 1:
            break
        cost = QuadraticCost.view(qs[t], cs[t])
        u = ctrl.act(x)
        inputs[..., t, :] = u
        x_next = step(sys, x, u, ws[t])
        if ctrl.feedback == "gradient":
            ctrl.observe(cost.grad(x), x_next)
        else:
            ctrl.observe(cost, x_next)
        x = x_next
    # states[()] is the whole array: the one run when there is no run axis
    runs = range(lead[0]) if lead else [()]
    return [Trace(states=states[r], inputs=inputs[r], costs=b.values(states[r])) for r, b in zip(runs, batches)]


def run_lockstep(cfg: ExperimentConfig, kind, draws) -> list[Trace]:
    """Run one controller kind through the round protocol for T steps on
    every run of ``draws`` at once.

    ``draws`` holds each run's (costs, w_seq, params), the params from
    :func:`derive_run_params`.  Per round: each run's controller sees its
    state and acts, the cost and its feedback are revealed at the
    pre-transition state, and only then does the plant move.  One pass of
    the loop advances all R runs; every product is taken run by run
    (``matvec``, stacked ``np.matmul``), so each run's trace has the bits
    it would have alone.  ``kind`` is "olc", "dac", or a callable
    ``kind(sys, cfg, params_list)`` returning a controller with a leading
    run axis.  Each draw is checked first, for T costs on the plant's
    states and T-1 disturbances of its width; InvalidInputError names the
    draw that fails.  Every visited state is checked against the bound D,
    ``cfg.bound``.  The step costs are scored once per run, on the whole
    trajectory, the way the hindsight benchmarks score theirs.
    """
    return _play(cfg, kind, list(draws), (len(draws),))


def run_single(cfg: ExperimentConfig, kind, costs, w_seq, params: RunParams) -> Trace:
    """The one-run case of :func:`run_lockstep`: the same round loop with
    no run axis, so states are (N,) and inputs (M,).  ``kind`` is "olc",
    "dac", or a callable ``kind(sys, cfg, params)`` returning a one-run
    controller (for tests)."""
    return _play(cfg, kind, [(costs, w_seq, params)], ())[0]


@dataclass
class RunRecord:
    """Everything recorded about one seeded run."""

    run_index: int
    seed: int
    costs: QuadraticBatch
    w_seq: np.ndarray
    params: RunParams
    traces: dict[str, Trace]
    bench_u: BenchmarkResult | None = None
    bench_m: BenchmarkResult | None = None
    bench_x: BenchmarkResult | None = None


@dataclass
class RegretReport:
    """Cumulative regret curves against each benchmark, per controller."""

    cum_costs: dict[str, np.ndarray]
    regret_u: dict[str, np.ndarray]
    regret_m: dict[str, np.ndarray] | None = None
    regret_x: dict[str, np.ndarray] | None = None

    def curve(self, bench: str, kind: str) -> np.ndarray:
        """Controller ``kind``'s regret against benchmark "u", "m" or "x"."""
        return getattr(self, f"regret_{bench}")[kind]


def compute_regret(record: RunRecord) -> RegretReport:
    """Prefix-sum regret curves against the full-horizon benchmark optimizers."""
    if record.bench_u is None:
        raise InvalidStateError("fixed-input benchmark missing; solve benchmarks first")
    cum = {kind: np.cumsum(tr.costs) for kind, tr in record.traces.items()}

    def against(bench: BenchmarkResult | None):
        if bench is None:
            return None
        prefix = np.cumsum(bench.step_costs)
        return {kind: curve - prefix for kind, curve in cum.items()}

    return RegretReport(
        cum_costs=cum,
        regret_u=against(record.bench_u),
        regret_m=against(record.bench_m),
        regret_x=against(record.bench_x),
    )


def draw_run(cfg: ExperimentConfig, run_index: int) -> tuple:
    """Run ``run_index``'s (costs, w_seq, params), from seed + run_index."""
    rng = make_rng(cfg.seed + run_index)
    costs = generate_costs(cfg, rng)
    w_seq = generate_disturbances(cfg, rng)
    return costs, w_seq, derive_run_params(cfg, costs)


# Only Linux forks: macOS's Accelerate BLAS is not fork-safe, and Windows
# has no fork.
_CAN_FORK = sys.platform == "linux"


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked child."""


class _Forked:
    """``fn(*args)``, called in a forked child process beside the caller.

    The child inherits the caller's memory copy-on-write, so the arguments
    are not copied.  It sends back what the call returned, or the exception
    it raised, pickled over a pipe, and always leaves through ``os._exit``:
    it never returns into the caller's stack.  Where the platform cannot
    fork (``_CAN_FORK``), and with ``fork`` false, :meth:`join` makes the
    same call in-process instead.  Used as a context manager, it kills and
    reaps a child that was not joined.
    """

    def __init__(self, fn, *args, fork=True):
        self.fn, self.args, self.pid = fn, args, None
        if not (fork and _CAN_FORK):
            return
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read)
                try:
                    outcome = (True, fn(*args), None)
                except Exception as exc:  # noqa: BLE001 - the parent raises it
                    import traceback  # here, not at the top: importing the package stays light

                    outcome = (False, exc, traceback.format_exc())
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.pid, self.pipe = pid, open(read, "rb")

    def join(self):
        """What the call returned, or raise what it raised: the same type
        and message, with the child's traceback as its cause.  Call it once."""
        if self.pid is None:
            return self.fn(*self.args)
        # to EOF before waiting: a payload larger than the pipe's buffer
        # keeps the child writing until it is read
        with self.pipe:
            payload = self.pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status != 0:  # the child exits 0 only once its whole outcome is sent
            how = f"exit status {status}" if status > 0 else f"signal {-status}"
            raise ChildProcessError(f"the child calling {self.fn.__name__} ended with {how} before reporting")
        returned, value, trace = pickle.loads(payload)
        if returned:
            return value
        raise value from _ChildTraceback(trace)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            import signal  # here, as traceback above

            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _play_kinds(cfg: ExperimentConfig, kinds, draws) -> dict[str, list[Trace]]:
    return {kind: run_lockstep(cfg, kind, draws) for kind in kinds}


def run_seeds(cfg: ExperimentConfig, ks, kinds=CONTROLLER_KINDS) -> list[RunRecord]:
    """Fresh costs and disturbances for each run k in ``ks``: every
    controller in ``kinds`` on all of them in lockstep, and the hindsight
    benchmarks of all of them in one batched pass: the best fixed input and
    DAC policy always, the best steady state when the runs have no
    disturbances.

    The first of ``kinds`` plays in a forked child process (on Linux, see
    :class:`_Forked`) while this process plays the others and solves the
    benchmarks; each part has the bits it has alone.  A failure of the
    first kind is the one raised, as when the kinds played in turn.
    """
    ks, kinds = list(ks), tuple(kinds)
    if not ks:
        raise InvalidInputError("no runs to play")
    draws = [draw_run(cfg, k) for k in ks]
    # with no kinds to play there is no child to fork
    with _Forked(_play_kinds, cfg, kinds[:1], draws, fork=bool(kinds)) as first:
        try:
            traces = _play_kinds(cfg, kinds[1:], draws)
            benches = solve_benchmarks(
                cfg.system(), cfg.x1, [(w_seq, costs) for costs, w_seq, _ in draws], cfg.u_box,
                cfg.dac.h_mem, cfg.dac_radius, steady_state=not cfg.disturbances_on,
            )
        except Exception:
            first.join()  # raises the first kind's failure, if it had one
            raise
        traces.update(first.join())
    return [
        RunRecord(
            run_index=k, seed=cfg.seed + k, costs=costs, w_seq=w_seq, params=params,
            traces={kind: traces[kind][i] for kind in kinds}, bench_u=bench_u, bench_m=bench_m, bench_x=bench_x,
        )
        for i, (k, (costs, w_seq, params), (bench_u, bench_m, bench_x)) in enumerate(zip(ks, draws, benches))
    ]


def run_one_seed(cfg: ExperimentConfig, run_index: int, kinds=CONTROLLER_KINDS) -> RunRecord:
    """The one-seed case of :func:`run_seeds`."""
    return run_seeds(cfg, [run_index], kinds)[0]


# (CSV column, benchmark, controller) of every regret curve, in file order.
REGRET_COLUMNS = (
    ("regret_olc_u", "u", "olc"),
    ("regret_dac_u", "u", "dac"),
    ("regret_olc_m", "m", "olc"),
    ("regret_dac_m", "m", "dac"),
    ("regret_olc_x", "x", "olc"),
    ("regret_dac_x", "x", "dac"),
)


def _regret_columns(report: RegretReport):
    """The columns of the benchmarks the run solved."""
    return [col for col in REGRET_COLUMNS if getattr(report, f"regret_{col[1]}") is not None]


def _write_table(path, header: list[str], index, columns: list) -> None:
    """The header, then one row per entry of ``index``: that integer, then
    each column's value there to 12 significant digits."""
    row = "%d" + ",%.12g" * len(columns)
    lines = [",".join(header)] + [row % values for values in zip(index, *columns)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_run_csv(path, cfg: ExperimentConfig, record: RunRecord, report: RegretReport) -> None:
    cols = _regret_columns(report)
    header = ["t", "cost_olc", "cost_dac", "cum_olc", "cum_dac"] + [col for col, _, _ in cols]
    curves = [record.traces["olc"].costs, record.traces["dac"].costs,
              report.cum_costs["olc"], report.cum_costs["dac"]]
    curves += [report.curve(bench, kind) for _, bench, kind in cols]
    _write_table(path, header, range(1, cfg.t + 1), curves)


def write_summary_csv(path, cfg: ExperimentConfig, reports: list[RegretReport]) -> None:
    """Per-step mean and standard deviation of each regret column."""
    header, curves = ["t"], []
    for col, bench, kind in _regret_columns(reports[0]):
        # (T, runs): each step's values are contiguous, so every step is
        # reduced exactly as a 1-d array of the runs' values
        stack = np.stack([rep.curve(bench, kind) for rep in reports], axis=1)
        header += [f"mean_{col}", f"std_{col}"]
        curves += [stack.mean(axis=1), stack.std(axis=1)]
    _write_table(path, header, range(1, cfg.t + 1), curves)


def write_benchmarks_csv(path, records: list[RunRecord]) -> None:
    _write_table(path, ["run", "bench_u", "bench_m"], [rec.run_index for rec in records],
                 [[rec.bench_u.value for rec in records], [rec.bench_m.value for rec in records]])


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    reports: list[RegretReport]
    failures: dict[int, str]
    output_dir: Path


_BUNDLE_NAME = re.compile(r"run_[0-9]+\.csv|summary\.csv|benchmarks\.csv|failures\.csv")


def _seed_task(cfg: ExperimentConfig, ks: list[int]) -> dict:
    """Runs ``ks`` in lockstep, isolated: run k -> (record, report), or the
    message of the exception that failed it.  If the runs fail together,
    each is run again alone, so a failure is charged to its own run and the
    others complete."""
    try:
        return {rec.run_index: (rec, compute_regret(rec)) for rec in run_seeds(cfg, ks)}
    except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
        if len(ks) == 1:
            return {ks[0]: f"{type(exc).__name__}: {exc}"}
    outcomes = {}
    for k in ks:
        outcomes.update(_seed_task(cfg, [k]))
    return outcomes


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> ExperimentResult:
    """Run all seeds in lockstep, solve all benchmarks, and write the CSV bundle.

    Emits run_<k>.csv per run, summary.csv with per-step mean/std of each
    regret column, benchmarks.csv with the final benchmark values, and a
    failures.csv manifest when individual runs fail.  Files of those names
    left by an earlier invocation are removed first, so the directory
    holds this invocation's bundle only; other files are left alone.
    """
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in out.iterdir():
        if _BUNDLE_NAME.fullmatch(path.name):
            path.unlink()
    records: list[RunRecord] = []
    reports: list[RegretReport] = []
    failures: dict[int, str] = {}
    for k, outcome in _seed_task(cfg, list(range(cfg.n_runs))).items():
        if isinstance(outcome, str):
            failures[k] = outcome
            continue
        record, report = outcome
        records.append(record)
        reports.append(report)
        write_run_csv(out / f"run_{k}.csv", cfg, record, report)
    if reports:
        write_summary_csv(out / "summary.csv", cfg, reports)
        write_benchmarks_csv(out / "benchmarks.csv", records)
    if failures:
        with open(out / "failures.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([("run", "error"), *sorted(failures.items())])
    return ExperimentResult(records=records, reports=reports, failures=failures, output_dir=out)

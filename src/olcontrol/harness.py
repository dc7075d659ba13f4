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
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkResult, _runs, solve_benchmarks
from .controllers import DacController, OlcController, regret_optimal_step_size
from .costs import QuadraticBatch, QuadraticCost, quadratic_grad, smoothness_constant
from .errors import ConfigError, InvalidInputError, InvalidStateError
from .linalg import BOX_QP_MAX_DIM, as_array, count, positive, real, row_norms, scalar, spectral_norm
from .system import BoxSet, LtiSystem, StateBound, fit_box, state_bound, transition

def default_system_matrices():
    """The stock simulation plant: a three-state ring with two actuators.
    A is written in eighteenths, the entries ``configs/default.json`` holds."""
    a = np.array([[5.0, 1.0, 0.0], [0.0, 5.0, 1.0], [1.0, 0.0, 5.0]]) / 18.0
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


def _optional(rule):
    """``rule`` that also takes None, the value of a key left to its default."""
    return lambda value, key: None if value is None else rule(value, key)


# A scalar key's kind is a linalg rule; these three are the config's own.
_boolean = scalar("a bool", (bool, np.bool_), bool)
_path = scalar("a str or os.PathLike", (str, os.PathLike), lambda value: value)
_leaf = scalar("finite numbers", (int, float), float, np.isfinite)


def _array(value, key):
    """The kind of an array: nested JSON arrays of finite numbers, read as
    nested lists of floats, whose shape the plant and BoxSet check.  Each
    leaf is checked here, since ``np.asarray([True, -1])`` is an int array."""
    return [_array(item, key) for item in value] if isinstance(value, list) else _leaf(value, f"{key} entries")


# The kind of a JSON object: its own rows, built into ``cls`` or, with no
# ``cls``, fields of the enclosing object.
_Section = namedtuple("_Section", "rows cls", defaults=(None,))

_BOX = {"lower": ("lower", _array), "upper": ("upper", _array)}

# Every config key, once: JSON key -> (field, kind).  ExperimentConfig
# checks its fields through the kinds however it was built, and
# config_from_dict reads JSON through the same rows.
_CONFIG = {
    "seed": ("seed", count(0, None)),  # PCG64 takes any integer >= 0
    "T": ("t", count(2)),
    "n_runs": ("n_runs", count(1)),
    "system": (None, _Section({"A": ("a", _array), "B": ("b", _array)})),
    "u_box": ("u_box", _Section(_BOX, BoxSet)),
    "w_box": ("w_box", _Section(_BOX, BoxSet)),
    "cost_gen": ("cost_gen", _Section({
        "q_scale": ("q_scale", real(positive=True)),
        "q_ridge": ("q_ridge", real(positive=False)),
        "c_max": ("c_max", real(positive=False)),
    }, CostGenConfig)),
    "olc": ("olc", _Section({"eta_override": ("eta_override", _optional(positive))}, OlcConfig)),
    "dac": ("dac", _Section({
        "H_mem": ("h_mem", count(1)),
        "eta_g": ("eta_g", _optional(positive)),
        "radius": ("radius", _optional(positive)),
    }, DacConfig)),
    "disturbances_on": ("disturbances_on", _boolean),
    "output_dir": ("output_dir", _path),
    "x1": ("x1", _array),
}


def _check(kind, value, key):
    """``kind(value, key)``, its InvalidInputError raised as a ConfigError."""
    try:
        return kind(value, key)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def _checked(obj, rows: dict, prefix: str = "") -> dict:
    """Field -> value of ``obj``'s fields in ``rows``, each checked by its
    kind; a section is rebuilt from its checked fields."""
    fields = {}
    for key, (name, kind) in rows.items():
        if kind is _array:
            continue
        if not isinstance(kind, _Section):
            fields[name] = _check(kind, getattr(obj, name), prefix + key)
        elif kind.cls is None:
            fields.update(_checked(obj, kind.rows, f"{prefix}{key}."))
        else:
            value = getattr(obj, name)
            if not isinstance(value, kind.cls):
                raise ConfigError(f"{prefix}{key} must be a {kind.cls.__name__}, got {value!r}")
            fields[name] = replace(value, **_checked(value, kind.rows, f"{prefix}{key}."))
    return fields


def _read(doc, rows: dict, prefix: str = "") -> dict:
    """Field -> value of each key of the JSON object ``doc``, through
    ``rows``: arrays and sections are built, other values passed on for the
    config to check.  A key left out keeps its field's default."""
    where = prefix[:-1] or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(rows)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    fields = {}
    for key, value in doc.items():
        name, kind = rows[key]
        if not isinstance(kind, _Section):
            fields[name] = _check(_array, value, prefix + key) if kind is _array else value
        elif kind.cls is None:
            fields.update(_read(value, kind.rows, f"{prefix}{key}."))
        else:
            section = _read(value, kind.rows, f"{prefix}{key}.")
            try:
                fields[name] = kind.cls(**section)
            except (InvalidInputError, TypeError) as exc:
                raise ConfigError(f"bad {prefix}{key}: {exc}") from exc
    return fields


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment; every field has its default here.

    Left unset, A and B are the ring plant of :func:`default_system_matrices`,
    the boxes are ±5 on each input and ±0.5 on each state, and x1 is the
    origin.  The plant is built once, here, and shared by every run, and
    every field is checked here too, by its kind in ``_CONFIG``
    (ConfigError) and stored as the kind returns it, so a config that
    exists is one a run can use; ``dataclasses.replace`` checks again.
    What the config alone fixes is derived here as well, once for every
    run: the state bound D (``bound``) and the DAC step and radius, each
    the ``dac`` value or, left unset, 1/sqrt(T) and kappa^3 ||B||.
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
        self._store({
            "_system": sys,
            "a": sys.a,
            "b": sys.b,
            "u_box": BoxSet.symmetric(5.0, m) if self.u_box is None else self.u_box,
            "w_box": BoxSet.symmetric(0.5, n) if self.w_box is None else self.w_box,
            "x1": x1,
        })
        self._store(_checked(self, _CONFIG))
        if not self.b.any():
            raise ConfigError("B is all zeros: no input reaches the plant")
        if m > BOX_QP_MAX_DIM:  # refused here, not after every run's loops
            raise ConfigError(f"B has {m} inputs; the hindsight box solves take at most {BOX_QP_MAX_DIM}")
        for key, dim in (("u_box", m), ("w_box", n)):
            _check(lambda box, name: fit_box(box, dim, name), getattr(self, key), key)
        eta_g, radius = self.dac.eta_g, self.dac.radius
        self._store({
            "bound": state_bound(sys, x1, self.u_box, self.w_box),
            "dac_eta_g": 1.0 / np.sqrt(self.t) if eta_g is None else eta_g,
            "dac_radius": sys.cert.kappa**3 * spectral_norm(sys.b) if radius is None else radius,
        })

    def _store(self, values: dict) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def system(self) -> LtiSystem:
        return self._system


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON-like document.

    Keys mirror the documented schema exactly (T and dac.H_mem are
    capitalized); unknown keys are rejected at every level, and a key left
    out keeps the :class:`ExperimentConfig` default; the config checks the values.
    """
    return ExperimentConfig(**_read(doc, _CONFIG))


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
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
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
        rng.standard_normal(out=ss[t])
        rng.random(out=cs[t])
    # uniform(0, c_max) draws 0.0 + c_max * random(): the same bits, scaled once
    cs *= gen.c_max
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


def _build_controller(cfg: ExperimentConfig, kind: str, params: list[RunParams]):
    """Controller ``kind`` for ``len(params)`` runs in lockstep."""
    sys = cfg.system()
    if kind == "olc":
        eta = np.array([p.eta for p in params])
        return OlcController(sys, cfg.u_box, eta, z0=np.broadcast_to(cfg.x1, eta.shape + cfg.x1.shape))
    if kind == "dac":
        return DacController(sys, cfg.u_box, cfg.dac.h_mem, cfg.dac_eta_g, cfg.dac_radius, runs=len(params))
    raise InvalidInputError(f"unknown controller kind {kind!r}")


def run_lockstep(cfg: ExperimentConfig, kind, draws) -> list[Trace]:
    """Run one controller kind through the round protocol for T steps on
    every run of ``draws`` at once: the experiment's one round loop.

    ``draws`` holds each run's (costs, w_seq, params), the params from
    :func:`derive_run_params`.  Per round: each run's controller sees its
    state and acts, the cost and its feedback are revealed at the
    pre-transition state, and only then does the plant move.  One pass of
    the loop advances all R runs; every product is taken run by run
    (``matvec``, stacked ``np.matmul``), so each run's trace has the bits
    it would have alone.  ``kind`` is "olc", "dac", or a callable
    ``kind(sys, cfg, params_list)`` returning a controller with a leading
    run axis of length R = ``len(params_list)``, even for one run.

    Each array is checked once, where it enters.  The draws are checked
    first, as one batch by the hindsight solvers' check
    (``benchmarks._runs``), for T costs each; InvalidInputError names the
    draw that fails.  Each round's input is checked as it leaves the
    controller's ``act`` (InvalidInputError), and every visited state
    against the bound D, ``cfg.bound``: a state past it, or NaN, is an
    InvalidStateError at the round it appears.  The transition and the
    cost gradient then go through the unchecked kernels
    (:func:`~olcontrol.system.transition`,
    :func:`~olcontrol.costs.quadratic_grad`).  The step costs are scored
    once per run, on the whole trajectory, the way the hindsight benchmarks
    score theirs.
    """
    sys = cfg.system()
    horizon, n, m = cfg.t, sys.state_dim, sys.input_dim
    draws = list(draws)
    runs = _runs(sys, cfg.x1, [(w_seq, costs) for costs, w_seq, _ in draws], horizon)
    params = [p for _, _, p in draws]
    # per-round stacks: round t of every run is qs[t], cs[t], ws[t]
    qs = np.stack([b.qs for b in runs.costs], axis=1)
    cs = np.stack([b.cs for b in runs.costs], axis=1)
    ws = runs.ws.swapaxes(0, 1)  # a view: the disturbances are stored once
    bound_slack = cfg.bound.d * (1.0 + 1e-9)
    ctrl = kind(sys, cfg, params) if callable(kind) else _build_controller(cfg, kind, params)
    # run-major, so each run's trajectory is one contiguous block
    states = np.empty((len(draws), horizon, n))
    inputs = np.empty((len(draws), horizon - 1, m))

    x = np.broadcast_to(cfg.x1, (len(draws), n)).astype(float)
    for t in range(horizon):
        norms = row_norms(x)
        within = norms <= bound_slack  # False for a NaN norm too
        if np.count_nonzero(within) != len(within):
            r = np.argmin(within)
            raise InvalidStateError(
                f"state norm {norms[r]:.6g} exceeds the certified bound {cfg.bound.d:.6g} at t={t + 1}"
            )
        states[:, t] = x
        if t == horizon - 1:
            break
        u = as_array(ctrl.act(x), "input", (len(draws), m))
        inputs[:, t] = u
        x_next = transition(sys, x, u, ws[t])
        if ctrl.feedback == "gradient":
            ctrl.observe(quadratic_grad(qs[t], cs[t], x), x_next)
        else:
            ctrl.observe(QuadraticCost.view(qs[t], cs[t]), x_next)
        x = x_next
    return [Trace(states=xs, inputs=us, costs=b.values(xs)) for xs, us, b in zip(states, inputs, runs.costs)]


def run_single(cfg: ExperimentConfig, kind, costs, w_seq, params: RunParams) -> Trace:
    """:func:`run_lockstep` on one run: its trace, states (T, N) and inputs
    (T-1, M).  A callable ``kind`` gets the one-entry params list and
    returns a controller with a run axis of length 1."""
    return run_lockstep(cfg, kind, [(costs, w_seq, params)])[0]


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


def compute_regret(record: RunRecord) -> dict[str, np.ndarray]:
    """The run's CSV columns after ``t``, by header name, in file order:
    ``cost_<kind>`` and ``cum_<kind>`` per controller, then
    ``regret_<kind>_<bench>``, the cumulative cost less the benchmark's,
    against the best fixed input (u), the best DAC policy (m) and the best
    steady state (x), for each benchmark the run solved.  Every value is a
    (T,) curve."""
    if record.bench_u is None:
        raise InvalidStateError("fixed-input benchmark missing; solve benchmarks first")
    cum = {kind: np.cumsum(tr.costs) for kind, tr in record.traces.items()}
    table = {f"cost_{kind}": tr.costs for kind, tr in record.traces.items()}
    table.update((f"cum_{kind}", curve) for kind, curve in cum.items())
    for bench, result in (("u", record.bench_u), ("m", record.bench_m), ("x", record.bench_x)):
        if result is not None:
            prefix = np.cumsum(result.step_costs)
            table.update((f"regret_{kind}_{bench}", curve - prefix) for kind, curve in cum.items())
    return table


def draw_run(cfg: ExperimentConfig, run_index: int) -> tuple:
    """Run ``run_index``'s (costs, w_seq, params), from seed + run_index."""
    rng = make_rng(cfg.seed + run_index)
    costs = generate_costs(cfg, rng)
    w_seq = generate_disturbances(cfg, rng)
    return costs, w_seq, derive_run_params(cfg, costs)


# Only Linux forks: macOS's Accelerate BLAS is not fork-safe, and Windows
# has no fork.
_CAN_FORK = sys.platform == "linux"


class _Forked:
    """``fn(*args)``, called in a forked child process beside the caller.

    The child inherits the caller's memory copy-on-write, so the arguments
    are not copied.  It sends back what the call returned, pickled over a
    pipe, and always leaves through ``os._exit``: it never returns into the
    caller's stack, and it exits 0 only once the whole result is sent.
    Where the platform cannot fork (``_CAN_FORK``) or ``os.fork`` fails (at
    a process limit, say), and whenever the child did not deliver, whether
    the call raised or the child died, :meth:`join` makes the same call
    in-process.  The call is deterministic, so a failure in the child is
    raised again here, with its type and message and a traceback from this
    process.  Used as a context manager, it kills and reaps a child that
    was not joined.
    """

    def __init__(self, fn, *args):
        self.fn, self.args, self.pid = fn, args, None
        if not _CAN_FORK:
            return
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if pid == 0:
            status = 1
            try:
                os.close(read)
                payload = pickle.dumps(fn(*args), pickle.HIGHEST_PROTOCOL)
                with open(write, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.pid, self.pipe = pid, open(read, "rb")

    def join(self):
        """What the call returned, from the child if it delivered, else from
        the call made here.  Call it once."""
        if self.pid is not None:
            # to EOF before waiting: a payload larger than the pipe's buffer
            # keeps the child writing until it is read
            with self.pipe:
                payload = self.pipe.read()
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            if os.waitstatus_to_exitcode(status) == 0:
                return pickle.loads(payload)
        return self.fn(*self.args)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            import signal  # here, not at the top: importing the package stays light

            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def solve_draws(cfg: ExperimentConfig, draws) -> list[tuple]:
    """The hindsight benchmarks of every run of ``draws``, the (costs,
    w_seq, params) of :func:`draw_run`, in one batched pass: per run, the
    best fixed input, the best DAC policy and, when the runs have no
    disturbances, the best steady state (else ``None``)."""
    return solve_benchmarks(
        cfg.system(), cfg.x1, [(w_seq, costs) for costs, w_seq, _ in draws], cfg.u_box,
        cfg.dac.h_mem, cfg.dac_radius, steady_state=not cfg.disturbances_on,
    )


def run_seeds(cfg: ExperimentConfig, ks) -> list[RunRecord]:
    """Fresh costs and disturbances for each run k in ``ks``: OLC and DAC
    on all of them in lockstep, and their hindsight benchmarks from
    :func:`solve_draws`.

    OLC plays in a forked child process (on Linux, see :class:`_Forked`)
    while this process plays DAC and solves the benchmarks; each part has
    the bits it has alone.  A failure of OLC is the one raised, as when
    the parts ran in turn.
    """
    ks = list(ks)
    if not ks:
        raise InvalidInputError("no runs to play")
    draws = [draw_run(cfg, k) for k in ks]
    with _Forked(run_lockstep, cfg, "olc", draws) as child:
        try:
            dac = run_lockstep(cfg, "dac", draws)
            benches = solve_draws(cfg, draws)
        except Exception:
            child.join()  # raises OLC's failure, if it had one
            raise
        olc = child.join()
    return [
        RunRecord(
            run_index=k, seed=cfg.seed + k, costs=costs, w_seq=w_seq, params=params,
            traces={"olc": olc[i], "dac": dac[i]}, bench_u=bench_u, bench_m=bench_m, bench_x=bench_x,
        )
        for i, (k, (costs, w_seq, params), (bench_u, bench_m, bench_x)) in enumerate(zip(ks, draws, benches))
    ]


def run_one_seed(cfg: ExperimentConfig, run_index: int) -> RunRecord:
    """The one-seed case of :func:`run_seeds`."""
    return run_seeds(cfg, [run_index])[0]


def _write_table(path, header: list[str], index, columns: list) -> None:
    """The header, then one row per entry of ``index``: that integer, then
    each column's value there to 12 significant digits."""
    row = "%d" + ",%.12g" * len(columns)
    # as Python floats, which % formats faster than numpy scalars, to the same text
    columns = [np.asarray(col).tolist() for col in columns]
    lines = [",".join(header), *map(row.__mod__, zip(index, *columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_run_csv(path, cfg: ExperimentConfig, table: dict) -> None:
    """``t``, then the columns of :func:`compute_regret`'s table."""
    _write_table(path, ["t", *table], range(1, cfg.t + 1), list(table.values()))


def write_summary_csv(path, cfg: ExperimentConfig, tables: list[dict]) -> None:
    """Per-step mean and standard deviation of each regret column."""
    header, curves = ["t"], []
    for col in tables[0]:
        if col.startswith("regret_"):
            # (T, runs): each step's values are contiguous, so every step is
            # reduced exactly as a 1-d array of the runs' values
            stack = np.stack([table[col] for table in tables], axis=1)
            header += [f"mean_{col}", f"std_{col}"]
            curves += [stack.mean(axis=1), stack.std(axis=1)]
    _write_table(path, header, range(1, cfg.t + 1), curves)


def write_benchmarks_csv(path, records: list[RunRecord]) -> None:
    _write_table(path, ["run", "bench_u", "bench_m"], [rec.run_index for rec in records],
                 [[rec.bench_u.value for rec in records], [rec.bench_m.value for rec in records]])


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    tables: list[dict[str, np.ndarray]]
    failures: dict[int, str]
    output_dir: Path


# the names run_experiment writes: run_<k>.csv has no leading zeros
_BUNDLE_NAME = re.compile(r"run_(0|[1-9][0-9]*)\.csv|summary\.csv|benchmarks\.csv|failures\.csv")


def _seed_task(cfg: ExperimentConfig, ks: list[int]) -> dict:
    """Runs ``ks`` in lockstep, isolated: run k -> (record, table), or the
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
    holds this invocation's bundle only; other files, ``run_007.csv``
    among them, are left alone.
    """
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file is in the way
        raise ConfigError(f"output directory {out} cannot be made: {exc}") from exc
    for path in out.iterdir():
        if _BUNDLE_NAME.fullmatch(path.name):
            path.unlink()
    records: list[RunRecord] = []
    tables: list[dict[str, np.ndarray]] = []
    failures: dict[int, str] = {}
    for k, outcome in _seed_task(cfg, list(range(cfg.n_runs))).items():
        if isinstance(outcome, str):
            failures[k] = outcome
            continue
        record, table = outcome
        records.append(record)
        tables.append(table)
        write_run_csv(out / f"run_{k}.csv", cfg, table)
    if tables:
        write_summary_csv(out / "summary.csv", cfg, tables)
        write_benchmarks_csv(out / "benchmarks.csv", records)
    if failures:
        with open(out / "failures.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([("run", "error"), *sorted(failures.items())])
    return ExperimentResult(records=records, tables=tables, failures=failures, output_dir=out)

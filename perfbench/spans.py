"""Span recorder for the traced run.

``install`` replaces public names of olcontrol's layers with wrappers that
record one span per call: (name, start, end, parent).  A function is
replaced in every olcontrol module that holds it, so the harness, the CLI
and the controllers call the wrapper through the names they imported.  A
method is replaced on its class.  A name the package no longer has
raises, so a renamed layer fails the traced run instead of reading 0.

Spans stay in memory until ``write``.  ``layer_metrics`` turns them into
the per-layer metrics listed in README.md.
"""

import json
import sys
import time
from statistics import median

LAYERS = ("harness", "controllers", "benchmarks", "system", "linalg", "costs")

FUNCTIONS = {
    "harness": ("run_experiment", "run_one_seed", "run_single", "generate_costs",
                "generate_disturbances", "derive_run_params", "compute_regret",
                "write_run_csv", "write_summary_csv", "write_benchmarks_csv"),
    "benchmarks": ("best_fixed_input", "best_dac", "best_steady_state"),
    "system": ("certify_strong_stability", "step", "simulate"),
    "linalg": ("spectral_norm", "batch_spectral_norms"),
    "costs": ("smoothness_constant",),
}
METHODS = {
    "harness": {"ExperimentConfig": ("system",)},
    "controllers": {"OlcController": ("__init__", "act", "observe"),
                    "DacController": ("act", "observe")},
    "costs": {"QuadraticCost": ("value", "grad")},
}


class Tracer:
    """Spans of one process, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.results = []    # (span index, return value) of the hindsight solvers
        self._open = []

    def wrap(self, name, fn, label=None, keep_result=False):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name if label is None else label(args, kwargs), clock(), 0.0,
                    open_[-1] if open_ else -1]
            index = len(spans)
            spans.append(span)
            open_.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if keep_result:
                self.results.append((index, out))
            return out

        return wrapper

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "names": names, "spans": rows}, fh)


def _run_single_label(args, kwargs):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    return f"harness.run_single:{kind if isinstance(kind, str) else 'custom'}"


def install(tracer: Tracer) -> None:
    """Wrap the traced public names of an imported olcontrol."""
    modules = [m for n, m in sys.modules.items() if n == "olcontrol" or n.startswith("olcontrol.")]
    for layer, names in FUNCTIONS.items():
        home = sys.modules[f"olcontrol.{layer}"]
        for fname in names:
            fn = getattr(home, fname)
            wrapper = tracer.wrap(
                f"{layer}.{fname}", fn,
                label=_run_single_label if fname == "run_single" else None,
                keep_result=layer == "benchmarks",
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
    for layer, classes in METHODS.items():
        home = sys.modules[f"olcontrol.{layer}"]
        for cname, methods in classes.items():
            cls = getattr(home, cname)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cname}.{meth}", vars(cls)[meth]))


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, experiment_start: float, n_runs: int) -> dict:
    """Per-layer metrics of one traced process (see README.md for units).

    Totals are per seeded run and cover the experiment, which starts at
    ``experiment_start``.  The certificate, and the spectral norms it
    computes, run during set-up, so system.certify_s and linalg.spectral_norm_*
    cover the whole process.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    in_seed = [False] * len(spans)  # inside a harness.run_one_seed call; parents precede children
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_seed[i] = in_seed[parent] or spans[parent][0] == "harness.run_one_seed"
    total, count, durations = {}, {}, {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    whole_total, whole_count = {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        whole_total[name] = whole_total.get(name, 0.0) + dur
        whole_count[name] = whole_count.get(name, 0) + 1
        if start < experiment_start:
            continue
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        durations.setdefault(name, []).append(dur)
        self_time[name.split(".")[0]] += dur - child_time[i]

    def per_run(*names):
        return sum(total.get(n, 0.0) for n in names) / n_runs

    def calls(*names):
        return sum(count.get(n, 0) for n in names) / n_runs

    solves = {}
    for index, result in tracer.results:
        if spans[index][1] >= experiment_start:
            solves.setdefault(spans[index][0], []).append(result)

    def iters(name):
        got = solves.get(name, [])
        return sum(r.iterations for r in got) / len(got) if got else 0.0

    attempted = [r for got in solves.values() for r in got]
    metrics = {
        "harness.generate_s": per_run("harness.generate_costs", "harness.generate_disturbances"),
        "harness.derive_params_s": per_run("harness.derive_run_params"),
        "harness.olc_loop_s": per_run("harness.run_single:olc"),
        "harness.dac_loop_s": per_run("harness.run_single:dac"),
        "harness.regret_s": per_run("harness.compute_regret"),
        "harness.csv_write_s": per_run("harness.write_run_csv", "harness.write_summary_csv",
                                       "harness.write_benchmarks_csv"),
        "harness.seed_s_p50": median(durations.get("harness.run_one_seed", [0.0])),
        "harness.system_builds": sum(in_seed[i] for i, s in enumerate(spans)
                                     if s[0] == "harness.ExperimentConfig.system") / n_runs,
        "controllers.olc_init_s": per_run("controllers.OlcController.__init__"),
        "controllers.olc_act_s_p50": _quantile(durations.get("controllers.OlcController.act", []), 0.5),
        "controllers.olc_observe_s_p50": _quantile(durations.get("controllers.OlcController.observe", []), 0.5),
        "controllers.olc_observe_s_p99": _quantile(durations.get("controllers.OlcController.observe", []), 0.99),
        "controllers.dac_act_s_p50": _quantile(durations.get("controllers.DacController.act", []), 0.5),
        "controllers.dac_observe_s_p50": _quantile(durations.get("controllers.DacController.observe", []), 0.5),
        "benchmarks.fixed_input_s": per_run("benchmarks.best_fixed_input"),
        "benchmarks.fixed_input_iters": iters("benchmarks.best_fixed_input"),
        "benchmarks.dac_s": per_run("benchmarks.best_dac"),
        "benchmarks.dac_iters": iters("benchmarks.best_dac"),
        "benchmarks.steady_state_s": per_run("benchmarks.best_steady_state"),
        "benchmarks.steady_state_iters": iters("benchmarks.best_steady_state"),
        "benchmarks.unconverged_frac": (sum(not r.converged for r in attempted) / len(attempted)
                                        if attempted else 0.0),
        "system.certify_s": whole_total.get("system.certify_strong_stability", 0.0),
        "system.step_calls": calls("system.step"),
        "system.step_s": per_run("system.step"),
        "system.simulate_calls": calls("system.simulate"),
        "linalg.spectral_norm_calls": whole_count.get("linalg.spectral_norm", 0),
        "linalg.spectral_norm_s": whole_total.get("linalg.spectral_norm", 0.0),
        "linalg.batch_norms_s": per_run("linalg.batch_spectral_norms"),
        "costs.smoothness_s": per_run("costs.smoothness_constant"),
        "costs.oracle_calls": calls("costs.QuadraticCost.value", "costs.QuadraticCost.grad"),
        "costs.oracle_s": per_run("costs.QuadraticCost.value", "costs.QuadraticCost.grad"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer] / n_runs
    return metrics

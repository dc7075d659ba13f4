"""Command-line front end: run experiments, solve benchmarks, check configs.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

import argparse
import sys

from .errors import ConfigError
from .harness import draw_run, load_config, run_experiment, solve_draws
from .linalg import spectral_radius_estimate
from .system import RADIUS_POWER


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="olcontrol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full experiment and write CSVs")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--runs", type=int, default=None, help="override the number of runs")
    run.add_argument("--horizon", type=int, default=None, help="override the horizon T")

    bench = sub.add_parser("bench", help="solve the hindsight benchmarks and print values")
    bench.add_argument("--config", required=True)

    check = sub.add_parser("check", help="print the stability certificate and derived constants")
    check.add_argument("--config", required=True)
    return parser


# (command-line flag, the top-level config key it overrides)
_OVERRIDES = (("seed", "seed"), ("runs", "n_runs"), ("horizon", "T"), ("out", "output_dir"))


def _overrides(args) -> dict:
    return {key: getattr(args, flag) for flag, key in _OVERRIDES if getattr(args, flag) is not None}


_SOLVERS = (("bench_u", "best_fixed_input"), ("bench_m", "best_dac"), ("bench_x", "best_steady_state"))


def _solves(benches):
    """(field, solver name, result) for each hindsight solve of a run, from
    its (bench_u, bench_m, bench_x)."""
    for (attr, solver), result in zip(_SOLVERS, benches):
        if result is not None:
            yield attr, solver, result


def _warn_unconverged(k, benches) -> None:
    for _, solver, result in _solves(benches):
        if not result.converged:
            print(
                f"warning: run {k}: {solver} did not converge "
                f"in {result.iterations} iterations",
                file=sys.stderr,
            )


def _cmd_run(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    result = run_experiment(cfg)
    print(f"wrote {len(result.records)} run file(s) to {result.output_dir}")
    for record in result.records:
        _warn_unconverged(record.run_index, (record.bench_u, record.bench_m, record.bench_x))
    for k, msg in sorted(result.failures.items()):
        print(f"run {k} failed: {msg}", file=sys.stderr)
    return 2 if result.failures else 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    draws = [draw_run(cfg, k) for k in range(cfg.n_runs)]
    for k, benches in enumerate(solve_draws(cfg, draws)):
        fields = [
            f"{attr}={res.value:.6f} (iterations={res.iterations}, converged={res.converged})"
            for attr, _, res in _solves(benches)
        ]
        print(f"run {k}: " + " ".join(fields))
        _warn_unconverged(k, benches)
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    _, _, params = draw_run(cfg, 0)
    cert = cfg.system().cert
    print(f"spectral radius estimate: {spectral_radius_estimate(cfg.a, RADIUS_POWER):.6f}")
    print(f"gamma: {cert.gamma:.6f}")
    print(f"kappa: {cert.kappa:.6f}")
    print(f"state bound D: {cfg.bound.d:.6f}")
    print(f"smoothness L: {params.l:.6f}")
    print(f"step size eta: {params.eta:.8g}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "check":
            return _cmd_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

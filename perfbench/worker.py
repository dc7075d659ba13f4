"""One benchmark sample, run in a fresh interpreter by run.py.

Set-up is ``import olcontrol`` plus ``olcontrol check`` on the workload
config, which certifies the plant and fills the per-process certificate
cache.  The experiment is one ``olcontrol run`` on the same config.  Both
go through ``olcontrol.cli.cli_main``.  The speed probe (speed.py) runs
between the two and after the experiment; run.py runs it before the
worker starts.  The sample's wall times, probe times, peak memory,
environment and (with --spans) per-layer metrics are written as JSON to
--result.

Usage: python3 worker.py --config CFG --out DIR --result FILE [--spans FILE]
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import olcontrol.cli

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    captured = []
    run_experiment = olcontrol.cli.run_experiment

    def capture(*a, **kw):
        captured.append(run_experiment(*a, **kw))
        return captured[-1]

    olcontrol.cli.run_experiment = capture

    check_out = io.StringIO()
    with contextlib.redirect_stdout(check_out):
        check_rc = olcontrol.cli.cli_main(["check", "--config", args.config])
    t1 = time.perf_counter()
    import speed

    probe_mid = speed.probes()
    t1_run = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        run_rc = olcontrol.cli.cli_main(["run", "--config", args.config, "--out", args.out])
    t2 = time.perf_counter()
    probe_end = speed.probes()

    result = {
        "setup_wall_s": t1 - t0,
        "experiment_wall_s": t2 - t1_run,
        "probe_mid": probe_mid,
        "probe_end": probe_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_rc": check_rc,
        "check_ok": "kappa:" in check_out.getvalue(),
        "run_rc": run_rc,
        "env": environment(),
    }
    if captured:
        exp = captured[0]
        gaps = [abs(b.value - b.value_nominal) / max(abs(b.value), 1.0)
                for rec in exp.records for b in (rec.bench_u, rec.bench_m)]
        result["runs_ok"] = len(exp.records)
        result["failures"] = {str(k): msg for k, msg in exp.failures.items()}
        result["value_gap"] = max(gaps, default=0.0)
    if tracer is not None:
        n_runs = json.loads(Path(args.config).read_text())["n_runs"]
        result["layers"] = spans.layer_metrics(tracer, t1_run, n_runs)
        bundle_bytes = sum(f.stat().st_size for f in Path(args.out).iterdir())
        result["layers"]["harness.csv_bytes"] = bundle_bytes / n_runs
        tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    sys.exit(0 if check_rc == 0 and run_rc == 0 else 1)


if __name__ == "__main__":
    main()

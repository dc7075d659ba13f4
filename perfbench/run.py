"""Benchmark of the olcontrol experiment pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-disturbed --seed 1 --seconds 30 --trace 0

Each sample is a fresh interpreter (worker.py) that sets up (import plus
``olcontrol check``) and then runs one ``olcontrol run`` on the workload.
Samples repeat, one at a time, until --seconds have passed.  Set-up and
experiment times are scaled to a nominal machine speed with the speed
probe (speed.py).  With --trace 0 the end-to-end metrics are printed; with
--trace 1 untraced and traced samples alternate and the per-layer metrics
are printed.  Metric names and units are those of BENCHMARK.json.  Every
sample's CSV bundle goes through the correctness gate (gate.py).  The last line of
standard output is one JSON object; the exit code is 0 only if the gate
passed.  A fuller record, with the environment, is written under
.perfbench_work/.  README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import gate
import speed
from workloads import WORKLOADS, base_seed, workload_config

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
MIN_SAMPLES = 2          # byte identity needs two bundles
DEADLINE_S = 150.0       # start no sample that could end after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SAMPLE_METRICS = ("setup_s", "experiment_s", "peak_rss_mb")  # medians over samples
SAMPLE_KEYS = SAMPLE_METRICS + ("setup_wall_s", "experiment_wall_s",
                                "probe_before", "probe_mid", "probe_end")


def pinned_env(root: Path) -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_sample(env, cfg_path: Path, run_dir: Path, index: int, traced: bool, deadline: float):
    """One worker process; returns (result dict or None, bundle dir, error text)."""
    bundle = run_dir / f"bundle_{index}"
    result = run_dir / f"result_{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
           "--out", str(bundle), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(run_dir / f"spans_{index}.json")]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline + 25.0 - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, bundle, "worker timed out"
    if not result.exists():
        return None, bundle, proc.stderr.strip()[-2000:] or f"worker exited with {proc.returncode}"
    return json.loads(result.read_text()), bundle, proc.stderr.strip()[-2000:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so subprocess.run kills the worker and the run dir goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "olcontrol" / "__init__.py").is_file() or not (root / "configs" / "default.json").is_file():
        print("error: run from the root of an olcontrol checkout (src/olcontrol and configs/default.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    doc = workload_config(root, workload, base_seed(args.seed))
    try:
        entry = gate.reference_entry(gate.load_reference(), workload.name, doc)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        return measure(args, root, workload, doc, entry, units, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, root, workload, doc, entry, units: dict, run_dir: Path) -> int:
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=1))
    env = pinned_env(root)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    samples, problems, digests = [], [], set()
    attempted = failed = 0
    longest = 0.0  # wall time of the longest round of samples so far
    while True:
        began = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            probe_before = speed.probes()
            res, bundle, err = run_sample(env, cfg_path, run_dir, len(samples), traced, deadline)
            attempted += doc["n_runs"]
            tag = f"sample {len(samples)}{' (traced)' if traced else ''}"
            if res is None:
                failed += doc["n_runs"]
                problems.append(f"{tag}: {err}")
                samples.append((traced, None))
                continue
            res["probe_before"] = probe_before
            res["setup_s"] = speed.at_nominal_speed(res["setup_wall_s"], probe_before + res["probe_mid"])
            res["experiment_s"] = speed.at_nominal_speed(res["experiment_wall_s"], res["probe_mid"] + res["probe_end"])
            failed += doc["n_runs"] - res.get("runs_ok", 0)
            if res["check_rc"] != 0 or not res["check_ok"]:
                problems.append(f"{tag}: olcontrol check failed: {err}")
            if res["run_rc"] != 0 or res.get("failures"):
                problems.append(f"{tag}: olcontrol run failed: {res.get('failures') or err}")
            if res.get("value_gap", float("inf")) > gate.VALUE_GAP_TOL:
                problems.append(f"{tag}: value and value_nominal differ by {res.get('value_gap')}")
            if bundle.is_dir():
                found = gate.bundle_problems(bundle, doc)
                if not found and not digests:
                    found = gate.reference_problems(bundle, doc, entry)
                problems += [f"{tag}: {p}" for p in found]
                digests.add(gate.bundle_digest(bundle))
                shutil.rmtree(bundle)
            else:
                problems.append(f"{tag}: no CSV bundle written")
            samples.append((traced, res))
        now = time.monotonic()
        longest = max(longest, now - began)
        # stop before a round that would end after --seconds, once there are enough samples
        untraced = sum(1 for traced, _ in samples if not traced)
        if (now + longest - start > args.seconds and untraced >= MIN_SAMPLES) or now + longest > deadline:
            break
    if len(digests) > 1:
        problems.append(f"CSV bundles differ across {len(samples)} repetitions of the same seed")

    plain = [r for traced, r in samples if r is not None and not traced]
    traced_ok = [r for traced, r in samples if r is not None and traced]
    values = {}
    if args.trace and traced_ok and plain:
        values = {k: median(r["layers"][k] for r in traced_ok) for k in traced_ok[0]["layers"]}
        values["trace.overhead_frac"] = (median(r["experiment_s"] for r in traced_ok)
                                         / median(r["experiment_s"] for r in plain) - 1.0)
    elif not args.trace and plain:
        values = {k: median(r[k] for r in plain) for k in SAMPLE_METRICS}
        values["completed_runs_frac"] = (attempted - failed) / attempted
    if values.keys() != units.keys():
        problems.append(f"metrics {sorted(values.keys() ^ units.keys())} are measured but not declared "
                        "in BENCHMARK.json, or declared but not measured")
    metrics = {k: (v, units[k]) for k, v in values.items() if k in units}
    correct = not problems
    report(args, workload, doc, samples, metrics, problems, run_dir, attempted, failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def report(args, workload, doc, samples, metrics, problems, run_dir, attempted, failed) -> None:
    """Print the human-readable lines and keep the full record on disk."""
    ok = [(traced, r) for traced, r in samples if r is not None]
    env = ok[0][1]["env"] if ok else {}
    first, last = doc["seed"], doc["seed"] + doc["n_runs"] - 1
    print(f"workload {workload.name}: seed {args.seed} -> run seeds {first}..{last}, "
          f"T={doc['T']}, {doc['n_runs']} run(s) per experiment, {len(samples)} sample(s)")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    traced = sum(1 for t, _ in ok if t)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"samples: {len(ok) - traced} untraced, {traced} traced; metrics are medians over "
          f"{'traced' if args.trace else 'untraced'} samples")
    plain = [r for t, r in ok if not t]
    if plain:
        print(f"wall time, untraced medians: set-up {median(r['setup_wall_s'] for r in plain):.4g} s, "
              f"experiment {median(r['experiment_wall_s'] for r in plain):.4g} s; speed probe "
              f"{median(p for r in plain for p in r['probe_mid']):.4g} s against a nominal {speed.NOMINAL_S} s")
    print(f"runs: {attempted - failed} of {attempted} completed")
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)
    print("gate: " + ("FAILED, see stderr" if problems else "ok"))

    out = run_dir.parent / "results"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "config": doc, "env": env,
        "samples": [{"traced": traced, **{k: r[k] for k in SAMPLE_KEYS}} for traced, r in ok],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    spans = sorted(run_dir.glob("spans_*.json"))
    if spans:
        traces = run_dir.parent / "traces"
        traces.mkdir(exist_ok=True)
        shutil.copyfile(spans[0], traces / f"{stem}.json")


if __name__ == "__main__":
    sys.exit(main())

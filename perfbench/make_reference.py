"""Regenerate reference.json, the stored outputs the correctness gate checks.

Run from the repository root:

    python3 perfbench/make_reference.py

For each workload it runs ``olcontrol run`` once with base seed 0 and
enough runs to cover every run seed the benchmark can reach (run k uses
seed k), then stores bench_u, bench_m and the final regrets of each run as
printed in the CSVs.  Only regenerate after a change that is meant to alter
the outputs, and say why in CHANGES.md.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
from run import WORK_DIR, pinned_env
from workloads import SEED_POOL, WORKLOADS, workload_config


def main() -> int:
    root = Path.cwd()
    reference = {}
    (root / WORK_DIR).mkdir(exist_ok=True)
    for name, workload in sorted(WORKLOADS.items()):
        doc = workload_config(root, workload, 0, n_runs=SEED_POOL + workload.n_runs - 1)
        with tempfile.TemporaryDirectory(dir=root / WORK_DIR) as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(doc))
            bundle = Path(tmp) / "bundle"
            subprocess.run([sys.executable, "-m", "olcontrol.cli", "run", "--config", str(cfg),
                            "--out", str(bundle)], env=pinned_env(root), check=True)
            problems = gate.bundle_problems(bundle, doc)
            if problems:
                raise SystemExit(f"{name}: {problems}")
            reference[name] = gate.reference_from_bundle(bundle, doc)
        print(f"{name}: {len(reference[name]['seeds'])} run seeds")
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

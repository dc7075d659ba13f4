"""The full experiment pipeline: seeded runs to CSV files.

Each run gets fresh costs and disturbances from seed + run index, both
controllers, and its own benchmark solves.  Identical config and seed give
byte-identical files.
"""

import tempfile
from pathlib import Path

from olcontrol import ExperimentConfig, run_experiment

out = Path(tempfile.mkdtemp(prefix="olcontrol_demo_"))
cfg = ExperimentConfig(t=200, n_runs=3, seed=11)
result = run_experiment(cfg, output_dir=out)

print(f"wrote {len(result.records)} runs to {out}\n")
for name in sorted(p.name for p in out.iterdir()):
    print(f"  {name}")

run0 = (out / "run_0.csv").read_text().splitlines()
print(f"\nrun_0.csv: {len(run0) - 1} rows")
print("  " + run0[0])
print("  " + run0[1])
print("  " + run0[-1])
# result.tables holds each run's columns by header name, unrounded
print(f"  final regret_olc_u of run 0, unrounded: {float(result.tables[0]['regret_olc_u'][-1])!r}")

print("\nbenchmarks.csv (final hindsight values per run):")
for line in (out / "benchmarks.csv").read_text().splitlines():
    print("  " + line)

summary = (out / "summary.csv").read_text().splitlines()
last = summary[-1].split(",")
header = summary[0].split(",")
print("\nacross-run means at the final step:")
for name, value in zip(header[1::2], last[1::2]):
    print(f"  {name}: {float(value):.1f}")

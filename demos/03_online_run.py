"""One seeded online run: the target-state controller vs the
disturbance-action baseline.

Both controllers face the same adversarial quadratic costs (random targets
pulled away from the origin) and the same disturbances.  The target-state
controller walks its holdable target toward the best region with projected
gradient steps; the baseline can only shape its inputs from recent
disturbances, so it cannot hold an offset and pays for it.
"""

import numpy as np

from olcontrol import ExperimentConfig, compute_regret
from olcontrol.harness import run_one_seed

cfg = ExperimentConfig(t=1000, n_runs=1, seed=7)
record = run_one_seed(cfg, 0)
table = compute_regret(record)  # the run CSV's columns by header name

cert, p = cfg.system().cert, record.params
print(f"certificate: gamma={cert.gamma:.4f} kappa={cert.kappa:.4f}")
print(f"state bound D={cfg.bound.d:.2f}, smoothness L={p.l:.2f}, step size eta={p.eta:.5f}")

olc, dac = record.traces["olc"], record.traces["dac"]
print(f"\ncumulative cost, target-state controller: {olc.total_cost:12.1f}")
print(f"cumulative cost, disturbance-action:        {dac.total_cost:12.1f}")
print(f"best fixed input in hindsight:              {record.bench_u.value:12.1f}")
print(f"best disturbance-action in hindsight:       {record.bench_m.value:12.1f}")

print("\nregret vs the fixed-input benchmark over time (prefix sums):")
print("    t    target-state    disturbance-action")
for t in (100, 250, 500, 1000):
    print(f"{t:5d}    {table['regret_olc_u'][t-1]:12.1f}    {table['regret_dac_u'][t-1]:12.1f}")

print("\nregret vs the disturbance-action benchmark at T:")
print(f"target-state: {table['regret_olc_m'][-1]:.1f} (negative: it beats that benchmark)")
print(f"baseline:     {table['regret_dac_m'][-1]:.1f}")

# the controller's target, the steady state S u of the input it plays,
# settles near the best steady state
z_final = cfg.system().steady_state_gain @ olc.inputs[-1]
print(f"\nfinal target state: {np.array_str(z_final, precision=3)}")
print(f"benchmark's steady state under u*: {np.array_str(record.bench_u.optimizer, precision=3)} (input space)")

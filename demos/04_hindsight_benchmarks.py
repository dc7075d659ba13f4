"""The three hindsight baselines and their validation oracle.

Each solver assembles its objective once as a quadratic in the decision
variable (the costs here are quadratic, which the solvers require) and
minimizes it: the fixed input and the steady state exactly, over the
faces of the input box, and the disturbance-action blocks by projected
gradient descent.  The fixed-input one is cross-checked against brute
force on a grid.
"""

import numpy as np

from olcontrol import (
    BoxSet,
    LtiSystem,
    QuadraticCost,
    best_dac,
    best_fixed_input,
    best_steady_state,
    default_system_matrices,
    grid_oracle_fixed_input,
)

rng = np.random.default_rng(3)
sys = LtiSystem(*default_system_matrices())
horizon = 60
costs = []
for _ in range(horizon):
    s = rng.standard_normal((3, 3))
    costs.append(QuadraticCost(q=s.T @ s / 3 + 0.1 * np.eye(3), c=rng.uniform(0, 2, 3)))
w_seq = rng.uniform(-0.3, 0.3, (horizon - 1, 3))
x1 = np.zeros(3)
u_box = BoxSet.symmetric(2.0, 2)

fixed = best_fixed_input(sys, x1, w_seq, costs, u_box)
print(f"best fixed input: u* = {np.array_str(fixed.optimizer, precision=4)}")
print(f"  value {fixed.value:.4f} over the box's {fixed.iterations} faces")
print(f"  same value through the assembled model: {fixed.value_nominal:.4f}")

steady = best_steady_state(costs, sys, u_box)
print(f"\nbest holdable state: x* = {np.array_str(steady.optimizer, precision=4)}")
print(f"  value {steady.value:.4f} (no transient: this benchmark sits at x* from t=1)")

dac = best_dac(sys, x1, w_seq, costs, h_mem=6, radius=1.0)
print(f"\nbest disturbance-action blocks: value {dac.value:.4f} in {dac.iterations} iterations")
print(f"  block norms: {[f'{np.linalg.norm(m):.3f}' for m in dac.optimizer]}")

grid = grid_oracle_fixed_input(sys, x1, w_seq, costs, u_box, resolution=200)
print(f"\ngrid oracle ({grid.iterations} points): value {grid.value:.4f}")
print(f"solver vs grid gap: {abs(fixed.value - grid.value):.2e} (grid can only be worse)")

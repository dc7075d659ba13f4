"""The steady-state manifold: the set of states the plant can hold forever.

With inputs confined to a box U, the holdable states are x = (I-A)^{-1} B u
for u in U -- a bounded patch of a low-dimensional subspace.  The online
controller lives on this patch, so its two primitives are mapping inputs to
steady states (and back, through the projection) and projecting arbitrary points onto the patch.
"""

import numpy as np

from olcontrol import (
    BoxSet,
    LtiSystem,
    OlcController,
    default_system_matrices,
    project_steady_state,
    simulate,
    steady_state_of_input,
)

sys = LtiSystem(*default_system_matrices())
u_box = BoxSet.symmetric(5.0, 2)

u = np.array([2.0, -1.0])
z = steady_state_of_input(sys, u)
print(f"input {u} holds the plant at z = {np.array_str(z, precision=4)}")
# a target-state controller started at z projects it onto the manifold,
# and the input it plays is the one holding z
print(f"recovered input: {np.array_str(OlcController(sys, u_box, eta=0.1, z0=z).act(z), precision=4)}")

# holding means holding: simulate under the constant input
states = simulate(sys, z, np.tile(u, (10, 1)))
print(f"max drift over 10 held steps: {np.max(np.abs(states - z)):.2e}")

# projection of an arbitrary state onto the manifold
y = np.array([1.0, 2.0, -1.0])
z_proj = project_steady_state(sys, u_box, y)
print(f"\nprojection of {y} onto the manifold: {np.array_str(z_proj, precision=4)}")
print(f"distance to the manifold: {np.linalg.norm(z_proj - y):.4f}")

# projecting a manifold point returns it unchanged
print(f"re-projection moves the point by {np.linalg.norm(project_steady_state(sys, u_box, z_proj) - z_proj):.2e}")

# the projection is a contraction: pairs of points never move apart
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(200):
    p, q = rng.standard_normal(3) * 4, rng.standard_normal(3) * 4
    dp = np.linalg.norm(project_steady_state(sys, u_box, p) - project_steady_state(sys, u_box, q))
    worst = max(worst, dp / np.linalg.norm(p - q))
print(f"\nmax ||proj(p)-proj(q)|| / ||p-q|| over 200 random pairs: {worst:.4f} (<= 1)")

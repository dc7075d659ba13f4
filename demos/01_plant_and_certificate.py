"""Tour of the plant: stability certification and worst-case state bounds.

The stock system is a three-state ring with two actuators.  Everything the
regret analysis needs about it is summarized by two constants (gamma,
kappa) certifying that the norms of A^k decay geometrically.
"""

import numpy as np

from olcontrol import (
    BoxSet,
    LtiSystem,
    certify_strong_stability,
    default_system_matrices,
    spectral_norm,
    spectral_radius_estimate,
    state_bound,
)
from olcontrol.system import RADIUS_POWER

a, b = default_system_matrices()
sys = LtiSystem(a, b)

print("plant A =")
print(np.array_str(a, precision=4))
print("input map B =")
print(np.array_str(b, precision=4))

rho = spectral_radius_estimate(a, RADIUS_POWER)
print(f"\nspectral radius estimate: {rho:.6f} (exact value is 1/3)")

cert = certify_strong_stability(a)
print(f"certificate: gamma = {cert.gamma:.6f}, kappa = {cert.kappa:.6f}")

# the certificate promises ||A^k|| <= kappa (1-gamma)^k; watch it hold
print("\n k   ||A^k||        kappa*(1-gamma)^k")
power = np.eye(3)
for k in range(0, 13, 2):
    bound = cert.kappa * (1 - cert.gamma) ** k
    print(f"{k:2d}   {spectral_norm(power):.6e}   {bound:.6e}")
    power = power @ a @ a

# bounded inputs and disturbances keep the state in a ball of radius D
u_box = BoxSet.symmetric(5.0, 2)
w_box = BoxSet.symmetric(0.5, 3)
bound = state_bound(sys, np.zeros(3), u_box, w_box)  # under sys.cert, the same certificate
print(f"\nworst-case state norm D = {bound.d:.4f}")
print("every simulated trajectory below stays far inside that ball:")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    x = np.zeros(3)
    for t in range(200):
        u = rng.uniform(u_box.lower, u_box.upper)
        w = rng.uniform(w_box.lower, w_box.upper)
        x = sys.a @ x + sys.b @ u + w
        worst = max(worst, float(np.linalg.norm(x)))
print(f"max ||x_t|| over 50 random runs of 200 steps: {worst:.4f} <= {bound.d:.4f}")

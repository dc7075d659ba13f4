"""Speed probe: a fixed piece of work that stands in for the machine's speed.

The machines this benchmark runs on change speed by up to a factor of two
over seconds to minutes (shared cores), and olcontrol's times follow.  The
probe runs the same kind of work as olcontrol's hot loops (small numpy
products, clamps and norms called from a Python loop, plus a few 3x3
singular value decompositions as in the stability certificate), always
the same amount of it.  The probe runs right before set-up, between set-up
and the experiment, and right after it.  run.py scales each of the two
times by ``NOMINAL_S`` over the mean of the probes on either side of it,
so a slow spell of the machine slows the probe and the sample alike and
drops out of the ratio, while a change to olcontrol leaves the probe as
it is.
"""

import time

import numpy as np

ITERATIONS = 6000
REPEATS = 3       # probe runs at each of the three points
NOMINAL_S = 0.07  # the probe's median time on the 2-vCPU x86-64 machine of README.md; sets the scale only


def _work() -> float:
    s = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
    a = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]])
    lo, hi = -np.ones(2), np.ones(2)
    y = np.array([3.0, -1.0, 2.0])
    u = np.zeros(2)
    total = 0.0
    for i in range(ITERATIONS):
        u_next = np.clip(u - 0.05 * (s.T @ (s @ u - y)), lo, hi)
        total += float(np.linalg.norm(u_next - u))
        u = u_next if i % 50 else np.zeros(2)
        if i % 100 == 0:
            total += float(np.linalg.norm(a, 2))
            a = a @ a + 0.1 * np.eye(3)
            a /= np.linalg.norm(a)
    return total


def probe_s() -> float:
    """Wall time of one run of the fixed work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probes() -> list[float]:
    return [probe_s() for _ in range(REPEATS)]


def at_nominal_speed(wall_s: float, probe_times) -> float:
    """``wall_s`` scaled to the machine speed at which the probe takes NOMINAL_S."""
    return wall_s * NOMINAL_S * len(probe_times) / sum(probe_times)

import os

import numpy as np
import pytest

from olcontrol import BoxSet, LtiSystem, default_system_matrices


@pytest.fixture(scope="session")
def ring_matrices():
    return default_system_matrices()


@pytest.fixture(scope="session")
def ring_system(ring_matrices):
    a, b = ring_matrices
    return LtiSystem(a, b)


@pytest.fixture(scope="session")
def ring_u_box():
    return BoxSet.symmetric(5.0, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def scalar_system():
    """a = 0.5, b = 1: steady state of input u is 2u."""
    return LtiSystem([[0.5]], [[1.0]])


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    run_seeds forks, and must reap its child on every path."""
    yield
    if os.name != "posix":
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid else "the test left a child process running")

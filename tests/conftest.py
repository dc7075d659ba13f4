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


def _open_fds():
    """Entries of /proc/self/fd still open once the listing is done: the
    listing's own descriptor is closed by then."""
    def is_open(fd):
        try:
            os.fstat(int(fd))
        except OSError:
            return False
        return True

    return {fd for fd in os.listdir("/proc/self/fd") if is_open(fd)}


@pytest.fixture(autouse=True)
def no_fd_leaked():
    """Fail a test that leaves a file descriptor open: the CSV writers and
    load_config open files, and must close them on every path."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_fds()
    yield
    leaked = sorted(_open_fds() - before, key=int)
    if leaked:
        pytest.fail(f"the test left file descriptor(s) {', '.join(leaked)} open")

import os

import pytest

from semsim import (
    Seed,
    SimulationConfig,
    builtin_hurst,
    make_grid,
    monte_carlo,
)


@pytest.fixture(scope="session")
def brownian_ensemble():
    """10^4 paths of the constant-1/2 process on [0, 1], shared by the
    Gaussian-oracle tests (the terminal value is exactly B(1))."""
    config = SimulationConfig(
        grid=make_grid(1.0, 32),
        hurst=builtin_hurst("constant", [0.5]),
        seed=Seed(90210),
        n_paths=10_000,
    )
    return monte_carlo(config)


@pytest.fixture
def forks(monkeypatch):
    """The process ids that ``os.fork`` returns to this process during the test, in order."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids

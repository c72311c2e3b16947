import numpy as np
import pytest

import entroflow as ef
from entroflow import functionals


def record_states(mp):
    """A list that receives a copy of the flow state at every trace row of
    the runs that follow, through the monkeypatch ``mp``: each run evaluates
    its row by calling its ``functionals._Snapshot``."""
    states = []
    call = functionals._Snapshot.__call__

    def recording(self, v):
        states.append(v.copy())
        return call(self, v)

    mp.setattr(functionals._Snapshot, "__call__", recording)
    return states


@pytest.fixture()
def states(monkeypatch):
    """The flow state at every trace row of the runs the test makes."""
    return record_states(monkeypatch)


def _recorded_run(run, cfg, grid):
    """(trace, its flow state at every row) of one run."""
    with pytest.MonkeyPatch.context() as mp:
        states = record_states(mp)
        return run(cfg, grid), states


@pytest.fixture(scope="session")
def gauss_pot():
    return ef.harmonic()


@pytest.fixture(scope="session")
def gauss_grid(gauss_pot):
    """Reference grid used throughout: [-8, 8], 2001 nodes, Gaussian weight."""
    return ef.make_interval_grid(-8.0, 8.0, 2001, gauss_pot)


@pytest.fixture(scope="session")
def gauss_grid_small(gauss_pot):
    return ef.make_interval_grid(-8.0, 8.0, 501, gauss_pot)


@pytest.fixture(scope="session")
def flat_grid():
    return ef.make_interval_grid(0.0, 1.0, 101, ef.flat())


@pytest.fixture(scope="session")
def linear_recorded_p15(gauss_grid):
    """Gaussian linear run at p = 1.5 (reused widely) and its state at every row."""
    cfg = ef.FlowConfig(
        kind="linear", p=1.5, init="odd:0.2", t_end=4.0, dt=1e-3, stride=20,
    )
    return _recorded_run(ef.run_linear, cfg, gauss_grid)


@pytest.fixture(scope="session")
def linear_run_p15(linear_recorded_p15):
    return linear_recorded_p15[0]


@pytest.fixture(scope="session")
def pme_recorded(gauss_grid):
    """Porous-media run at (m, p, theta) = (1.2, 1.5, 0.5) on the Gaussian
    weight and its state at every row."""
    cfg = ef.FlowConfig(
        kind="pme", p=1.5, m=1.2, theta=0.5, init="bump:0.4", t_end=2.0,
        dt=1e-3, stride=10,
    )
    return _recorded_run(ef.run_pme, cfg, gauss_grid)


@pytest.fixture(scope="session")
def pme_run(pme_recorded):
    return pme_recorded[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(42)

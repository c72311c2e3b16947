import numpy as np
import pytest

import entroflow as ef


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
def linear_run_p15(gauss_grid):
    """Gaussian linear run at p = 1.5 with stored audit fields (reused widely)."""
    cfg = ef.FlowConfig(
        kind="linear", p=1.5, init="odd:0.2", t_end=4.0, dt=1e-3,
        stride=20, audit_stride=10,
    )
    return ef.run_linear(cfg, gauss_grid)


@pytest.fixture(scope="session")
def pme_run(gauss_grid):
    """Porous-media run at (m, p, theta) = (1.2, 1.5, 0.5) on the Gaussian weight."""
    cfg = ef.FlowConfig(
        kind="pme", p=1.5, m=1.2, theta=0.5, init="bump:0.4", t_end=2.0,
        dt=1e-3, stride=10, audit_stride=10,
    )
    return ef.run_pme(cfg, gauss_grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)

import pytest

from cutfsi import Discretization, SimulationConfig


@pytest.fixture(scope="session")
def disc8():
    """Default discretization at n=8 (m_s=1), shared across tests."""
    return Discretization(SimulationConfig(n=8))


@pytest.fixture(scope="session")
def disc8_q2():
    """n=8 with quadratic solid elements."""
    return Discretization(SimulationConfig(n=8, m_s=2))


@pytest.fixture(scope="session")
def disc16():
    return Discretization(SimulationConfig(n=16))


@pytest.fixture(scope="session")
def march():
    """Every state of a stepper's run from zero data to T, for tests that
    set up the stepper themselves (lid-free configurations, ``dir_idx``)."""
    def run(stepper):
        states = [stepper.initialize()]
        for _ in range(stepper.cfg.n_steps):
            states.append(stepper.step(states[-1]))
        return states
    return run

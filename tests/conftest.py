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


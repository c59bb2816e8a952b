import pytest
import scipy.sparse as sp

from cutfsi import Discretization, SimulationConfig, linalg


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


class RecordingLU:
    """A SuperLU factor that records the ``trans`` of each of its solves."""

    def __init__(self, lu):
        self.lu, self.nnz, self.trans = lu, lu.nnz, []

    def solve(self, b, trans="N"):
        self.trans.append(trans)
        return self.lu.solve(b, trans=trans)


@pytest.fixture(scope="session")
def recording_lu():
    return RecordingLU


@pytest.fixture(scope="session")
def perturbed_factor():
    """(A, delta) -> the Factorization of A, with its ||A||_inf, whose
    factor is a RecordingLU of SuperLU's factor of the nearby matrix
    A + delta diag(A), in ``linalg``'s mode; no probe judges it."""
    import scipy.sparse.linalg as spla

    def make(A, delta):
        lu = spla.splu(sp.csc_matrix(A + delta * sp.diags(A.diagonal())),
                       permc_spec="NATURAL", diag_pivot_thresh=linalg.SYMMETRIC_PIVOT_THRESH,
                       options={"SymmetricMode": True})
        return linalg.Factorization(RecordingLU(lu), A, spla.norm(A, float("inf")))
    return make

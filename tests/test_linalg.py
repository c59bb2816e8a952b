"""Direct sparse solver wrapper."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi import Discretization, SimulationConfig, TimeStepper, linalg


def test_solve_matches_dense():
    rng = np.random.default_rng(0)
    n = 40
    A = sp.random(n, n, density=0.2, random_state=rng) + sp.eye(n) * 5.0
    A = sp.csc_matrix(A)
    fact = linalg.factorize(A)
    b = rng.standard_normal(n)
    x = fact.solve(b)
    assert np.allclose(A @ x, b, atol=1e-10)
    assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-8)


def test_singular_matrix_raises():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.factorize(A)


def test_solve_dimension_check():
    A = sp.csc_matrix(np.eye(3))
    fact = linalg.factorize(A)
    with pytest.raises(ValueError):
        fact.solve(np.ones(4))


def test_symmetric_mode_step_matrix():
    """The n = 8, k = 1, m_s = 2 step matrix (on which a minimum-degree
    order with a zero pivot threshold leaves a probe residual of 0.98)
    factors in symmetric mode to round-off."""
    stepper = TimeStepper(Discretization(SimulationConfig(n=8, m_s=2, k=1.0)))
    fact = stepper.fact
    assert fact.symmetric and fact.lu_nnz > 0
    b = np.random.default_rng(1).standard_normal(fact.n)
    x = fact.solve(b)
    assert np.linalg.norm(stepper.R @ x - b) / np.linalg.norm(b) <= 1e-12


def test_pivot_threshold_keeps_symmetric_mode():
    """In ascending free-dof order the n = 8, k = 1, m_s = 2 step matrix
    needs SYMMETRIC_PIVOT_THRESH: a pivot must leave the diagonal, and with
    a zero threshold the probe residual is 1.5 and the factor falls back
    to COLAMD."""
    stepper = TimeStepper(Discretization(SimulationConfig(n=8, m_s=2, k=1.0)))
    o = np.argsort(stepper.free)
    fact = linalg.factorize(stepper.R[o][:, o])
    assert fact.symmetric


def test_fallback_to_colamd(monkeypatch, caplog):
    """A symmetric-mode factor that fails its probe (here the factor of
    A + 0.01 I) is replaced by a COLAMD factor, with a logged warning."""
    real = linalg.spla.splu
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        if kwargs.get("options", {}).get("SymmetricMode"):
            return real(sp.csc_matrix(A + 0.01 * sp.eye(A.shape[0])), **kwargs)
        return real(A, **kwargs)
    monkeypatch.setattr(linalg.spla, "splu", splu)

    rng = np.random.default_rng(2)
    n = 40
    B = sp.random(n, n, density=0.2, random_state=rng)
    A = sp.csc_matrix(B + B.T + sp.eye(n) * 5.0)
    with caplog.at_level(logging.WARNING, logger="cutfsi.linalg"):
        fact = linalg.factorize(A)
    assert not fact.symmetric
    assert [c.get("permc_spec", "COLAMD") for c in calls] == ["NATURAL", "COLAMD"]
    assert any(r.name == "cutfsi.linalg" and r.levelno == logging.WARNING
               for r in caplog.records)
    b = rng.standard_normal(n)
    assert np.linalg.norm(A @ fact.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.factorize(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]])))


def test_fallback_probe_failure_raises(monkeypatch):
    """A fallback factor that fails its probe too is reported singular."""
    real = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda A, **kw: real(
        sp.csc_matrix(A + 0.01 * sp.eye(A.shape[0])), **kw))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.factorize(sp.csc_matrix(np.diag([1.0, 2.0, 3.0])))


def test_factor_reads_the_csr_arrays(monkeypatch):
    """SuperLU gets the arrays of a CSR input themselves, as the CSC
    matrix A^T, and the solves still solve A x = b for a nonsymmetric A."""
    real = linalg.spla.splu
    seen = []

    def splu(At, **kwargs):
        seen.append(At)
        return real(At, **kwargs)
    monkeypatch.setattr(linalg.spla, "splu", splu)
    rng = np.random.default_rng(4)
    n = 30
    A = sp.csr_matrix(sp.random(n, n, density=0.2, random_state=rng) + 5.0 * sp.eye(n))
    fact = linalg.factorize(A)
    At, = seen
    assert At.format == "csc" and abs(At.T - A).max() == 0.0
    for part in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(At, part), getattr(A, part)), part
    b = rng.standard_normal(n)
    assert np.linalg.norm(A @ fact.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_of_a_csr_with_duplicates_and_unsorted_columns():
    """Such a CSR input is put in canonical form in place before SuperLU
    reads its arrays: it is still the same matrix, and the solves are
    right."""
    A = sp.csr_matrix((np.array([1.0, 4.0, 1.0, 2.0, 3.0, 0.5]),
                       np.array([1, 0, 0, 1, 2, 2], dtype=np.int32),
                       np.array([0, 3, 4, 6], dtype=np.int32)), shape=(3, 3))
    dense = A.toarray()
    fact = linalg.factorize(A)
    assert A.has_canonical_format and np.array_equal(A.toarray(), dense)
    b = np.array([1.0, 2.0, 3.0])
    assert np.linalg.norm(dense @ fact.solve(b) - b) <= 1e-14 * np.linalg.norm(b)

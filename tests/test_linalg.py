"""Direct sparse solver wrapper."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutfsi import Discretization, SimulationConfig, TimeStepper, linalg
from cutfsi.cli import main


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
    """A rank-deficient matrix, and one with an empty row in the middle or
    at the end, are reported singular."""
    for rows in ([[1.0, 2.0], [2.0, 4.0]],
                 [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 3.0]],
                 [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.factorize(sp.csr_matrix(np.array(rows)))


def test_solve_dimension_check():
    A = sp.csc_matrix(np.eye(3))
    fact = linalg.factorize(A)
    with pytest.raises(ValueError):
        fact.solve(np.ones(4))


def test_symmetric_mode_step_matrix():
    """The n = 8, k = 1, m_s = 2 step matrix factors to round-off."""
    stepper = TimeStepper(Discretization(SimulationConfig(n=8, m_s=2, k=1.0)))
    fact = stepper.fact
    assert fact.lu_nnz > 0
    b = np.random.default_rng(1).standard_normal(fact.n)
    x = fact.solve(b)
    assert np.linalg.norm(stepper.R @ x - b) / np.linalg.norm(b) <= 1e-12


def test_pivot_threshold_keeps_symmetric_mode(monkeypatch):
    """In ascending free-dof order the n = 8, k = 1, m_s = 2 step matrix
    needs SYMMETRIC_PIVOT_THRESH: a pivot must leave the diagonal.  With a
    zero threshold the factor is bad (probe backward error 1.2e-3), and the
    probe refuses it."""
    stepper = TimeStepper(Discretization(SimulationConfig(n=8, m_s=2, k=1.0)))
    o = np.argsort(stepper.free)
    A = stepper.R[o][:, o]
    linalg.factorize(A)
    monkeypatch.setattr(linalg, "SYMMETRIC_PIVOT_THRESH", 0.0)
    with pytest.raises(linalg.SingularMatrixError, match="probe backward error"):
        linalg.factorize(A)


def _perturbed_splu(monkeypatch):
    """Make every factor the factor of A + 0.01 I, one that fails its
    probe; returns the list of the calls made."""
    real = spla.splu
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        return real(sp.csc_matrix(A + 0.01 * sp.eye(A.shape[0])), **kwargs)
    monkeypatch.setattr(spla, "splu", splu)
    return calls


def test_probe_failure_raises_after_one_factorization(monkeypatch):
    """A factor that fails its probe is refused: one splu call, in symmetric
    mode, and no second factor."""
    calls = _perturbed_splu(monkeypatch)
    rng = np.random.default_rng(2)
    n = 40
    B = sp.random(n, n, density=0.2, random_state=rng)
    with pytest.raises(linalg.SingularMatrixError, match="probe backward error"):
        linalg.factorize(sp.csc_matrix(B + B.T + sp.eye(n) * 5.0))
    assert calls == [{"permc_spec": "NATURAL",
                      "diag_pivot_thresh": linalg.SYMMETRIC_PIVOT_THRESH,
                      "options": {"SymmetricMode": True}}]


def test_probe_failure_exits_3_with_one_line(monkeypatch, tmp_path, capsys):
    """``cutfsi run`` on a factor that fails its probe exits 3 and writes
    exactly one line to stderr."""
    _perturbed_splu(monkeypatch)
    rc = main(["run", "--set", "n=8", "--set", "T=1", "--output-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: numerically singular factorization "
                          "(probe backward error ") and err.count("\n") == 1, err


def test_stiff_solid_factors_and_runs():
    """At mu_s = 1e3, lambda_s = 1e4 (n = 16, m_s = 2, k = 1) b = A·1 is
    1e-6 of ||A||_inf, so a residual relative to ||b|| read 1.5e-9 on a
    factor whose backward error is 3e-16.  The stepper builds, and its
    first 4 steps have finite states and refined solve residuals (4.7e-13
    to 9.1e-13; about 1e-12 is the floor here, so the bound is 1e-11)."""
    cfg = SimulationConfig(n=16, m_s=2, mu_s=1e3, lambda_s=1e4, k=1.0)
    stepper = TimeStepper(Discretization(cfg))
    states = list(stepper.run(stepper.initialize(), 4))
    assert len(states) == 4
    for state in states:
        assert np.isfinite(state.x).all()
        assert state.solve_residual <= 1e-11, (state.index, state.solve_residual)


def test_factor_reads_the_csr_arrays(monkeypatch):
    """SuperLU gets the arrays of a CSR input themselves, as the CSC
    matrix A^T, and the solves still solve A x = b for a nonsymmetric A."""
    real = spla.splu
    seen = []

    def splu(At, **kwargs):
        seen.append(At)
        return real(At, **kwargs)
    monkeypatch.setattr(spla, "splu", splu)
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


# Run in a fresh interpreter: this process has loaded the solver stack.
SOLVER_STACK_SCRIPT = """
import sys
from cutfsi import Discretization, SimulationConfig, TimeStepper, analysis, assembly
from cutfsi.mesh import verify_path_assumption

STACK = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")
disc = Discretization(SimulationConfig(n=8))
assembly.assemble_forms(disc)
for side, order in (("f", disc.cfg.m_f), ("s", disc.cfg.m_s)):
    analysis.domain_points(disc, side)
    for l in (0, 1):
        analysis.ghost_extension_ratios(disc, side, order, l, disc.cfg.w_max)
print(*(m in sys.modules for m in STACK))
TimeStepper(disc)
print("scipy.sparse.linalg" in sys.modules, "scipy.sparse.csgraph" in sys.modules)
verify_path_assumption(disc.topo, "f")
print("scipy.sparse.csgraph" in sys.modules)
"""


def test_solver_stack_loaded_only_to_factorize_or_search_paths():
    """Cut geometry, forms, domain points and ghost ratios load neither
    SuperLU, LAPACK nor csgraph; a TimeStepper loads SuperLU and the path
    search loads csgraph."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SOLVER_STACK_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["False False False", "True False", "True"]

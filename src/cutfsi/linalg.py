"""Sparse direct solve for the step system.

Thin layer over scipy's CSR storage and SuperLU.  The step matrix equals
its transpose bit for bit (the continuity form is tested with -xi), so it
is factored first in SuperLU's symmetric mode: in the natural order, with
diagonal pivoting (a small nonzero threshold lets SuperLU swap a pivot off
the diagonal where it must).  The caller passes A in a fill-reducing order; the stepper
orders it by nested dissection of the mesh lattice
(``discretization.nested_dissection``).  One probe solve against A·1
checks the factor; if its relative residual exceeds PROBE_TOL the matrix
is factored again with a COLAMD ordering and partial pivoting, and if that
probe fails too the matrix is reported singular.  SuperLU factors
column-compressed matrices, so it is handed the CSR arrays of A as the CSC
arrays of A^T, without a copy, and every solve takes the transpose back.
A factorization is computed once per mesh and reused for every time step.
SuperLU (``scipy.sparse.linalg``) is loaded on the first factorization, so
a process that never factorizes does not load it.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla

log = logging.getLogger(__name__)

# Relative residual the probe solve b = A·1 must reach.
PROBE_TOL = 1e-10
# Diagonal pivot threshold of the symmetric mode.  The pressure rows have
# zero diagonals off the ghost faces.  In the stepper's nested-dissection
# order each pressure dof comes after velocity dofs of its cells, whose
# elimination fills that diagonal, so 0 and 1e-6 give the same factor
# (n = 8 and 32, k = 1, m_s = 2).  In other orders a pivot may have to
# leave the diagonal: under a minimum-degree order of A^T + A a zero
# threshold leaves a probe residual of 0.98 at n = 8, and 1e-6 round-off.
SYMMETRIC_PIVOT_THRESH = 1e-6


class SingularMatrixError(RuntimeError):
    pass


class Factorization:
    """LU factorization reusable across right-hand sides.

    ``symmetric`` tells whether the symmetric-mode factor passed its probe
    (else it came from the COLAMD fallback).  ``lu_nnz`` is the number of
    entries SuperLU stores for L and U.  Supernodes are stored dense, so it
    is at least nnz(L) + nnz(U) (about 5% more at n = 32); counting those
    would copy both factors.
    """

    def __init__(self, lu: spla.SuperLU, n: int, symmetric: bool):
        self._lu = lu
        self.n = n
        self.symmetric = symmetric
        self.lu_nnz = int(lu.nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: matrix {self.n}, rhs {b.shape[0]}")
        return self._lu.solve(b, trans="T")


def _splu(At: sp.csc_matrix, **kwargs) -> spla.SuperLU:
    # imported here: the solver stack adds about 10 MB, needed only to factorize
    import scipy.sparse.linalg as spla
    try:
        return spla.splu(At, **kwargs)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc


def _probe_residual(A: sp.csr_matrix, lu: spla.SuperLU) -> float:
    """Relative residual of A x = A·1 solved by ``lu``, the factor of A^T
    (inf if it is not finite)."""
    b = A @ np.ones(A.shape[0])
    res = np.linalg.norm(A @ lu.solve(b, trans="T") - b) / max(np.linalg.norm(b), 1e-300)
    return float(res) if np.isfinite(res) else np.inf


def factorize(A: sp.spmatrix) -> Factorization:
    """Sparse LU of a square matrix; raises SingularMatrixError loudly.

    The symmetric-mode factor keeps A's order, so A should come in a
    fill-reducing order; the COLAMD fallback chooses its own.  A CSR
    matrix is not copied: its arrays are put in canonical form in place
    (sorted columns, no duplicates) and SuperLU reads them as A^T.
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    A.sum_duplicates()
    At = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    lu = _splu(At, permc_spec="NATURAL",
               diag_pivot_thresh=SYMMETRIC_PIVOT_THRESH,
               options={"SymmetricMode": True})
    res = _probe_residual(A, lu)
    if res <= PROBE_TOL:
        return Factorization(lu, A.shape[0], symmetric=True)
    log.warning("symmetric-mode LU probe residual %.2e > %.0e; "
                "refactoring with COLAMD and partial pivoting", res, PROBE_TOL)
    del lu
    lu = _splu(At)
    res = _probe_residual(A, lu)
    if res > PROBE_TOL:
        raise SingularMatrixError(
            f"numerically singular factorization (probe residual {res:.2e})")
    return Factorization(lu, A.shape[0], symmetric=False)

"""Sparse direct solve for the step system.

Thin layer over scipy's CSR storage and SuperLU.  The step matrix equals
its transpose bit for bit (the continuity form is tested with -xi), so it
is factored in SuperLU's symmetric mode: in the natural order, with
diagonal pivoting (a small nonzero threshold lets SuperLU swap a pivot off
the diagonal where it must).  The caller passes A in a fill-reducing
order; the stepper orders it by nested dissection of the mesh lattice
(``stepper.nested_dissection``), whose separators are the dofs on a mesh
line and those the matrix couples across it.  One test judges every solve:
its normwise backward error (``Factorization.backward_error``) must not
exceed PROBE_TOL.  One probe solve against A·1 checks the factor so: if it
fails, the matrix is reported singular.  The stepper checks each step's
solve the same way.  SuperLU factors column-compressed matrices,
so it is handed the CSR arrays of A as the CSC arrays of A^T, without a
copy, and every solve takes the transpose back.
A factorization is computed once per mesh and reused for every time step.
SuperLU (``scipy.sparse.linalg``) is loaded on the first factorization, so
a process that never factorizes does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla

# Normwise backward error ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)
# every solve must reach, the probe solve of b = A·1 and each step's solve
# (Higham, Accuracy and Stability of Numerical Algorithms, sec. 7.1).
# Unlike ||A x - b|| / ||b||, it does not grow when b is small beside A, as
# at mu_s = 1e3, lambda_s = 1e4, where constants nearly lie in the kernel
# of A: b = A·1 is 1e-6 of ||A||_inf.
PROBE_TOL = 1e-10
# Diagonal pivot threshold of the symmetric mode.  The pressure rows have
# zero diagonals off the ghost faces.  In the stepper's nested-dissection
# order each pressure dof comes after velocity dofs of its cells, whose
# elimination fills that diagonal, so 0 and 1e-6 give the same factor
# (n = 8 and 32, k = 1, m_s = 2).  In other orders a pivot may have to
# leave the diagonal: in ascending free-dof order a zero threshold leaves
# a probe backward error of 1.2e-3 at n = 8 (2.9e-2 under a minimum-degree
# order of A^T + A), and 1e-6 leaves 1.9e-12.
SYMMETRIC_PIVOT_THRESH = 1e-6


class SingularMatrixError(RuntimeError):
    pass


class Factorization:
    """LU factorization reusable across right-hand sides.

    ``lu_nnz`` is the number of entries SuperLU stores for L and U.
    Supernodes are stored dense, so it is at least nnz(L) + nnz(U) (about
    5% more at n = 32); counting those would copy both factors.
    """

    def __init__(self, lu: spla.SuperLU, n: int, norm_a: float):
        self._lu = lu
        self.n = n
        self.lu_nnz = int(lu.nnz)
        self._norm_a = float(norm_a)  # ||A||_inf of the factored matrix A

    def backward_error(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> float:
        """Normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf)
        of a solution x of A x = b with residual r = b - A x (either sign).
        A solve is accurate when it is at most PROBE_TOL; NaN if r is."""
        return np.abs(r).max() / max(self._norm_a * np.abs(x).max() + np.abs(b).max(), 1e-300)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: matrix {self.n}, rhs {b.shape[0]}")
        return self._lu.solve(b, trans="T")


def factorize(A: sp.spmatrix) -> Factorization:
    """Sparse LU of a square matrix; raises SingularMatrixError loudly.

    The factor keeps A's order, so A should come in a fill-reducing order.
    A CSR matrix is not copied: its arrays are put in canonical form in
    place (sorted columns, no duplicates) and SuperLU reads them as A^T.
    """
    # imported here: the solver stack adds about 10 MB, needed only to factorize
    import scipy.sparse.linalg as spla

    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    A.sum_duplicates()
    # ||A||_inf, the largest absolute row sum, taken before the factor exists
    # so that its temporary adds nothing to the peak.  reduceat reads an
    # empty row (A is then singular, and splu says so) as an entry of a later row
    starts = np.minimum(A.indptr[:-1], A.nnz - 1)
    norm_a = np.add.reduceat(np.abs(A.data), starts).max() if A.nnz else 0.0
    At = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    try:
        lu = spla.splu(At, permc_spec="NATURAL",
                       diag_pivot_thresh=SYMMETRIC_PIVOT_THRESH,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    fact = Factorization(lu, A.shape[0], norm_a)
    b = A @ np.ones(A.shape[0])
    x = lu.solve(b, trans="T")
    err = fact.backward_error(x, b, A @ x - b)
    if not err <= PROBE_TOL:  # a NaN fails too
        raise SingularMatrixError(
            f"numerically singular factorization (probe backward error {err:.2e})")
    return fact

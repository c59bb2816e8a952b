"""Sparse direct solve for the step system.

``factorize`` takes only a matrix that equals its transpose bit for bit,
as the step matrix does (the continuity form is tested with -xi), so its
CSR arrays are its CSC arrays: SuperLU reads them in place and factors A
as stored, in symmetric mode, in the caller's order (the stepper's
``nested_dissection``), with diagonal pivoting.  ``Factorization.solve``
holds the one accuracy test of every solve, a normwise backward error of
at most PROBE_TOL after at most one refinement against A; a probe solve
against A·1 reports a factor that fails it as singular.  SuperLU
(``scipy.sparse.linalg``) is loaded on the first factorization only.
"""

from __future__ import annotations

import math
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
# a probe backward error of 2.0e-3 at n = 8 and 4.0e-3 after a refinement
# (1.2e-1 and 5.6e-2 under a minimum-degree order of A^T + A); 1e-6, 2.2e-12.
SYMMETRIC_PIVOT_THRESH = 1e-6


class SingularMatrixError(RuntimeError):
    pass


class Factorization:
    """LU factorization of ``A``, reusable across right-hand sides.

    ``lu_nnz`` is the number of entries SuperLU stores for L and U.
    Supernodes are stored dense, so it is at least nnz(L) + nnz(U) (0.04 %
    more at n = 32); counting those would copy both factors.
    """

    def __init__(self, lu: spla.SuperLU, A: sp.csr_matrix, norm_a: float):
        self._lu = lu
        self.A = A
        self.lu_nnz = int(lu.nnz)
        self._norm_a = float(norm_a)  # ||A||_inf

    def backward_error(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> float:
        """Normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf)
        of x with residual r = b - A x (either sign); a solve is accurate if
        it is at most PROBE_TOL.  NaN if r is or if the denominator overflows,
        as for the probe's x, of norm 7.6e284, at mu_s = 1e300."""
        # Python floats: an overflow gives inf without a warning
        den = self._norm_a * float(np.abs(x).max()) + float(np.abs(b).max())
        return float(np.abs(r).max()) / max(den, 1e-300) if den < math.inf else math.nan

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, r): the solution of A x = b and its residual b - A x, refined
        once if its backward error is not at most PROBE_TOL (a NaN is not);
        SingularMatrixError if it still is not."""
        x = self._lu.solve(b)
        r = b - self.A @ x
        if not self.backward_error(x, b, r) <= PROBE_TOL:  # a NaN fails too
            x += self._lu.solve(r)
            r = b - self.A @ x
            err = self.backward_error(x, b, r)
            if not err <= PROBE_TOL:
                raise SingularMatrixError(f"backward error {err:.2e} exceeds "
                                          f"{PROBE_TOL:.0e} after one refinement")
        return x, r


def factorize(A: sp.spmatrix) -> Factorization:
    """Sparse LU of a matrix equal to its transpose (ValueError otherwise);
    raises SingularMatrixError loudly.

    The factor keeps A's order, so A should come in a fill-reducing order.
    A CSR matrix is not copied: its arrays are put in canonical form in
    place (sorted columns, no duplicates) and SuperLU reads them as is.
    """
    # imported here: the solver stack adds about 10 MB, needed only to factorize
    import scipy.sparse.linalg as spla

    A = sp.csr_matrix(A)
    A.sum_duplicates()
    if not np.isfinite(A.data).all():  # refused here, not as unequal to A^T (NaN != NaN)
        raise SingularMatrixError("matrix has non-finite entries")
    At = A.T.tocsr()
    if not all(np.array_equal(getattr(A, part), getattr(At, part))
               for part in ("indptr", "indices", "data")):
        raise ValueError("matrix must equal its transpose")
    del At
    # ||A||_inf, the largest absolute row sum, taken before the factor exists
    # so that its temporary adds nothing to the peak.  reduceat reads an
    # empty row (A is then singular, and splu says so) as an entry of a later
    # row.  A row sum that overflows (lambda_s = 1e308) gives inf, and every
    # backward error then reads NaN
    starts = np.minimum(A.indptr[:-1], A.nnz - 1)
    with np.errstate(over="ignore"):
        norm_a = np.add.reduceat(np.abs(A.data), starts).max() if A.nnz else 0.0
    try:
        lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                       permc_spec="NATURAL", diag_pivot_thresh=SYMMETRIC_PIVOT_THRESH,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    fact = Factorization(lu, A, norm_a)
    try:
        fact.solve(A @ np.ones(A.shape[0]))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"numerically singular factorization (probe {exc})") from exc
    return fact

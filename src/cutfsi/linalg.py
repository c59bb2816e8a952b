"""Sparse direct solve for the step system.

Thin layer over scipy's CSR storage and SuperLU (fill-reducing COLAMD
ordering, partial pivoting).  A factorization is computed once per mesh and
reused for every time step.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    pass


class Factorization:
    """LU factorization reusable across right-hand sides."""

    def __init__(self, lu: spla.SuperLU, n: int):
        self._lu = lu
        self.n = n

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: matrix {self.n}, rhs {b.shape[0]}")
        return self._lu.solve(b)


def factorize(A: sp.spmatrix) -> Factorization:
    """Sparse LU of a square matrix; raises SingularMatrixError loudly."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    # cheap singularity probe: tiny pivot ratio means numerically singular
    d = np.abs(lu.U.diagonal())
    if d.min() == 0.0 or (d.max() > 0 and d.min() / d.max() < 1e-16):
        raise SingularMatrixError(
            f"numerically singular factorization (pivot ratio {d.min() / d.max():.2e})")
    return Factorization(lu, A.shape[0])

"""Direct sparse solver wrapper."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi import linalg


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


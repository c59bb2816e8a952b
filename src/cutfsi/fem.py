"""Tensor product Lagrange bases, degree of freedom maps and constraints.

Bases are Q_r on the unit square with equispaced node lattices, evaluated
through the (here affine, diagonal) cell map, so derivatives of order d
scale by h^-d.  DofMaps live on a subtriangulation and number the distinct
lattice nodes of its cells; vector fields are stored component-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import CutTopology, Mesh


class ReferenceBasis:
    """Q_r Lagrange basis on [0,1]^2 with equispaced nodes, x fastest."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        # 1d basis polynomial coefficients: columns of inverse Vandermonde
        V = np.vander(np.linspace(0.0, 1.0, order + 1), increasing=True)
        self._coeffs = np.linalg.inv(V)  # (deg+1, nbasis1d): c[k, j] x^k

    @property
    def n_basis(self) -> int:
        return (self.order + 1) ** 2

    def _eval1d(self, x: np.ndarray, deriv: int) -> np.ndarray:
        """(npts, order+1) table of 1d basis values / derivatives."""
        c = self._coeffs.copy()
        for _ in range(deriv):
            c = c[1:] * np.arange(1, c.shape[0])[:, None]
        if c.shape[0] == 0:
            return np.zeros((len(x), self.order + 1))
        # 1, x, x*x, ... column by column (np.vander accumulates along rows)
        powers = np.empty((len(x), c.shape[0]))
        powers[:, 0] = 1.0
        for k in range(1, c.shape[0]):
            np.multiply(powers[:, k - 1], x, out=powers[:, k])
        return powers @ c

    def eval(self, pts: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Evaluate all basis functions: returns (npts, (r+1)^2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _tensor(self._eval1d(pts[:, 1], dy), self._eval1d(pts[:, 0], dx))

    def tables(self, pts: np.ndarray, h: float = 1.0):
        """(N, Gx, Gy) at points, the gradient divided by the cell size h;
        four 1d tables serve all three."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        (x0, x1), (y0, y1) = ((self._eval1d(pts[:, k], 0), self._eval1d(pts[:, k], 1) / h)
                              for k in (0, 1))
        return _tensor(y0, x0), _tensor(y0, x1), _tensor(y1, x0)


def _tensor(ty: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Basis (jy, jx) = ty[:, jy] * tx[:, jx], x fastest."""
    return np.einsum("ni,nj->nij", ty, tx).reshape(len(ty), -1)


@lru_cache(maxsize=8)
def reference_basis(order: int) -> ReferenceBasis:
    return ReferenceBasis(order)


@dataclass
class DofMap:
    """Scalar node numbering of one field space on its subtriangulation.

    ``cell_dofs[i]`` lists the global scalar dof ids of subtriangulation
    cell ``cells[i]`` in the basis ordering.  Vector fields use the layout
    global = comp * n_scalar + scalar (component-major).
    """

    role: str
    order: int
    ncomp: int
    side: str                   # "f" or "s"
    cells: np.ndarray           # cell ids of the subtriangulation
    cell_dofs: np.ndarray       # (len(cells), (order+1)^2)
    cell_index: np.ndarray      # (n_cells,) -> row in cells, -1 if absent
    n_scalar: int
    node_coords: np.ndarray     # (n_scalar, 2)
    dirichlet_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def build_dof_map(mesh: Mesh, topo: CutTopology, role: str, order: int,
                  ncomp: int, side: str, dirichlet_boundary: bool = False) -> DofMap:
    """Build the dof map of a Q_order space on subtriangulation T_side^h."""
    n = mesh.n
    m = order * n + 1  # lattice points per side
    cells = topo.tri_cells(side)
    ix = cells % n
    iy = cells // n
    offs = np.array([(dy * m + dx) for dy in range(order + 1)
                     for dx in range(order + 1)], dtype=int)
    base = (iy * order) * m + ix * order
    lattice = base[:, None] + offs[None, :]  # (ncells_sub, (order+1)^2)

    used = np.zeros(m * m, dtype=bool)
    used[lattice.ravel()] = True
    global_of = np.full(m * m, -1, dtype=int)
    global_of[used] = np.arange(used.sum())
    cell_dofs = global_of[lattice]

    cell_index = np.full(mesh.n_cells, -1, dtype=int)
    cell_index[cells] = np.arange(len(cells))

    lx = np.arange(m) * (mesh.h / order) - 1.0
    gx, gy = np.meshgrid(lx, lx, indexing="xy")
    node_coords = np.column_stack([gx.ravel(), gy.ravel()])[used]

    dirichlet = np.zeros(0, dtype=int)
    if dirichlet_boundary:
        idx = np.flatnonzero(used)
        bx = idx % m
        by = idx // m
        on_bd = (bx == 0) | (bx == m - 1) | (by == 0) | (by == m - 1)
        dirichlet = global_of[idx[on_bd]]

    return DofMap(role=role, order=order, ncomp=ncomp, side=side,
                  cells=cells, cell_dofs=cell_dofs, cell_index=cell_index,
                  n_scalar=int(used.sum()), node_coords=node_coords,
                  dirichlet_nodes=dirichlet)

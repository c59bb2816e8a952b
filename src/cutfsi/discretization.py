"""Bundles mesh, cut topology, dof maps and quadrature for one mesh level.

The monolithic unknown is laid out block-wise as
(v_f_x, v_f_y | p | v_s_x, v_s_y | u_x, u_y), each field component-major
over its scalar dof map.  v_s and u share the same scalar space.  The
step system solves for the first three blocks; u follows from v_s.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .config import SimulationConfig
from .fem import DofMap, build_dof_map, reference_basis
from .geometry import CircleLevelSet
from .mesh import Mesh, build_cut_topology, build_mesh
from .quadrature import (KAPPA_EMPTY, cut_cell_rule, interface_rule,
                         moment_fitted_rule, reference_cell_rule, solid_moments)


class BlockLayout:
    """Global offsets of the unknown blocks, laid out in the order of ``sizes``."""

    def __init__(self, sizes: dict[str, int]):
        self.sizes = sizes
        self._offsets = dict(zip(sizes, accumulate(sizes.values(), initial=0)))
        self.total = sum(sizes.values())
        self.n_system = self._offsets["u"]  # unknowns (v_f, p, v_s) of the step system

    def offset(self, block: str) -> int:
        return self._offsets[block]

    def slice(self, block: str) -> slice:
        off = self._offsets[block]
        return slice(off, off + self.sizes[block])


class Discretization:
    """All mesh-level data needed to assemble and evaluate on one level."""

    def __init__(self, cfg: SimulationConfig):
        self.cfg = cfg
        self.mesh: Mesh = build_mesh(cfg.n)
        self.level_set = CircleLevelSet(cfg.radius_squared)
        self.topo = build_cut_topology(self.mesh, self.level_set)

        self.vf: DofMap = build_dof_map(self.mesh, self.topo, "v_f", 2, 2, "f",
                                        dirichlet_boundary=True)
        self.p: DofMap = build_dof_map(self.mesh, self.topo, "p", 1, 1, "f")
        self.s: DofMap = build_dof_map(self.mesh, self.topo, "s", cfg.m_s, 2, "s")
        self.layout = BlockLayout({b: self.dofmap(b).ncomp * self.dofmap(b).n_scalar
                                   for b in ("vf", "p", "vs", "u")})

        # the quadrature builders' default sizes: 3 x 3 Gauss points per
        # uncut cell, 8 rays of 8 points per cut-cell panel, 12 points per
        # arc; the cut parts of each side and the arcs are one CutParts each
        self._table_cache: dict[int, tuple] = {}
        # the block pairs' patterns, keyed (row, col), and the ghost-extension
        # bands, keyed (side, order, w_max, gamma_on): assembly.pattern and
        # analysis.ghost_band fill them
        self.patterns: dict[tuple, object] = {}
        self.ghost_bands: dict[tuple, object] = {}
        self.ref_pts, self.ref_w = reference_cell_rule()
        cut = self.topo.cut_cells
        # the polar rules of the cut parts serve domain_points only
        self.cut_parts = {side: cut_cell_rule(self.mesh, self.topo, cut, side)
                          for side in ("f", "s")}
        self.iface_rules = interface_rule(self.mesh, self.topo, cut)
        # the forms integrate the cut part of a side on (2r + 1)^2 nodes per
        # cell: products of Q_r values and gradients have degree <= 2r per
        # variable, r the side's highest space order.  The node weights are
        # fitted to Gauss-Green moments on the arcs; a fluid part's moments
        # are its cell's less the solid part's.  cut_nodes[side] is (cells,
        # nodes, weights) over the cut cells whose part is not empty.
        solid = solid_moments(self.mesh, self.topo, self.iface_rules,
                              2 * max(cfg.m_f, cfg.m_s) + 1)
        fluid = -solid
        fluid[:, 0, 0] += self.h ** 2
        self.cut_nodes = {}
        for side, r, moments in (("f", cfg.m_f, fluid), ("s", cfg.m_s, solid)):
            keep = self.topo.kappa(side)[cut] >= KAPPA_EMPTY
            self.cut_nodes[side] = (cut[keep], *moment_fitted_rule(
                moments[keep, :2 * r + 1, :2 * r + 1]))

    @property
    def h(self) -> float:
        return self.mesh.h

    # -- quadrature helpers -------------------------------------------------

    def full_cell_tables(self, order: int):
        """(N, Gx, Gy) tables at the shared full-cell rule, physical scaling."""
        if order not in self._table_cache:
            self._table_cache[order] = reference_basis(order).tables(self.ref_pts, self.h)
        return self._table_cache[order]

    @property
    def full_cell_weights(self) -> np.ndarray:
        return self.ref_w * self.h ** 2

    def tabulate(self, order: int, cells, pts: np.ndarray):
        """(N, Gx, Gy) of the Q_order basis of cells at physical points.

        ``pts`` has shape (..., 2) and ``cells`` a shape that broadcasts
        against pts.shape[:-1]; each table has shape pts.shape[:-1] + (nb,).
        One basis evaluation covers all points.
        """
        basis = reference_basis(order)
        pts = np.asarray(pts, dtype=float)
        ref = ((pts - self.mesh.cell_origin(cells)) / self.h).reshape(-1, 2)
        shape = pts.shape[:-1] + (basis.n_basis,)
        return tuple(t.reshape(shape) for t in basis.tables(ref, self.h))

    # -- dof helpers --------------------------------------------------------

    def dofmap(self, block: str) -> DofMap:
        return {"vf": self.vf, "p": self.p, "vs": self.s, "u": self.s}[block]


def nested_dissection(disc: Discretization, dofs: np.ndarray) -> np.ndarray:
    """``dofs`` (system ids of the step system) in nested-dissection order.

    The mesh lattice is bisected at the middle mesh line of the longer side
    of each box, down to one-cell boxes, and each box is ordered as: low
    half, high half, separator.  The separator is the dofs on the line plus,
    for each ghost face on the line, the dofs of its low-side cell in the
    blocks that the face couples (v_f and p for a fluid face, v_s for a
    solid one), since only ghost faces couple dofs across a mesh line.
    (George, "Nested dissection of a regular finite element mesh", 1973.)
    """
    mesh, layout = disc.mesh, disc.layout
    # lattice coordinates in units of h/2, so mesh lines are even
    coord = np.empty((layout.n_system, 2), dtype=np.int64)
    for b in ("vf", "p", "vs"):
        dm = disc.dofmap(b)
        coord[layout.slice(b)] = np.tile(np.rint((dm.node_coords + 1.0) * (2.0 / mesh.h)),
                                         (dm.ncomp, 1))
    # reach[d, a]: the highest line along axis a that d couples across
    reach = coord.copy()
    for side, face_blocks in (("f", ("vf", "p")), ("s", ("vs",))):
        faces = disc.topo.ghost_faces(side)
        low = mesh.face_cells[faces, 0]
        axis = mesh.face_axis[faces]
        line = 2 * np.where(axis == 0, low % mesh.n, low // mesh.n) + 2
        for b in face_blocks:
            dm = disc.dofmap(b)
            comps = layout.offset(b) + dm.n_scalar * np.arange(dm.ncomp)
            ids = comps[:, None, None] + dm.cell_dofs[dm.cell_index[low]]
            np.maximum.at(reach, (ids, axis[:, None]), line[:, None])

    # one pass per level over the dofs not yet ordered: each box is split at
    # the middle mesh line of its longer side (x on ties) and every dof gets
    # a base-3 digit (0 low half, 1 high half, 2 separator) of its sort key
    c, r = coord[dofs], reach[dofs]
    key = np.zeros(len(dofs), dtype=np.int64)
    pos = np.arange(len(dofs))           # dofs still to place
    box = np.zeros(len(dofs), dtype=np.intp)
    lo = np.zeros((1, 2), dtype=np.int64)
    hi = np.full((1, 2), 2 * mesh.n, dtype=np.int64)
    while pos.size:
        boxes = np.arange(len(lo))
        width = hi - lo
        axis = (width[:, 1] > width[:, 0]).astype(np.intp)
        mid = lo[boxes, axis] + 2 * (width[boxes, axis] // 4)  # snapped to a mesh line
        a, m = axis[box], mid[box]
        ca, ra = c[pos, a], r[pos, a]
        high = ca > m
        sep = (ra >= m) & ~high
        key *= 3
        key[pos] += np.where(sep, 2, high)
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        hi[2 * boxes, axis] = mid
        lo[2 * boxes + 1, axis] = mid
        box = 2 * box + high
        keep = ~sep & ((hi - lo).max(axis=1) > 2)[box]  # one-cell boxes are leaves
        pos, box = pos[keep], box[keep]
    return dofs[np.argsort(key, kind="stable")]

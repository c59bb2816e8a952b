"""Bundles mesh, cut topology, dof maps and quadrature for one mesh level.

The monolithic unknown is laid out block-wise as
(v_f_x, v_f_y | p | v_s_x, v_s_y | u_x, u_y), each field component-major
over its scalar dof map.  v_s and u share the same scalar space.  The
step system solves for the first three blocks; u follows from v_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .fem import DofMap, build_dof_map, reference_basis
from .geometry import CircleLevelSet
from .mesh import Mesh, build_cut_topology, build_mesh
from .quadrature import (CutParts, QuadratureRule, cut_cell_rule, interface_rule,
                         reference_cell_rule)


@dataclass(frozen=True)
class BlockLayout:
    """Global offsets of the four unknown blocks (v_f, p, v_s, u)."""

    n_vf_scalar: int
    n_p: int
    n_s_scalar: int

    @property
    def off_vf(self) -> int:
        return 0

    @property
    def off_p(self) -> int:
        return 2 * self.n_vf_scalar

    @property
    def off_vs(self) -> int:
        return self.off_p + self.n_p

    @property
    def off_u(self) -> int:
        return self.off_vs + 2 * self.n_s_scalar

    @property
    def n_system(self) -> int:
        """Unknowns (v_f, p, v_s) of the step system."""
        return self.off_u

    @property
    def total(self) -> int:
        return self.off_u + 2 * self.n_s_scalar

    def offset(self, block: str) -> int:
        return {"vf": self.off_vf, "p": self.off_p,
                "vs": self.off_vs, "u": self.off_u}[block]

    def size(self, block: str) -> int:
        return {"vf": 2 * self.n_vf_scalar, "p": self.n_p,
                "vs": 2 * self.n_s_scalar, "u": 2 * self.n_s_scalar}[block]

    def slice(self, block: str) -> slice:
        off = self.offset(block)
        return slice(off, off + self.size(block))


class Discretization:
    """All mesh-level data needed to assemble and evaluate on one level."""

    def __init__(self, cfg: SimulationConfig, cut_npts: int = 8,
                 interface_npts: int = 12, bulk_npts: int = 3):
        cfg.validate()
        self.cfg = cfg
        self.mesh: Mesh = build_mesh(cfg.n)
        self.level_set = CircleLevelSet(cfg.radius_squared)
        self.topo = build_cut_topology(self.mesh, self.level_set)

        self.vf: DofMap = build_dof_map(self.mesh, self.topo, "v_f", 2, 2, "f",
                                        dirichlet_boundary=True)
        self.p: DofMap = build_dof_map(self.mesh, self.topo, "p", 1, 1, "f")
        self.s: DofMap = build_dof_map(self.mesh, self.topo, "s", cfg.m_s, 2, "s")
        self.layout = BlockLayout(n_vf_scalar=self.vf.n_scalar,
                                  n_p=self.p.n_scalar,
                                  n_s_scalar=self.s.n_scalar)

        self.bulk_npts = bulk_npts
        self._table_cache: dict[int, tuple] = {}
        self.ref_pts, self.ref_w = reference_cell_rule(bulk_npts)
        cut = self.topo.cut_cells
        self.cut_parts = {side: cut_cell_rule(self.mesh, self.topo, cut, side,
                                              npts=cut_npts)
                          for side in ("f", "s")}
        self.iface_rules: dict[int, QuadratureRule] = {
            int(cell): interface_rule(self.mesh, self.topo, int(cell),
                                      npts=interface_npts)
            for cell in cut}

    @property
    def h(self) -> float:
        return self.mesh.h

    # -- quadrature helpers -------------------------------------------------

    def cell_quadrature(self, side: str, domain: str = "physical"):
        """(full_cells, cut_parts) of one cell domain of side i.

        "physical": uncut cells plus the cut parts, covering Omega_i;
        "extended": every cell of T_i^h with the full rule (Omega_i^T);
        "uncut": the uncut cells only.
        ``cut_parts`` is a ``CutParts``, empty unless the domain is
        "physical".
        """
        if domain == "extended":
            return self.topo.tri_cells(side), CutParts.empty()
        if domain not in ("physical", "uncut"):
            raise ValueError(f"unknown cell domain {domain!r}")
        full = self.topo.uncut_cells(side)
        if domain == "uncut":
            return full, CutParts.empty()
        return full, self.cut_parts[side]

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

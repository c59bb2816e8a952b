"""Test-only oracle: the COO assembly the pattern pass replaced.

Every form goes through its own COO lists, summed on conversion to CSR;
block matrices are embedded into the (v_f, p, v_s) system through COO
(``place``); the step matrices are a chain of sparse sums, and the
Dirichlet elimination uses sparse products.  The local kernels are the
library's own, so a test that compares the library with this oracle checks
the patterns, the scatter and the sums, not the kernels.  The one exception
is ``div_q``, formed here directly, since the library stacks it as the
transpose of the pressure-gradient form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from cutfsi.assembly import (DROP_TOL, FACE_NPTS, SCALAR_KERNELS, Forms, _grad_p,
                             _mass, _solid_bulk, _viscous, face_jump_table, weight_w)
from cutfsi.fem import reference_basis
from cutfsi.quadrature import ARC_NPTS, gauss_1d


class Coo:
    """COO accumulator; duplicate entries sum on conversion."""

    def __init__(self, shape):
        self.shape = shape
        self.rows, self.cols, self.vals = [], [], []

    def add_many(self, rows, cols, local):
        """Scatter a shared (nr, nc) block or one block per cell (ncells, nr, nc)."""
        ncells, nr = rows.shape
        nc = cols.shape[1]
        self.rows.append(np.repeat(rows, nc, axis=1).ravel())
        self.cols.append(np.tile(cols, (1, nr)).ravel())
        self.vals.append(np.broadcast_to(local, (ncells, nr, nc)).ravel())

    def tocsr(self) -> sp.csr_matrix:
        """Sum the entries; round-off sums are not stored (``drop_roundoff``)."""
        if not self.rows:
            return sp.csr_matrix(self.shape)
        return drop_roundoff(sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=self.shape))


def div_q(tabs_p, tabs_v, w):
    """(div v, xi): rows scalar pressure, cols vector velocity."""
    P = tabs_p[0]
    _, Gx, Gy = tabs_v
    return np.concatenate([_mass(P, Gx, w), _mass(P, Gy, w)], axis=-1)


def drop_roundoff(m) -> sp.csr_matrix:
    """CSR copy of m without the entries of at most DROP_TOL times its
    largest |entry|, which the library does not store either."""
    m = sp.csr_matrix(m, copy=True)
    m.data[np.abs(m.data) <= DROP_TOL * np.abs(m.data).max(initial=0.0)] = 0.0
    m.eliminate_zeros()
    return m


def component_ids(ids, n_scalar: int, ncomp: int, offset: int = 0) -> np.ndarray:
    """offset + c * n_scalar + ids for each component c, component-major."""
    return np.concatenate([offset + c * n_scalar + ids for c in range(ncomp)], axis=-1)


def assemble_cells(disc, kernel, row, col=None, domain="physical") -> sp.csr_matrix:
    """Cell integral on blocks row x col: shared full-cell block, and the cut
    parts on the moment-fitted nodes of the library.

    ``domain`` of side i: "physical" is the uncut cells plus the cut parts
    (Omega_i), "extended" every cell of T_i^h (Omega_i^T) and "uncut" the
    uncut cells only.
    """
    rmap = disc.dofmap(row)
    cmap = disc.dofmap(col or row)
    topo = disc.topo
    full = topo.tri_cells(rmap.side) if domain == "extended" else topo.uncut_cells(rmap.side)
    local = kernel(disc.full_cell_tables(rmap.order),
                   disc.full_cell_tables(cmap.order), disc.full_cell_weights)
    ncr = local.shape[0] // rmap.cell_dofs.shape[1]
    ncc = local.shape[1] // cmap.cell_dofs.shape[1]

    def ids(dm, cells, ncomp):
        return component_ids(dm.cell_dofs[cells], dm.n_scalar, ncomp)

    acc = Coo((ncr * rmap.n_scalar, ncc * cmap.n_scalar))
    acc.add_many(ids(rmap, full, ncr), ids(cmap, full, ncc), local)
    if domain == "physical":
        cells, nodes, w = disc.cut_nodes[rmap.side]
        tr, tc = (reference_basis(dm.order).tables(nodes, disc.h) for dm in (rmap, cmap))
        acc.add_many(ids(rmap, cells, ncr), ids(cmap, cells, ncc), kernel(tr, tc, w))
    return acc.tocsr()


def place(disc, row, col, mat, ncomp=1) -> sp.csr_matrix:
    """Embed a block matrix into the (v_f, p, v_s) system, repeated on ncomp components."""
    lay = disc.layout
    coo = sp.coo_matrix(mat)
    rows = component_ids(coo.row, mat.shape[0], ncomp, lay.offset(row))
    cols = component_ids(coo.col, mat.shape[1], ncomp, lay.offset(col))
    n = lay.n_system
    return sp.csr_matrix((np.tile(coo.data, ncomp), (rows, cols)), shape=(n, n))


def raw_jump_matrices(disc, side, order, w_max=None):
    """R_l, l = 1..order: one reference jump matrix per axis, scattered by COO."""
    cfg, mesh = disc.cfg, disc.mesh
    if w_max is None:
        w_max = cfg.w_max
    dm = disc.s if side == "s" else (disc.vf if order == cfg.m_f else disc.p)
    kappa = disc.topo.kappa(side)
    faces = disc.topo.ghost_faces(side)
    cells = mesh.face_cells[faces]
    axes = mesh.face_axis[faces]
    w_face = weight_w(kappa[cells[:, 0]], w_max) + weight_w(kappa[cells[:, 1]], w_max)
    ids = np.concatenate([dm.cell_dofs[cells[:, 0]], dm.cell_dofs[cells[:, 1]]], axis=1)
    _, gw = gauss_1d(FACE_NPTS)
    wq = mesh.h * gw
    out = []
    for l in range(1, order + 1):
        acc = Coo((dm.n_scalar, dm.n_scalar))
        for axis in (0, 1):
            sel = axes == axis
            J = face_jump_table(order, l, axis) / mesh.h ** l
            acc.add_many(ids[sel], ids[sel], w_face[sel, None, None] * _mass(J, J, wq))
        out.append(acc.tocsr())
    return out


def ghost_matrix(disc, which, raw):
    """gamma sum_l coeff(l) R_l with the coefficient tables of the library."""
    cfg, h = disc.cfg, disc.h
    fact = math.factorial
    spec = {
        "v_f": (cfg.m_f, cfg.gamma_vf, lambda l: h ** (2 * l - 1) / fact(l - 1) ** 2),
        "p": (cfg.m_f - 1, cfg.gamma_p, lambda l: h ** (2 * l + 1) / fact(l) ** 2),
        "v_s": (cfg.m_s, cfg.gamma_vs, lambda l: h ** (2 * l + 1) / fact(l) ** 2),
        "u": (cfg.m_s, cfg.gamma_u, lambda l: h ** (2 * l - 1) / fact(l - 1) ** 2),
    }
    order, gamma, coeff = spec[which]
    total = None
    for l in range(1, order + 1):
        term = coeff(l) * raw[l - 1]
        total = term if total is None else total + term
    return drop_roundoff(gamma * total)


def assemble_nitsche(disc):
    """(penalty, consistency) on the arcs, scattered by COO."""
    cfg, lay = disc.cfg, disc.layout
    rnu = cfg.rho_f * cfg.nu_f
    pen = rnu * cfg.gamma_N / disc.h
    acc_pen = Coo((lay.n_system, lay.n_system))
    acc_cons = Coo((lay.n_system, lay.n_system))
    c = disc.level_set.center

    def ids(block, cells):
        dm = disc.dofmap(block)
        return component_ids(dm.cell_dofs[cells], dm.n_scalar, dm.ncomp, lay.offset(block))

    rule = disc.iface_rules
    cells = np.repeat(rule.cells, np.diff(rule.offsets) // ARC_NPTS)
    pts = rule.points.reshape(len(cells), ARC_NPTS, 2)
    w = rule.weights.reshape(len(cells), ARC_NPTS)
    nrm = -(pts - c) / np.linalg.norm(pts - c, axis=-1)[..., None]
    Nf, Gfx, Gfy = disc.tabulate(cfg.m_f, cells[:, None], pts)
    P = disc.tabulate(cfg.m_f - 1, cells[:, None], pts)[0]
    Ns = disc.tabulate(cfg.m_s, cells[:, None], pts)[0]
    n_comp = (nrm[..., 0, None], nrm[..., 1, None])
    G = (Gfx, Gfy)
    Gn = Gfx * n_comp[0] + Gfy * n_comp[1]
    ids_vf, ids_p = ids("vf", cells), ids("p", cells)
    test_tabs = {"vf": (Nf, +1.0, ids_vf), "vs": (Ns, -1.0, ids("vs", cells))}
    for Nt, st, rids in test_tabs.values():
        for Ntr, str_, cids in test_tabs.values():
            loc = pen * st * str_ * _mass(Nt, Ntr, w)
            for rc, cc in zip(np.split(rids, 2, axis=-1), np.split(cids, 2, axis=-1)):
                acc_pen.add_many(rc, cc, loc)
    for Nt, st, rids in test_tabs.values():
        blocks = [[-st * rnu * (_mass(Nt, G[a] * n_comp[b], w)
                                + (a == b) * _mass(Nt, Gn, w))
                   for b in range(2)] for a in range(2)]
        acc_cons.add_many(rids, ids_vf, np.block(blocks))
        acc_cons.add_many(rids, ids_p, np.concatenate(
            [st * _mass(Nt, P * n_comp[a], w) for a in range(2)], axis=-2))
    for Ntr, str_, cids in test_tabs.values():
        blocks = [[-str_ * rnu * (_mass(G[b] * n_comp[a], Ntr, w)
                                  + (a == b) * _mass(Gn, Ntr, w))
                   for b in range(2)] for a in range(2)]
        acc_cons.add_many(ids_vf, cids, np.block(blocks))
        acc_cons.add_many(ids_p, cids, np.concatenate(
            [-str_ * _mass(P * n_comp[b], Ntr, w) for b in range(2)], axis=-1))
    return acc_pen.tocsr(), acc_cons.tocsr()


@dataclass
class OracleForms(Forms):
    """The library's forms plus the four that it sums into R, M and K only."""

    mass_solid: sp.csr_matrix       # rho_s (v_s, phi_s)_Omega_s
    solid_bulk: sp.csr_matrix       # (sigma_s(u), grad psi) on the solid vector space
    fluid_bulk: sp.csr_matrix       # viscous + pressure couplings
    nitsche_cons: sp.csr_matrix


def assemble_forms(disc) -> OracleForms:
    cfg = disc.cfg
    mass_solid_scalar = assemble_cells(disc, SCALAR_KERNELS["value"], "vs")
    viscous = assemble_cells(disc, lambda tr, tc, w: _viscous(tr, w, cfg.rho_f * cfg.nu_f), "vf")
    fluid_bulk = (place(disc, "vf", "vf", viscous)
                  + place(disc, "vf", "p", assemble_cells(disc, _grad_p, "vf", "p"))
                  + place(disc, "p", "vf", assemble_cells(disc, div_q, "p", "vf")))
    pen, cons = assemble_nitsche(disc)
    raw_f2 = raw_jump_matrices(disc, "f", cfg.m_f)
    raw_f1 = raw_jump_matrices(disc, "f", cfg.m_f - 1)
    raw_s = raw_jump_matrices(disc, "s", cfg.m_s)
    return OracleForms(
        mass_fluid=place(disc, "vf", "vf", cfg.rho_f * assemble_cells(
            disc, SCALAR_KERNELS["value"], "vf"), 2),
        mass_solid=place(disc, "vs", "vs", cfg.rho_s * mass_solid_scalar, 2),
        mass_solid_scalar=mass_solid_scalar,
        fluid_bulk=fluid_bulk.tocsr(),
        solid_bulk=assemble_cells(
            disc, lambda tr, tc, w: _solid_bulk(tr, w, cfg.mu_s, cfg.lambda_s), "vs"),
        nitsche_pen=pen, nitsche_cons=cons,
        ghost_vf=ghost_matrix(disc, "v_f", raw_f2),
        ghost_p=ghost_matrix(disc, "p", raw_f1),
        ghost_vs=ghost_matrix(disc, "v_s", raw_s),
        ghost_u=ghost_matrix(disc, "u", raw_s))


def system_matrices(disc, forms):
    """(R, M, K, A) of the backward Euler step, R = M + k A + k^2 K, as a
    chain of sparse sums; M, K and A, the k-term of R, are each stored
    without their round-off.  R's pressure rows are negated (the continuity
    form tested with -xi), A's are not."""
    cfg = disc.cfg
    k = cfg.k
    M = drop_roundoff(forms.mass_fluid + forms.mass_solid
                      + cfg.rho_s * place(disc, "vs", "vs", forms.ghost_vs, 2))
    A_f = forms.fluid_bulk + forms.nitsche_pen + forms.nitsche_cons
    S_f = (2.0 * (cfg.rho_f * cfg.nu_f) * place(disc, "vf", "vf", forms.ghost_vf, 2)
           + place(disc, "p", "p", forms.ghost_p))
    K = drop_roundoff(place(disc, "vs", "vs", forms.solid_bulk)
                      + 2.0 * cfg.mu_s * place(disc, "vs", "vs", forms.ghost_u, 2))
    A = drop_roundoff(A_f + S_f)
    R = (M + k * A + k * (k * K)).tocsr()
    p = disc.layout.slice("p")
    R.data[R.indptr[p.start]:R.indptr[p.stop]] *= -1.0
    return R, M, K, A


def dirichlet_reduce(R, dir_idx):
    """(R_free,free, R_free,dir): the step matrix on the free dofs and the
    free-row, Dirichlet-column block that lifts the boundary values."""
    free = np.setdiff1d(np.arange(R.shape[0]), dir_idx)
    return R[free][:, free], R[free][:, dir_idx]

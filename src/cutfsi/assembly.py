"""Assembly of all bilinear forms of the monolithic time-step system.

Bulk integrals run over the physical subdomains via cut quadrature, ghost
penalties over full faces of the ghost face sets, Nitsche coupling over the
exact interface arcs.  The mesh is uniform and affine, so:

- uncut cells share one local matrix per form;
- every ghost face of one axis is a translate of one reference face, so
  per derivative order and axis one local jump matrix serves all faces,
  scaled by each face's cut-fraction weight;
- the O(n) cut cells and arcs are tabulated once per space at all their
  points, and their local matrices come from one batched product over
  (ncut, q, nb) tables.

The solved unknowns are (v_f, p, v_s).  Backward Euler on the first-order
elasticity gives u^n = u^{n-1} + k v_s^n, so the displacement is never an
unknown: its forms act on v_s with an extra factor k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import Discretization
from .fem import reference_basis
from .quadrature import gauss_1d


def weight_w(kappa, w_max: float):
    """Cut-fraction weight w(kappa) = 0.5 * w_max^(1 - 2 kappa)."""
    return 0.5 * np.power(w_max, 1.0 - 2.0 * np.asarray(kappa, dtype=float))


class _Coo:
    """COO accumulator; duplicate entries sum on conversion."""

    def __init__(self, shape):
        self.shape = shape
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add_many(self, rows, cols, local):
        """Scatter local blocks to many cells (or faces).

        rows, cols: (ncells, nr), (ncells, nc); local: one shared (nr, nc)
        block or one block per cell, (ncells, nr, nc).
        """
        ncells, nr = rows.shape
        nc = cols.shape[1]
        self.rows.append(np.repeat(rows, nc, axis=1).ravel())
        self.cols.append(np.tile(cols, (1, nr)).ravel())
        self.vals.append(np.broadcast_to(local, (ncells, nr, nc)).ravel())

    def tocsr(self) -> sp.csr_matrix:
        """Sum the entries; entries that sum to exactly zero are not stored."""
        if not self.rows:
            return sp.csr_matrix(self.shape)
        m = sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=self.shape).tocsr()
        m.eliminate_zeros()
        return m


def _component_ids(ids, n_scalar: int, ncomp: int, offset: int = 0) -> np.ndarray:
    """Where the components of scalar dofs sit: offset + c * n_scalar + ids.

    Components are stacked component-major along the last axis.  Every cell,
    arc and block placement of this module goes through here.
    """
    return np.concatenate([offset + c * n_scalar + ids for c in range(ncomp)],
                          axis=-1)


# -- local kernels -----------------------------------------------------------
# Tables N, Gx, Gy have shape (..., q, nb) and weights w shape (..., q); the
# leading axes, if any, run over cells, so one call gives the local matrices
# (..., nr, nc) of all cut cells at once.

def _mass(A, B, w):
    """A^T diag(w) B over the quadrature axis."""
    return np.swapaxes(A, -1, -2) @ (w[..., None] * B)


def _stiff(Gr, Gc, w):
    (Gxr, Gyr), (Gxc, Gyc) = Gr, Gc
    return _mass(Gxr, Gxc, w) + _mass(Gyr, Gyc, w)


def _blocks_to_local(blocks):
    """Assemble 2x2 component blocks into one component-major local matrix."""
    return np.block([[blocks[0][0], blocks[0][1]],
                     [blocks[1][0], blocks[1][1]]])


def _viscous(tabs, w, factor):
    """factor * int [delta_ab grad.grad + dN_a dN_b] (vector Laplace-eps)."""
    _, Gx, Gy = tabs
    G = (Gx, Gy)
    K = _stiff(G, G, w)
    blocks = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            m = _mass(G[b], G[a], w)
            if a == b:
                m = m + K
            blocks[a][b] = factor * m
    return _blocks_to_local(blocks)


def _eps_form(tabs, _tabs_col, w):
    """int eps(u):eps(v); equals half of the viscous kernel with factor 1."""
    return 0.5 * _viscous(tabs, w, 1.0)


def _div_div(tabs, _tabs_col, w):
    """int (div u)(div v): blocks[a][b] = G_a^T W G_b."""
    _, Gx, Gy = tabs
    G = (Gx, Gy)
    blocks = [[_mass(G[a], G[b], w) for b in range(2)] for a in range(2)]
    return _blocks_to_local(blocks)


def _solid_bulk(tabs, w, mu, lam):
    """int sigma_s(u) : grad(v) = 2 mu eps:eps + lam div div."""
    return _viscous(tabs, w, mu) + lam * _div_div(tabs, tabs, w)


def _grad_p(tabs_v, tabs_p, w):
    """-(p, div phi): rows vector velocity, cols scalar pressure."""
    _, Gx, Gy = tabs_v
    P = tabs_p[0]
    return np.concatenate([-_mass(Gx, P, w), -_mass(Gy, P, w)], axis=-2)


def _div_q(tabs_p, tabs_v, w):
    """(div v, xi): rows scalar pressure, cols vector velocity."""
    P = tabs_p[0]
    _, Gx, Gy = tabs_v
    return np.concatenate([_mass(P, Gx, w), _mass(P, Gy, w)], axis=-1)


# Scalar kernels by operator name: L2 of the value or of the gradient.
SCALAR_KERNELS = {
    "value": lambda tr, tc, w: _mass(tr[0], tc[0], w),
    "gradient": lambda tr, tc, w: _stiff(tr[1:], tc[1:], w),
}


# -- the cell assembler -----------------------------------------------------

def assemble_cells(disc: Discretization, kernel, row: str,
                   col: str | None = None,
                   domain: str = "physical") -> sp.csr_matrix:
    """Matrix of a cell integral on the dofs of blocks ``row`` x ``col``.

    ``kernel(tabs_row, tabs_col, w)`` maps (N, Gx, Gy) tables and weights
    at quadrature points to a local matrix, with leading cell axes carried
    through.  A local matrix with c times the cell's basis size along an
    axis acts on c components (component-major), so one kernel gives a
    scalar or a vector form.  Indices are local to the blocks (no
    offsets).  ``domain`` is one of the cell domains of
    ``Discretization.cell_quadrature``.  Uncut cells share one local
    matrix; the cut parts go through the kernel a batch of cells at a
    time, on padded (cells, q, nb) tables.
    """
    rmap = disc.dofmap(row)
    cmap = disc.dofmap(col or row)
    full, cut = disc.cell_quadrature(rmap.side, domain)
    local = kernel(disc.full_cell_tables(rmap.order),
                   disc.full_cell_tables(cmap.order), disc.full_cell_weights)
    ncr = local.shape[0] // rmap.cell_dofs.shape[1]
    ncc = local.shape[1] // cmap.cell_dofs.shape[1]

    def ids(dm, cells, ncomp):
        return _component_ids(dm.cell_dofs[dm.cell_index[cells]], dm.n_scalar, ncomp)

    acc = _Coo((ncr * rmap.n_scalar, ncc * cmap.n_scalar))
    acc.add_many(ids(rmap, full, ncr), ids(cmap, full, ncc), local)
    for cells, pts, w in cut.batches():
        tr = disc.tabulate(rmap.order, cells[:, None], pts)
        tc = (tr if cmap.order == rmap.order
              else disc.tabulate(cmap.order, cells[:, None], pts))
        acc.add_many(ids(rmap, cells, ncr), ids(cmap, cells, ncc), kernel(tr, tc, w))
    return acc.tocsr()


def _place(disc: Discretization, row: str, col: str, mat: sp.spmatrix,
           ncomp: int = 1) -> sp.csr_matrix:
    """Embed a block matrix into the (v_f, p, v_s) system.

    With ncomp > 1 a scalar-space matrix is repeated on every component.
    """
    lay = disc.layout
    coo = sp.coo_matrix(mat)
    rows = _component_ids(coo.row, mat.shape[0], ncomp, lay.offset(row))
    cols = _component_ids(coo.col, mat.shape[1], ncomp, lay.offset(col))
    n = lay.n_system
    return sp.csr_matrix((np.tile(coo.data, ncomp), (rows, cols)), shape=(n, n))


# -- ghost penalty raw jump matrices ----------------------------------------

def face_jump_table(order: int, l: int, axis: int, h: float,
                    face_npts: int = 4) -> np.ndarray:
    """(q, 2 nb) table of the jump of the l-th normal derivative on a face.

    The face has normal axis ``axis`` (0: vertical face, 1: horizontal
    face) and q = face_npts Gauss points along it.  Columns are the basis
    of the first cell (left or below) at reference x = 1, then minus the
    basis of the second cell at x = 0 (x and y swapped for horizontal
    faces), so the table times the two cells' stacked coefficients is the
    jump.  On a uniform mesh it is the same for every face of the axis.
    """
    basis = reference_basis(order)
    gx, _ = gauss_1d(face_npts)
    d = (l, 0) if axis == 0 else (0, l)
    tables = []
    for x in (1.0, 0.0):
        pts = np.column_stack([np.full_like(gx, x), gx])
        tables.append(basis.eval(pts if axis == 0 else pts[:, ::-1], *d) / h ** l)
    return np.hstack([tables[0], -tables[1]])


def raw_jump_matrices(disc: Discretization, side: str, order: int,
                      w_max: float | None = None,
                      face_npts: int = 4) -> list[sp.csr_matrix]:
    """Scalar matrices R_l, l = 1..order, of the weighted face-jump forms.

    R_l realizes  sum_F w_F^i int_F [d^l_n phi_i][d^l_n phi_j] ds  on the
    scalar dof map of the Q_order space of side i (no gamma, no h powers),
    with w_F = w(kappa_K1) + w(kappa_K2) over the two cells of F.  Every
    ghost face of one axis is a translate of one reference face, so per
    order and axis one local matrix J^T W J (``face_jump_table``) is
    scattered to all the axis's faces, scaled by their w_F.
    """
    cfg = disc.cfg
    if w_max is None:
        w_max = cfg.w_max
    mesh = disc.mesh
    dm = disc.s if side == "s" else (disc.vf if order == cfg.m_f else disc.p)
    assert dm.order == order
    kappa = disc.topo.kappa(side)
    faces = disc.topo.ghost_faces(side)
    cells = mesh.face_cells[faces]  # (nfaces, 2)
    axes = mesh.face_axis[faces]
    w_face = weight_w(kappa[cells[:, 0]], w_max) + weight_w(kappa[cells[:, 1]], w_max)
    ids = np.concatenate([dm.cell_dofs[dm.cell_index[cells[:, 0]]],
                          dm.cell_dofs[dm.cell_index[cells[:, 1]]]], axis=1)
    _, gw = gauss_1d(face_npts)
    wq = mesh.h * gw
    ns = dm.n_scalar
    out = []
    for l in range(1, order + 1):
        acc = _Coo((ns, ns))
        for axis in (0, 1):
            sel = axes == axis
            J = face_jump_table(order, l, axis, mesh.h, face_npts)
            acc.add_many(ids[sel], ids[sel], w_face[sel, None, None] * _mass(J, J, wq))
        out.append(acc.tocsr())
    return out


def ghost_matrix(disc: Discretization, which: str,
                 raw: list[sp.csr_matrix] | None = None) -> sp.csr_matrix:
    """Scalar ghost penalty matrix g_which with its gamma and h coefficients.

    which in {"v_f", "p", "v_s", "u"}.  Coefficient tables:
      g_vf: gamma_vf sum_{l=1..m_f}   h^(2l-1)/((l-1)!)^2
      g_p:  gamma_p  sum_{l=1..m_f-1} h^(2l+1)/(l!)^2
      g_vs: gamma_vs sum_{l=1..m_s}   h^(2l+1)/(l!)^2
      g_u:  gamma_u  sum_{l=1..m_s}   h^(2l-1)/((l-1)!)^2
    """
    cfg = disc.cfg
    h = disc.h
    fact = math.factorial
    spec = {
        "v_f": ("f", cfg.m_f, cfg.gamma_vf, lambda l: h ** (2 * l - 1) / fact(l - 1) ** 2),
        "p": ("f", cfg.m_f - 1, cfg.gamma_p, lambda l: h ** (2 * l + 1) / fact(l) ** 2),
        "v_s": ("s", cfg.m_s, cfg.gamma_vs, lambda l: h ** (2 * l + 1) / fact(l) ** 2),
        "u": ("s", cfg.m_s, cfg.gamma_u, lambda l: h ** (2 * l - 1) / fact(l - 1) ** 2),
    }
    side, order, gamma, coeff = spec[which]
    if raw is None:
        raw = raw_jump_matrices(disc, side, order)
    total = None
    for l in range(1, order + 1):
        term = coeff(l) * raw[l - 1]
        total = term if total is None else total + term
    return gamma * total.tocsr()


# -- Nitsche interface coupling ---------------------------------------------

def assemble_nitsche(disc: Discretization) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(penalty, consistency) interface matrices on the (v_f, p, v_s) system.

    Penalty:     h^-1 rho_f nu_f gamma_N (v_f - v_s, phi_f - phi_s)
    Consistency: -(sigma_f(v_f, p) n_f, phi_f - phi_s)
                 -(v_f - v_s, sigma_f(phi_f, -xi) n_f)

    The bases are tabulated once per space at every arc point and the local
    matrices of all cut cells are formed in one batch.  A cell with two arcs
    has twice the points; the other cells repeat their last point at weight
    zero up to that count.
    """
    cfg = disc.cfg
    lay = disc.layout
    rnu = cfg.rho_f * cfg.nu_f
    pen = rnu * cfg.gamma_N / disc.h
    acc_pen = _Coo((lay.n_system, lay.n_system))
    acc_cons = _Coo((lay.n_system, lay.n_system))
    if not disc.iface_rules:
        return acc_pen.tocsr(), acc_cons.tocsr()

    cells = np.array(list(disc.iface_rules), dtype=int)
    rules = list(disc.iface_rules.values())
    counts = np.array([len(rule.weights) for rule in rules])
    j = np.arange(counts.max())
    take = (np.cumsum(counts) - counts)[:, None] + np.minimum(j, counts[:, None] - 1)
    pts = np.concatenate([rule.points for rule in rules])[take]  # (ncut, q, 2)
    w = np.concatenate([rule.weights for rule in rules])[take]
    w[j >= counts[:, None]] = 0.0
    nrm = np.concatenate([rule.normals for rule in rules])[take]

    def ids(block):
        dm = disc.dofmap(block)
        return _component_ids(dm.cell_dofs[dm.cell_index[cells]], dm.n_scalar,
                              dm.ncomp, lay.offset(block))

    Nf, Gfx, Gfy = disc.tabulate(cfg.m_f, cells[:, None], pts)
    P = disc.tabulate(cfg.m_f - 1, cells[:, None], pts)[0]
    Ns = disc.tabulate(cfg.m_s, cells[:, None], pts)[0]
    n_comp = (nrm[..., 0, None], nrm[..., 1, None])  # (ncut, q, 1) each
    G = (Gfx, Gfy)
    Gn = Gfx * n_comp[0] + Gfy * n_comp[1]

    ids_vf, ids_p = ids("vf"), ids("p")
    test_tabs = {"vf": (Nf, +1.0, ids_vf), "vs": (Ns, -1.0, ids("vs"))}

    # penalty: s_t s_tr delta_ab int N_t N_tr, one scalar block per component
    for Nt, st, rids in test_tabs.values():
        for Ntr, str_, cids in test_tabs.values():
            loc = pen * st * str_ * _mass(Nt, Ntr, w)
            for rc, cc in zip(np.split(rids, 2, axis=-1), np.split(cids, 2, axis=-1)):
                acc_pen.add_many(rc, cc, loc)

    # -(sigma_f(v_f, p) n, phi_f - phi_s)
    for Nt, st, rids in test_tabs.values():
        blocks = [[None, None], [None, None]]
        for a in range(2):
            for b in range(2):
                m = _mass(Nt, G[a] * n_comp[b], w)
                if a == b:
                    m = m + _mass(Nt, Gn, w)
                blocks[a][b] = -st * rnu * m
        acc_cons.add_many(rids, ids_vf, _blocks_to_local(blocks))
        # pressure part: +s_t (p n_a, N_t)
        loc_p = np.concatenate([st * _mass(Nt, P * n_comp[a], w) for a in range(2)],
                               axis=-2)
        acc_cons.add_many(rids, ids_p, loc_p)

    # -(v_f - v_s, sigma_f(phi_f, -xi) n): rows phi_f and xi
    for Ntr, str_, cids in test_tabs.values():
        blocks = [[None, None], [None, None]]
        for a in range(2):
            for b in range(2):
                m = _mass(G[b] * n_comp[a], Ntr, w)
                if a == b:
                    m = m + _mass(Gn, Ntr, w)
                blocks[a][b] = -str_ * rnu * m
        acc_cons.add_many(ids_vf, cids, _blocks_to_local(blocks))
        loc_q = np.concatenate([-str_ * _mass(P * n_comp[b], Ntr, w) for b in range(2)],
                               axis=-1)
        acc_cons.add_many(ids_p, cids, loc_q)
    return acc_pen.tocsr(), acc_cons.tocsr()


# -- forms and the step system ----------------------------------------------

@dataclass
class Forms:
    """Assembled matrices of one discretization.

    Matrices without a note are square on the (v_f, p, v_s) system.
    """

    mass_fluid: sp.csr_matrix       # rho_f (v_f, phi_f)_Omega_f
    mass_solid: sp.csr_matrix       # rho_s (v_s, phi_s)_Omega_s
    mass_solid_scalar: sp.csr_matrix  # scalar (u, psi)_Omega_s on solid space
    fluid_bulk: sp.csr_matrix       # viscous + pressure couplings
    solid_bulk: sp.csr_matrix       # (sigma_s(u), grad psi) on the solid vector space
    nitsche_pen: sp.csr_matrix
    nitsche_cons: sp.csr_matrix
    ghost_vf: sp.csr_matrix         # scalar matrices on their own spaces
    ghost_p: sp.csr_matrix
    ghost_vs: sp.csr_matrix
    ghost_u: sp.csr_matrix


def assemble_forms(disc: Discretization) -> Forms:
    cfg = disc.cfg
    mass_solid_scalar = assemble_cells(disc, SCALAR_KERNELS["value"], "vs")
    mass_fluid = _place(disc, "vf", "vf",
                        cfg.rho_f * assemble_cells(disc, SCALAR_KERNELS["value"], "vf"), 2)
    mass_solid = _place(disc, "vs", "vs", cfg.rho_s * mass_solid_scalar, 2)

    viscous = assemble_cells(disc, lambda tr, tc, w: _viscous(tr, w, cfg.rho_f * cfg.nu_f), "vf")
    fluid_bulk = (_place(disc, "vf", "vf", viscous)
                  + _place(disc, "vf", "p", assemble_cells(disc, _grad_p, "vf", "p"))
                  + _place(disc, "p", "vf", assemble_cells(disc, _div_q, "p", "vf")))
    solid_bulk = assemble_cells(
        disc, lambda tr, tc, w: _solid_bulk(tr, w, cfg.mu_s, cfg.lambda_s), "vs")
    nitsche_pen, nitsche_cons = assemble_nitsche(disc)

    raw_f2 = raw_jump_matrices(disc, "f", cfg.m_f)
    raw_f1 = raw_jump_matrices(disc, "f", cfg.m_f - 1)
    raw_s = raw_jump_matrices(disc, "s", cfg.m_s)
    return Forms(mass_fluid=mass_fluid, mass_solid=mass_solid,
                 mass_solid_scalar=mass_solid_scalar,
                 fluid_bulk=fluid_bulk.tocsr(), solid_bulk=solid_bulk,
                 nitsche_pen=nitsche_pen, nitsche_cons=nitsche_cons,
                 ghost_vf=ghost_matrix(disc, "v_f", raw_f2),
                 ghost_p=ghost_matrix(disc, "p", raw_f1),
                 ghost_vs=ghost_matrix(disc, "v_s", raw_s),
                 ghost_u=ghost_matrix(disc, "u", raw_s))


def system_matrices(disc: Discretization, forms: Forms | None = None):
    """(R, M, K, forms): the backward Euler step on (v_f, p, v_s).

    Substituting u^n = u^{n-1} + k v_s^n into the monolithic step gives
    R x^n = M x^{n-1} - k K u^{n-1} with
      M = rho_f M_f + rho_s M_s + rho_s g_vs,
      K = a_s + 2 mu_s g_u, with u in the slot of v_s,
      R = M + k (a_f + Nitsche + 2 rho_f nu_f g_vf + g_p) + k^2 K,
    with the pressure (continuity) rows of R negated so that R is
    symmetric.  M and K have zero pressure rows, so the right-hand side
    needs no sign change.
    """
    if forms is None:
        forms = assemble_forms(disc)
    cfg = disc.cfg
    k = cfg.k
    M = (forms.mass_fluid + forms.mass_solid
         + cfg.rho_s * _place(disc, "vs", "vs", forms.ghost_vs, 2)).tocsr()
    A_f = forms.fluid_bulk + forms.nitsche_pen + forms.nitsche_cons
    S_f = (2.0 * cfg.rho_f * cfg.nu_f * _place(disc, "vf", "vf", forms.ghost_vf, 2)
           + _place(disc, "p", "p", forms.ghost_p))
    K = (_place(disc, "vs", "vs", forms.solid_bulk)
         + 2.0 * cfg.mu_s * _place(disc, "vs", "vs", forms.ghost_u, 2)).tocsr()
    R = (M + k * (A_f + S_f) + k * (k * K)).tocsr()
    p = disc.layout.slice("p")
    R.data[R.indptr[p.start]:R.indptr[p.stop]] *= -1.0
    return R, M, K, forms

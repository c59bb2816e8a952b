"""Assembly of the bilinear forms and the operators M, A and K in space.

Bulk integrals run over the physical subdomains via cut quadrature, ghost
penalties over full faces of the ghost face sets, Nitsche coupling over the
exact interface arcs.  ``assemble_forms(disc)`` assembles the seven fields
of ``Forms`` only: the masses, the Nitsche penalty and the ghost penalties.
``assemble_forms(disc, arrays)``, which ``operators`` calls, also
assembles the forms that only the operators A and K read (viscous,
pressure, Nitsche consistency, solid bulk).  The interface is fixed and the
mesh uniform, so one pass per mesh assembles the forms it is asked for:

- each block pair on or above the diagonal has one sorted CSR pattern,
  with a map from every local entry to its place, built on first use and
  held by the discretization (``pattern``), so the operators, the
  energies and the ghost-extension bands all read the same one;
- uncut cells share one local matrix; the ghost faces of one axis share one
  reference jump matrix per derivative order, scaled by each face's weight;
- the cut cells of a side share its moment-fitted nodes, tabulated once per
  space order, and carry their own weights, so one kernel call per form
  gives all their local matrices;
- the arcs, one ``CutParts`` of ``ARC_NPTS`` points per arc, give one
  jump table per space and one flux table per component;
- every form is symmetric once the continuity form is tested with -xi, so
  it is summed on and above the diagonal (``_Sums``) and stacked below it
  as the transpose (``_stack``): every matrix equals its transpose bit for bit;
- each form is summed (``np.bincount``) into one data array per block pair
  and component pair; the operators are weighted sums of those arrays
  (``_lin``), and ``_stack`` makes CSR matrices of data arrays; the
  stored matrices leave out their round-off entries.

The operators act on (v_f, p, v_s) and are free of the time step.  The
displacement u shares the space of v_s, so K, the form of u, sits on the
v_s block.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .discretization import Discretization
from .fem import reference_basis
from .linalg import SingularMatrixError
from .quadrature import ARC_NPTS, gauss_1d

SYSTEM_BLOCKS = ("vf", "p", "vs")
FACE_NPTS = 4  # Gauss points per ghost face
DROP_TOL = 1e-14  # entries up to this share of their scale are round-off


def weight_w(kappa, w_max: float):
    """Cut-fraction weight w(kappa) = 0.5 * w_max^(1 - 2 kappa)."""
    return 0.5 * np.power(w_max, 1.0 - 2.0 * np.asarray(kappa, dtype=float))


# -- local kernels -----------------------------------------------------------
# Tables N, Gx, Gy have shape (..., q, nb) and weights w shape (..., q); the
# leading axes, if any, run over cells, so one call gives the local matrices
# (..., nr, nc) of all cut cells at once.  np.block joins 2x2 component
# blocks into one component-major local matrix.

def _mass(A, B, w):
    """A^T diag(w) B over the quadrature axis."""
    return np.swapaxes(A, -1, -2) @ (w[..., None] * B)


def _gradient_products(tabs, w):
    """gg[a][b] = int d_a phi_i d_b phi_j, for a, b over x and y."""
    _, Gx, Gy = tabs
    G = (Gx, Gy)
    return [[_mass(G[a], G[b], w) for b in range(2)] for a in range(2)]


def _viscous(tabs, w, factor, gg=None):
    """factor * int [delta_ab grad.grad + dN_a dN_b] (vector Laplace-eps)."""
    gg = _gradient_products(tabs, w) if gg is None else gg
    K = gg[0][0] + gg[1][1]
    return np.block([[factor * (gg[b][a] + K if a == b else gg[b][a])
                              for b in range(2)] for a in range(2)])


def _solid_bulk(tabs, w, mu, lam):
    """int sigma_s(u) : grad(v) = 2 mu eps:eps + lam div div; the div-div
    blocks are G_a^T W G_b."""
    gg = _gradient_products(tabs, w)
    return _viscous(tabs, w, mu, gg) + lam * np.block(gg)


def _grad_p(tabs_v, tabs_p, w):
    """-(p, div phi): rows vector velocity, cols scalar pressure."""
    return np.concatenate([-_mass(G, tabs_p[0], w) for G in tabs_v[1:]], axis=-2)


def _symmetric(local):
    """(L + L^T) / 2 of local matrices, equal to its transpose bit for bit."""
    return 0.5 * (local + np.swapaxes(local, -1, -2))


# Scalar kernels by operator name: L2 of the value or of the gradient.
SCALAR_KERNELS = {
    "value": lambda tr, tc, w: _mass(tr[0], tc[0], w),
    "gradient": lambda tr, tc, w: _mass(tr[1], tc[1], w) + _mass(tr[2], tc[2], w),
}


# -- patterns and sums ---------------------------------------------------------

@lru_cache(maxsize=None)
def _lattice(order: int, axis: int | None = None) -> np.ndarray:
    """(2, nb) lattice offsets (x, y) of the Q_order basis of a cell, or, with
    ``axis``, of the two cells of a face of that normal axis, stacked.

    Cached; the returned array is shared and read-only.
    """
    j = np.arange((order + 1) ** 2)
    xy = np.stack([j % (order + 1), j // (order + 1)])
    if axis is not None:
        xy = np.hstack([xy, xy + order * np.eye(2, dtype=int)[:, [axis]]])
    xy.setflags(write=False)
    return xy


class Pattern:
    """Sorted CSR pattern of one scalar block pair, with its scatter maps.

    Blocks of one side couple on the side's cells and, a block with itself,
    across the side's ghost faces; blocks of the two sides couple on the
    cut cells.  Every row dof of a coupling cell, or of the two cells of a
    ghost face, couples to every column dof of it.  Dofs are numbered in
    lattice order, so a row's columns, in the order of their lattice offset
    (dy, dx) from the row, are sorted, and one dense (row, offset) table
    places every coupling without a sort.  ``cell_pos`` (cells, nr, nc) and
    ``face_pos[axis]`` (faces, 2 nr, 2 nc) give the places of the local
    entries of the cells and of each axis's faces in a data array.  Every
    index array is int32; ``indices`` and ``indptr`` are read-only, so no
    reader can change the held pattern.
    """

    def __init__(self, disc: Discretization, row: str, col: str):
        rmap, cmap = disc.dofmap(row), disc.dofmap(col)
        mesh, topo = disc.mesh, disc.topo
        self.shape = (rmap.n_scalar, cmap.n_scalar)
        cells = rmap.cells if rmap.side == cmap.side else topo.cut_cells
        faces = topo.ghost_faces(rmap.side) if row == col else np.empty(0, dtype=int)
        groups = [(cells[:, None], None)] + [
            (mesh.face_cells[faces[mesh.face_axis[faces] == axis]], axis) for axis in (0, 1)]
        # offset of each column from its row, in units of the column lattice
        offsets = [_lattice(cmap.order, axis)[:, None, :]
                   - _lattice(rmap.order, axis)[:, :, None] * cmap.order // rmap.order
                   for _, axis in groups]
        lo = min(off.min() for off in offsets)
        width = max(off.max() for off in offsets) - lo + 1
        # the column of each (row, offset), or -1
        table = np.full(self.shape[0] * width ** 2, -1, dtype=np.int32)
        keys = []
        for (group, _), off in zip(groups, offsets):
            rows, cols = (np.concatenate([dm.cell_dofs[c] for c in group.T],
                                         axis=1) for dm in (rmap, cmap))
            keys.append(rows[:, :, None] * width ** 2 + (off[1] - lo) * width + off[0] - lo)
            table[keys[-1]] = np.broadcast_to(cols[:, None, :], keys[-1].shape)
        present = np.flatnonzero(table >= 0)
        self.nnz = len(present)
        table[present], self.indices = np.arange(self.nnz), table[present]
        self.cell_pos, *self.face_pos = (table[key] for key in keys)
        self.indptr = np.searchsorted(present, np.arange(0, len(table) + 1, width ** 2)
                                      ).astype(np.int32)
        for a in (self.indices, self.indptr):
            a.setflags(write=False)
        self._slot = np.full(mesh.n_cells, -1, dtype=np.int32)
        self._slot[cells] = np.arange(len(cells))

    def at_cells(self, cells) -> np.ndarray:
        """Scatter map (cells, nr, nc) of some of the coupling cells."""
        return self.cell_pos[self._slot[cells]]

    def sum(self, entries) -> np.ndarray:
        """Data array of local entries [(positions, values), ...], summed;
        the values broadcast against their positions."""
        pos = [p.ravel() for p, _ in entries]
        vals = [np.broadcast_to(v, p.shape).ravel() for p, v in entries]
        return np.bincount(np.concatenate(pos), np.concatenate(vals), minlength=self.nnz)

    def compact(self, data) -> sp.csr_matrix:
        """CSR matrix of the nonzero entries of ``data``, in new arrays."""
        nz = np.flatnonzero(data)
        return sp.csr_matrix((data[nz], self.indices[nz], np.searchsorted(nz, self.indptr)),
                             shape=self.shape)


def pattern(disc: Discretization, row: str, col: str) -> Pattern:
    """The ``Pattern`` of the block pair (row, col), built on first use and
    held by ``disc``."""
    if (row, col) not in disc.patterns:
        disc.patterns[row, col] = Pattern(disc, row, col)
    return disc.patterns[row, col]


class _Sums(defaultdict):
    """Local matrices of the forms of one pass, summed at the end.

    Every form is symmetric (the continuity form tested with -xi), so it is
    summed on and above the diagonal only; ``_stack`` places each pair
    below it as its partner's transpose.  ``add`` takes local matrices of
    some ``cells`` on (row, col) in either orientation: a pair below the
    diagonal (``SYSTEM_BLOCKS`` order) as its transpose, one on it as
    (L + L^T) / 2.  A local matrix c_r nr high and c_c nc wide splits into
    one data array per component pair (component-major), keyed (row, col,
    cr, cc) under the form's name, with cr <= cc on a diagonal block pair.
    """

    def __init__(self, disc: Discretization):
        super().__init__(list)
        self.disc = disc

    def add(self, form: str, row: str, col: str, cells, local) -> None:
        if SYSTEM_BLOCKS.index(row) > SYSTEM_BLOCKS.index(col):
            row, col, local = col, row, np.swapaxes(local, -1, -2)
        elif row == col:
            local = _symmetric(local)
        pos = pattern(self.disc, row, col).at_cells(cells)
        nr, nc = pos.shape[1:]
        for cr, cc in np.ndindex(local.shape[-2] // nr, local.shape[-1] // nc):
            if row != col or cr <= cc:
                part = local[..., cr * nr:(cr + 1) * nr, cc * nc:(cc + 1) * nc]
                self[form, row, col, cr, cc].append((pos, part))

    def arrays(self) -> dict:
        """The summed data arrays by form; the local matrices are freed."""
        out = defaultdict(dict)
        while self:
            (form, *key), entries = self.popitem()
            out[form][tuple(key)] = pattern(self.disc, *key[:2]).sum(entries)
        return out


def _on_components(arrays: dict, ncomp: int = 2) -> dict:
    """Scalar forms {(row, col, 0, 0): data} on every component pair (c, c)."""
    return {(row, col, c, c): data for (row, col, _, _), data in arrays.items()
            for c in range(ncomp)}


def _overflow(name: str) -> SingularMatrixError:
    """The refusal of the form or operator ``name`` whose entries overflow:
    dropping them as round-off would solve without it."""
    return SingularMatrixError(f"{name} overflows to non-finite entries")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by name
def _lin(*terms, name: str) -> dict:
    """sum_i c_i F_i over terms (c_i, F_i), data array by data array, each
    key's terms in one pass in the order given.  An entry that cancels to
    at most DROP_TOL times sum_i |c_i F_i| is the round-off of a zero, and
    is zeroed; ``_overflow(name)`` if that sum is not finite."""
    groups = defaultdict(list)
    for coef, arrays in terms:
        for key, data in arrays.items():
            groups[key].append((coef, data))
    out = {}
    for key, ((coef, data), *rest) in groups.items():
        total = coef * data
        size = np.abs(total)
        term = np.empty_like(total)
        for coef, data in rest:
            total += np.multiply(coef, data, out=term)
            size += np.abs(term, out=term)
        if not size.max(initial=0.0) < np.inf:  # a NaN fails too
            raise _overflow(name)
        size *= DROP_TOL
        total[np.abs(total, out=term) <= size] = 0.0
        out[key] = total
    return out


def _drop_roundoff(arrays: dict, name: str) -> dict:
    """Zero, in place, the entries of data arrays {key: data} of at most
    DROP_TOL times their largest |entry|.  These are the round-off of
    entries that are zero in exact arithmetic, so the stored pattern does
    not depend on the order of the sums.  ``_overflow(name)`` if an entry
    is not finite."""
    scale = max((np.abs(data).max(initial=0.0) for data in arrays.values()), default=0.0)
    if not scale < np.inf:  # a NaN fails too
        raise _overflow(name)
    tol = DROP_TOL * scale
    for data in arrays.values():
        data[np.abs(data) <= tol] = 0.0
    return arrays


def _stack(arrays: dict, disc: Discretization, blocks=SYSTEM_BLOCKS) -> sp.csr_matrix:
    """CSR matrix of data arrays {(row, col, cr, cc): data} on the scalar
    patterns of ``disc``.

    Rows and columns run over the components of ``blocks`` in order, each
    block component-major.  An absent key is a zero block, or the transpose
    of its partner (col, row, cc, cr) if that is given; zero entries are
    not stored.  In each row the nonzeros of a block go after those of the
    blocks left of it, so the result is sorted without a sort.
    """
    size = {b: disc.dofmap(b).n_scalar for b in blocks}
    comps = [(b, c) for b in blocks for c in range(disc.dofmap(b).ncomp)]
    starts = np.cumsum([0] + [size[b] for b, _ in comps])
    counts = np.zeros(starts[-1], dtype=np.int64)
    segments = []
    for (row, cr), r0 in zip(comps, starts):
        for (col, cc), c0 in zip(comps, starts):
            if (row, col, cr, cc) in arrays:
                B = pattern(disc, row, col).compact(arrays[row, col, cr, cc])
            elif (col, row, cc, cr) in arrays:
                B = pattern(disc, col, row).compact(arrays[col, row, cc, cr]).T.tocsr()
            else:
                continue
            rows = slice(r0, r0 + size[row])
            counts[rows] += np.diff(B.indptr)
            segments.append((rows, c0, B))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    free = indptr[:-1].copy()  # next free place in each row
    indices, values = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    for rows, c0, B in segments:
        pos = np.repeat(free[rows] - B.indptr[:-1], np.diff(B.indptr)) + np.arange(B.nnz)
        indices[pos], values[pos] = B.indices + c0, B.data
        free[rows] += np.diff(B.indptr)
    return sp.csr_matrix((values, indices, indptr), shape=(len(counts), len(counts)))


# -- cell forms ----------------------------------------------------------------

def _cell_pass(disc: Discretization, sums: _Sums, side: str, forms) -> None:
    """Scatter the cell forms [(name, kernel, row, col), ...] of one side
    over Omega_i.

    ``kernel(tabs_row, tabs_col, w)`` maps (N, Gx, Gy) tables and weights
    at quadrature points to local matrices, with leading cell axes carried
    through.  Uncut cells share one local matrix per form.  The cut cells
    share the side's moment-fitted nodes, tabulated once per space order,
    and carry their own weights (cells, q), so the kernels give all their
    local matrices at once.
    """
    order = {b: disc.dofmap(b).order for _, _, row, col in forms for b in (row, col)}
    orders = set(order.values())

    def add(cells, tabs, w):
        for name, kernel, row, col in forms:
            sums.add(name, row, col, cells, kernel(tabs[order[row]], tabs[order[col]], w))

    add(disc.topo.uncut_cells(side),
        {o: disc.full_cell_tables(o) for o in orders}, disc.full_cell_weights)
    cells, nodes, w = disc.cut_nodes[side]
    add(cells, {o: reference_basis(o).tables(nodes, disc.h) for o in orders}, w)


def assemble_cells(disc: Discretization, kernel, block: str, cells) -> np.ndarray:
    """Data array of a scalar integral over the whole ``cells``, cells of
    the block's side, on the pattern of (``block``, ``block``), so it may
    hold zeros.

    ``kernel`` is as in ``_cell_pass``.  Every cell takes the shared
    full-cell rule, so one local matrix, as (L + L^T) / 2, serves them all.
    """
    P = pattern(disc, block, block)
    tabs = disc.full_cell_tables(disc.dofmap(block).order)
    local = _symmetric(kernel(tabs, tabs, disc.full_cell_weights))
    return P.sum([(P.at_cells(cells), local)])


# -- ghost penalty raw jump matrices ----------------------------------------

@lru_cache(maxsize=None)
def face_jump_table(order: int, l: int, axis: int) -> np.ndarray:
    """(q, 2 nb) table of the jump of the l-th normal derivative on a face
    of the reference cell [0, 1]^2; on a mesh of size h it is this over h^l.

    The face has normal axis ``axis`` (0: vertical face, 1: horizontal
    face) and q = FACE_NPTS Gauss points along it.  Columns are the basis
    of the first cell (left or below) at reference x = 1, then minus the
    basis of the second cell at x = 0 (x and y swapped for horizontal
    faces), so the table times the two cells' stacked coefficients is the
    jump.  Cached; the returned table is shared and read-only.
    """
    basis = reference_basis(order)
    gx, _ = gauss_1d(FACE_NPTS)
    d = (l, 0) if axis == 0 else (0, l)
    tables = []
    for x in (1.0, 0.0):
        pts = np.column_stack([np.full_like(gx, x), gx])
        tables.append(basis.eval(pts if axis == 0 else pts[:, ::-1], *d))
    table = np.hstack([tables[0], -tables[1]])
    table.setflags(write=False)
    return table


def raw_jump_matrices(disc: Discretization, block: str,
                      w_max: float | None = None) -> list[np.ndarray]:
    """Data arrays of the scalar matrices R_l, l = 1..order, of the weighted
    face-jump forms, on the pattern of (``block``, ``block``).

    R_l realizes  sum_F w_F^i int_F [d^l_n phi_i][d^l_n phi_j] ds  on the
    scalar dof map of ``block``, a Q_order space of side i (no gamma, no h powers),
    with w_F = w(kappa_K1) + w(kappa_K2) over the two cells of F.  Every
    ghost face of one axis is a translate of one reference face, so per
    order and axis one local matrix J^T W J (``face_jump_table``), as
    (L + L^T) / 2, is scattered to all the axis's faces, scaled by their
    w_F.  The pattern also couples the side's cells, so the arrays hold zeros.
    """
    w_max = disc.cfg.w_max if w_max is None else w_max
    mesh = disc.mesh
    side, order = disc.dofmap(block).side, disc.dofmap(block).order
    faces = disc.topo.ghost_faces(side)
    P = pattern(disc, block, block)
    kappa = disc.topo.kappa(side)
    cells = mesh.face_cells[faces]  # (nfaces, 2)
    axes = mesh.face_axis[faces]
    w_face = weight_w(kappa[cells[:, 0]], w_max) + weight_w(kappa[cells[:, 1]], w_max)
    _, gw = gauss_1d(FACE_NPTS)
    wq = mesh.h * gw
    out = []
    for l in range(1, order + 1):
        jumps = [face_jump_table(order, l, axis) / mesh.h ** l for axis in (0, 1)]
        out.append(P.sum([(P.face_pos[axis],
                           w_face[axes == axis, None, None] * _symmetric(_mass(J, J, wq)))
                          for axis, J in enumerate(jumps)]))
    return out


def ghost_data(raws: list[np.ndarray], s: int, h: float) -> np.ndarray:
    """Data array of sum_l c_l R_l over the data arrays of R_1, R_2, ... on
    one pattern, c_l = h^(2(l-s)+1) / ((l-s)!)^2, added in order of l."""
    terms = [h ** (2 * (l - s) + 1) / math.factorial(l - s) ** 2 * raw
             for l, raw in enumerate(raws, start=1)]
    return sum(terms[1:], terms[0])


# -- Nitsche interface coupling ---------------------------------------------

def _nitsche_pass(disc: Discretization, sums: _Sums, consistency: bool) -> None:
    """Scatter the penalty and, if ``consistency``, the consistency
    interface forms, with the jump [phi] = phi_f - phi_s:

    Penalty:     h^-1 rho_f nu_f gamma_N ([v], [phi])
    Consistency: -(sigma_f(v_f, p) n_f, [phi]) - ([v], sigma_f(phi_f, xi) n_f)
    (the pressure tested with -xi, as in the continuity form)

    Every arc has ``ARC_NPTS`` points, so the arc rules are one (arcs, q)
    table, tabulated once per order (the pressure order for the consistency
    forms only), and the local matrices of all arcs are formed at once; a
    cell with two arcs gets one local matrix per arc.  They come from one
    jump table [phi] per space (N_f, -N_s) and, per component a, one flux
    table of (sigma_f(v_f, p) n_f)_a over the dofs of (v_f x, v_f y, p).
    ``_Sums.add`` sums each coupling above the diagonal only; on (v_f, v_f)
    the consistency and adjoint terms are L + L^T of one local matrix L.
    """
    cfg = disc.cfg
    rnu = cfg.rho_f * cfg.nu_f
    pen = rnu * cfg.gamma_N / disc.h
    orders = {cfg.m_f, cfg.m_s} | ({cfg.m_f - 1} if consistency else set())
    rule = disc.iface_rules
    cells = np.repeat(rule.cells, np.diff(rule.offsets) // ARC_NPTS)
    pts = rule.points.reshape(len(cells), ARC_NPTS, 2)
    w = rule.weights.reshape(len(cells), ARC_NPTS)
    tabs = {o: disc.tabulate(o, cells[:, None], pts) for o in orders}
    jump = {"vf": tabs[cfg.m_f][0], "vs": -tabs[cfg.m_s][0]}
    for row, col in (("vf", "vf"), ("vs", "vs"), ("vf", "vs")):
        sums.add("nitsche_pen", row, col, cells, pen * _mass(jump[row], jump[col], w))
    if not consistency:
        return
    n = np.moveaxis(disc.level_set.normal(pts)[..., None], -2, 0)  # (2, arcs, q, 1)
    _, *G = tabs[cfg.m_f]
    Gn = G[0] * n[0] + G[1] * n[1]
    flux = [np.concatenate([rnu * (G[a] * n[b] + (Gn if a == b else 0.0)) for b in range(2)]
                           + [-tabs[cfg.m_f - 1][0] * n[a]], axis=-1) for a in range(2)]
    nv = 2 * G[0].shape[-1]
    for t, J in jump.items():
        # -(sigma_f(v_f, p) n, [phi]): rows phi_t, columns v_f and p
        local = np.concatenate([-_mass(J, flux[a], w) for a in range(2)], axis=-2)
        sums.add("consistency", t, "vf", cells, (2.0 if t == "vf" else 1.0) * local[..., :nv])
        sums.add("consistency", t, "p", cells, local[..., nv:])


# -- forms and operators -----------------------------------------------------

@dataclass
class Forms:
    """Assembled matrices of one discretization, without stored zeros or
    round-off entries.

    The forms that the energy functionals and the checks read; the viscous,
    pressure and Nitsche consistency forms go into A only, the solid bulk
    form into K only (``operators``).
    Matrices without a note are square on the (v_f, p, v_s) system.
    """

    mass_fluid: sp.csr_matrix       # rho_f (v_f, phi_f)_Omega_f
    mass_solid_scalar: sp.csr_matrix  # scalar (u, psi)_Omega_s on solid space
    nitsche_pen: sp.csr_matrix
    ghost_vf: sp.csr_matrix         # scalar matrices on their own spaces
    ghost_p: sp.csr_matrix
    ghost_vs: sp.csr_matrix
    ghost_u: sp.csr_matrix


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by name
def assemble_forms(disc: Discretization, arrays: dict | None = None) -> Forms:
    """The fields of ``Forms`` of ``disc``, from one assembly pass; with
    ``arrays``, also the forms that only the operators A and K read.

    Each form is summed once into data arrays {(row, col, cr, cc): data}
    on the patterns of ``disc`` (``pattern``).

    Without ``arrays`` the pass reads only the patterns that the fields of
    ``Forms`` lie on (no pressure-velocity pair) and assembles the masses,
    the Nitsche penalty and the ghost penalties only.  ``arrays``, if
    given, asks for those forms too: it receives the data arrays by name
    (the fields of ``Forms``, without their round-off, and "viscous",
    "grad_p", "consistency" and "solid_bulk", which only A and K read), so
    that ``operators`` needs no second pass.  A form whose entries
    overflow, as with a ghost penalty of 1e308, is refused with
    SingularMatrixError naming it, not dropped as round-off.
    """
    cfg = disc.cfg
    full = arrays is not None
    sums = _Sums(disc)
    value = SCALAR_KERNELS["value"]
    fluid = [("mass_fluid", value, "vf", "vf")]
    solid = [("mass_solid_scalar", value, "vs", "vs")]
    if full:
        fluid += [("viscous", lambda tr, tc, w: _viscous(tr, w, cfg.rho_f * cfg.nu_f),
                   "vf", "vf"),
                  ("grad_p", _grad_p, "vf", "p")]
        solid += [("solid_bulk", lambda tr, tc, w: _solid_bulk(tr, w, cfg.mu_s, cfg.lambda_s),
                   "vs", "vs")]
    _cell_pass(disc, sums, "f", fluid)
    _cell_pass(disc, sums, "s", solid)
    _nitsche_pass(disc, sums, consistency=full)
    a = sums.arrays()
    f = {"mass_fluid": _on_components(_lin((cfg.rho_f, a.pop("mass_fluid")),
                                           name="form mass_fluid")),
         "nitsche_pen": _on_components(a.pop("nitsche_pen")), **a}

    # ghost penalties gamma sum_l c_l R_l on the jump matrices of the form's
    # space, with the shift s = 1 for v_f and u and s = 0 for p and v_s
    raws = {b: raw_jump_matrices(disc, b) for b in SYSTEM_BLOCKS}
    for name, b, gamma, s in (("ghost_vf", "vf", cfg.gamma_vf, 1),
                              ("ghost_p", "p", cfg.gamma_p, 0),
                              ("ghost_vs", "vs", cfg.gamma_vs, 0),
                              ("ghost_u", "vs", cfg.gamma_u, 1)):
        f[name] = {(b, b, 0, 0): gamma * ghost_data(raws[b], s, disc.h)}
    del raws

    def matrix(data: dict) -> sp.csr_matrix:
        # a single data array is a scalar field on its own block pair
        if len(data) == 1:
            (key, array), = data.items()
            return pattern(disc, *key[:2]).compact(array)
        return _stack(data, disc)

    forms = Forms(**{name: matrix(_drop_roundoff(f[name], f"form {name}"))
                     for name in Forms.__dataclass_fields__})
    if full:
        arrays.update(f)
    return forms


def operators(disc: Discretization):
    """(M, A, K, forms): the data arrays of the k-free operators on
    (v_f, p, v_s), and the ``Forms`` of the same pass,
      M = rho_f M_f + rho_s M_s + rho_s g_vs,
      A = a_f + Nitsche + 2 rho_f nu_f g_vf - g_p,
      K = a_s + 2 mu_s g_u, on the v_s block only (u shares its space).
    A's (p, p) block is -g_p, the continuity form being tested with -xi, so
    each matrix that ``_stack`` makes of their weighted sums equals its
    transpose bit for bit.  A and the solid bulk form a_s lose their
    round-off entries relative to their own largest entry, as each
    ``Forms`` field does.
    An operator whose entries overflow, as K's 2 mu_s g_u at mu_s = 1e308,
    is refused with SingularMatrixError naming it.
    """
    f: dict = {}
    forms = assemble_forms(disc, f)
    cfg = disc.cfg
    M = _lin((1.0, f["mass_fluid"]), (cfg.rho_s, _on_components(f["mass_solid_scalar"])),
             (cfg.rho_s, _on_components(f["ghost_vs"])), name="operator M")
    K = _lin((1.0, _drop_roundoff(f["solid_bulk"], "form solid_bulk")),
             (2.0 * cfg.mu_s, _on_components(f["ghost_u"])), name="operator K")
    # rho_f nu_f first: validate bounds it, and doubling it cannot overflow
    # where doubling rho_f could (rho_f = 1e308)
    A = _lin((1.0, f["viscous"]), (1.0, f["grad_p"]),
             (1.0, f["nitsche_pen"]), (1.0, f["consistency"]),
             (2.0 * (cfg.rho_f * cfg.nu_f), _on_components(f["ghost_vf"])),
             (-1.0, f["ghost_p"]), name="operator A")
    return M, _drop_roundoff(A, "operator A"), K, forms

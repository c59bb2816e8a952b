"""Uniform quadrilateral mesh of (-1,1)^2 and the cut topology.

The background mesh is fitted to the outer boundary but not to the
interface.  ``CutTopology`` records, per cell, whether it is purely fluid,
purely solid or cut, the exact area fractions kappa_f/kappa_s, the interface
arcs within each cut cell and the ghost penalty face sets of both
subtriangulations.  The mesh faces and the cut topology are built by array
code over all cells and faces at once.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .config import ConfigError
from .geometry import CircleLevelSet, edge_zero_crossings, rowdot


# corner offsets of a cell in units of h, counterclockwise from the lower left
_UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


class CellClass(enum.IntEnum):
    FLUID_ONLY = 0
    SOLID_ONLY = 1
    CUT = 2


@dataclass(frozen=True)
class Mesh:
    """Uniform n x n mesh of axis aligned square cells on (-1,1)^2.

    Cells are numbered lexicographically (x fastest), vertices likewise on
    the (n+1)^2 grid.  Faces are stored once; ``face_cells`` holds the two
    adjacent cell ids in lexicographic order, with -1 marking the outside
    for boundary faces.
    """

    n: int
    h: float
    vertices: np.ndarray       # ((n+1)^2, 2)
    cell_vertices: np.ndarray  # (n^2, 4) corner ids, counterclockwise
    face_cells: np.ndarray     # (nfaces, 2)
    face_axis: np.ndarray      # (nfaces,) normal axis: 0 vertical, 1 horizontal

    @property
    def n_cells(self) -> int:
        return self.n * self.n

    def cell_origin(self, cell) -> np.ndarray:
        """Lower-left corner of cell(s)."""
        cell = np.asarray(cell)
        ix = cell % self.n
        iy = cell // self.n
        return np.stack([-1.0 + ix * self.h, -1.0 + iy * self.h], axis=-1)

    def cell_corners(self, cell) -> np.ndarray:
        """Corners of cell(s), counterclockwise from the lower left: (..., 4, 2)."""
        return self.cell_origin(cell)[..., None, :] + self.h * _UNIT_SQUARE


def build_mesh(n: int) -> Mesh:
    """Build the uniform mesh with n cells per side (h = 2/n)."""
    if n < 2:
        raise ValueError(f"need at least 2 cells per side, got n={n}")
    if n % 2 != 0:
        warnings.warn(f"odd n={n}: refinements will not nest", stacklevel=2)
    h = 2.0 / n
    g = np.linspace(-1.0, 1.0, n + 1)
    X, Y = np.meshgrid(g, g, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = iy.ravel() * (n + 1) + ix.ravel()
    cell_vertices = np.column_stack([ll, ll + 1, ll + n + 2, ll + n + 1])

    # vertical faces (normal e_x) between columns, then horizontal faces
    # (normal e_y) between rows, each set x fastest; -1 is the outside
    vx, vy = (a.ravel() for a in np.meshgrid(np.arange(n + 1), np.arange(n)))
    hx, hy = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n + 1)))
    left = np.where(vx > 0, vy * n + vx - 1, -1)
    right = np.where(vx < n, vy * n + vx, -1)
    below = np.where(hy > 0, (hy - 1) * n + hx, -1)
    above = np.where(hy < n, hy * n + hx, -1)
    return Mesh(
        n=n,
        h=h,
        vertices=vertices,
        cell_vertices=cell_vertices,
        face_cells=np.column_stack([np.concatenate([left, below]),
                                    np.concatenate([right, above])]),
        face_axis=np.repeat([0, 1], [len(vx), len(hx)]),
    )


@dataclass(frozen=True)
class CutTopology:
    """Cell classification, cut fractions, ghost faces and interface arcs.

    A cut cell holds one interface arc, or two where the circle leaves the
    cell through one face and comes back through the same face (it then
    nearly touches that face's line).  The arcs of one cell lie on one
    angular branch, so together they span less than pi.
    """

    mesh: Mesh
    level_set: CircleLevelSet
    cell_class: np.ndarray   # (n_cells,) CellClass values
    kappa_f: np.ndarray      # (n_cells,)
    kappa_s: np.ndarray      # (n_cells,)
    in_fluid_tri: np.ndarray  # (n_cells,) bool, K in T_f^h
    in_solid_tri: np.ndarray  # (n_cells,) bool, K in T_s^h
    arc_cells: np.ndarray    # (narcs,) cut cell of each arc, ascending
    arcs: np.ndarray         # (narcs, 2) theta0 < theta1, counterclockwise
    ghost_faces_f: np.ndarray  # face ids
    ghost_faces_s: np.ndarray

    @property
    def cut_cells(self) -> np.ndarray:
        return np.flatnonzero(self.cell_class == CellClass.CUT)

    def arc_range(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the arcs of each of ``cells`` are ``arcs[lo:hi]``."""
        lo, hi = np.searchsorted(self.arc_cells, [cells, cells + 1])
        if np.any(lo == hi):
            raise ValueError(f"cell {np.extract(lo == hi, cells)[0]} is not cut")
        return lo, hi

    def tri_cells(self, side: str) -> np.ndarray:
        flags = self.in_fluid_tri if side == "f" else self.in_solid_tri
        return np.flatnonzero(flags)

    def uncut_cells(self, side: str) -> np.ndarray:
        """Cells of T_i^h entirely inside Omega_i (i.e. Omega_i \\ G_h)."""
        cls = CellClass.FLUID_ONLY if side == "f" else CellClass.SOLID_ONLY
        return np.flatnonzero(self.cell_class == cls)

    def ghost_faces(self, side: str) -> np.ndarray:
        return self.ghost_faces_f if side == "f" else self.ghost_faces_s

    def kappa(self, side: str) -> np.ndarray:
        return self.kappa_f if side == "f" else self.kappa_s


def _unresolved(mesh: Mesh, ls: CircleLevelSet, cell: int, problem: str) -> ConfigError:
    """The error for a circle the mesh is too coarse for, with an n that works.

    A cut cell meets the circle and has diameter h*sqrt(2).  With
    (sqrt(2) + 1/2) h <= r every cut cell therefore lies at least h/2 from
    the centre, no cell is near two of the circle's extreme points, and every
    cut cell has one or two arcs.
    """
    n_min = int(np.ceil(2.0 * (np.sqrt(2.0) + 0.5) / ls.radius))
    return ConfigError(
        f"cell {cell}: {problem}; n={mesh.n} does not resolve the circle of radius "
        f"{ls.radius:.6g}, n >= {n_min} does ((sqrt(2) + 1/2) h <= radius)")


def build_cut_topology(mesh: Mesh, ls: CircleLevelSet) -> CutTopology:
    """Classify cells, compute cut fractions, interface arcs and ghost faces.

    Every cell near the circle is treated in one pass over (cells, edges)
    arrays.  The solid fraction of a cut cell is the shoelace area of its
    chord polygon plus one circular segment per arc.  Raises ``ConfigError``
    when the circle leaves the domain or the mesh does not resolve it: a
    cell with three crossings or more than four, a cut cell within h/2 of
    the centre, or arcs that do not add up to the full circle.
    """
    c, r, h = ls.center, ls.radius, mesh.h
    if np.any(np.abs(c) + r >= 1.0):
        raise ConfigError(f"the circle of radius {r:.6g} around ({c[0]:.6g}, {c[1]:.6g}) "
                          "does not lie inside the domain (-1, 1)^2")
    n_cells = mesh.n_cells
    cell_class = np.full(n_cells, CellClass.FLUID_ONLY, dtype=int)
    kappa_f = np.ones(n_cells)
    kappa_s = np.zeros(n_cells)

    # cheap prefilter: only cells whose corner distances straddle r^2 (with a
    # margin for the face-bulge case) need the exact treatment.  The disk is
    # convex, so a cell with every corner in the closed disk is solid, also
    # when a corner lies on the circle.
    origins = mesh.cell_origin(np.arange(n_cells))
    corners = mesh.cell_corners(np.arange(n_cells))
    phi_c = ls(corners)            # (n_cells, 4)
    all_in = np.all(phi_c <= 0.0, axis=1)
    all_out = np.all(phi_c > 0.0, axis=1)
    cell_class[all_in] = CellClass.SOLID_ONLY
    kappa_f[all_in], kappa_s[all_in] = 0.0, 1.0
    mixed = ~(all_in | all_out)
    # a cell with all corners outside can still be crossed if the disk bulges
    # through one face; the closest boundary point test catches it
    closest = np.clip(c, origins, origins + h)
    d2 = np.sum((closest - c) ** 2, axis=1)
    maybe_bulge = all_out & (d2 < ls.radius_squared)
    cand = np.flatnonzero(mixed | maybe_bulge)

    # crossings of the four edges of each candidate, in boundary order; one
    # at a corner is found on both edges that meet there and counts once
    cc = corners[cand]
    pts, found = edge_zero_crossings(ls, cc, np.roll(cc, -1, axis=1))
    pts, found = pts.reshape(-1, 8, 2), found.reshape(-1, 8)
    gap = pts[:, :, None, :] - pts[:, None, :, :]
    close = np.sum(gap * gap, axis=-1) < (1e-12 * (1.0 + h)) ** 2
    distinct = found.copy()
    for j in range(1, 8):
        distinct[:, j] &= ~np.any(distinct[:, :j] & close[:, :j, j], axis=1)
    count = distinct.sum(axis=1)
    bad = np.flatnonzero((count == 3) | (count > 4))
    if len(bad):
        raise _unresolved(mesh, ls, int(cand[bad[0]]),
                          f"{count[bad[0]]} interface crossings")

    # a candidate the circle does not pass through (it touches at most one
    # point, such as a corner within round-off of the circle) lies on the
    # side of its centre
    whole = cand[count < 2]
    whole = whole[ls(origins[whole] + 0.5 * h) < 0.0]
    cell_class[whole] = CellClass.SOLID_ONLY
    kappa_f[whole], kappa_s[whole] = 0.0, 1.0

    is_cut = count >= 2
    cells, k = cand[is_cut], count[is_cut]
    ncut = len(cells)
    cell_class[cells] = CellClass.CUT
    # the polar cut-cell rules need the centre away from the cell: their
    # radial bounds have poles at rays parallel to the cell's edges, and
    # 8-point rules lose accuracy as those poles near the panels (at
    # distance h/2 the error of a cut fraction is still below 1e-8)
    o = origins[cells]
    close = np.flatnonzero(np.sum((np.clip(c, o, o + h) - c) ** 2, axis=1) < (0.5 * h) ** 2)
    if len(close):
        raise _unresolved(mesh, ls, int(cells[close[0]]),
                          "the cut cell lies within h/2 of the circle centre")

    # arcs: the crossing angles of a cell, sorted, split the circle into
    # intervals that alternate between inside and outside the cell; the
    # midpoint of the first one decides which of the two sets is inside
    slot = np.argsort(~distinct[is_cut], axis=1, kind="stable")[:, :4]
    xp = np.take_along_axis(pts[is_cut], slot[..., None], axis=1)  # (ncut, 4, 2)
    th = np.where(np.arange(4) < k[:, None],
                  np.arctan2(xp[..., 1] - c[1], xp[..., 0] - c[0]), np.inf)
    th = np.sort(th, axis=1)
    mid = 0.5 * (th[:, 0] + th[:, 1])
    xm = c + r * np.column_stack([np.cos(mid), np.sin(mid)])
    first_in = np.all((o - 1e-12 <= xm) & (xm <= o + h + 1e-12), axis=1)
    cyc = np.column_stack([th, np.full(ncut, np.inf)])
    cyc[np.arange(ncut), k] = th[:, 0] + 2.0 * np.pi
    ends = np.where(first_in, 0, 1)[:, None] + np.arange(4)
    arcs = np.take_along_axis(cyc, ends, axis=1).reshape(ncut, 2, 2)
    two = k == 4
    arcs[~two, 1] = arcs[~two, 0]
    # the second arc onto the branch of the first
    arcs[:, 1] -= 2.0 * np.pi * np.round((arcs[:, 1, :1] - arcs[:, 0, :1]) / (2.0 * np.pi))
    has = np.column_stack([np.ones(ncut, dtype=bool), two])
    dth = arcs[..., 1] - arcs[..., 0]
    total = float(np.sum(dth[has]))
    if abs(total - 2.0 * np.pi) > 1e-9:
        centre = np.clip(((c + 1.0) // h).astype(int), 0, mesh.n - 1)
        raise _unresolved(mesh, ls, int(centre[1] * mesh.n + centre[0]),
                          f"the interface arcs cover {total:.6g} of 2 pi")

    # chord polygon of the solid part: corners inside the disk and the
    # crossings of each edge (both copies of a corner crossing), in boundary
    # order.  Its shoelace area is taken per vertex count, so each product
    # is the BLAS dot of one polygon's coordinates, as for a single cell.
    vmask = np.concatenate([(phi_c[cells] < 0.0)[..., None],
                            found[is_cut].reshape(ncut, 4, 2)], axis=2).reshape(ncut, 12)
    verts = np.concatenate([corners[cells][:, :, None, :],
                            pts[is_cut].reshape(ncut, 4, 2, 2)], axis=2).reshape(ncut, 12, 2)
    verts = np.take_along_axis(
        verts, np.argsort(~vmask, axis=1, kind="stable")[..., None], axis=1)
    nv = vmask.sum(axis=1)
    polygon = np.zeros(ncut)
    for m in np.unique(nv[nv >= 3]):
        sel = nv == m
        v = verts[sel, :m]
        x, y = v[..., 0], v[..., 1]
        polygon[sel] = 0.5 * np.abs(rowdot(x, np.roll(y, -1, axis=1))
                                    - rowdot(y, np.roll(x, -1, axis=1)))
    segment = 0.5 * ls.radius_squared * (dth - np.sin(dth))
    area_s = polygon + segment[:, 0] + np.where(two, segment[:, 1], 0.0)
    kappa_s[cells] = np.clip(area_s / (h * h), 0.0, 1.0)
    kappa_f[cells] = 1.0 - kappa_s[cells]

    cut = cell_class == CellClass.CUT
    in_fluid = cut | (cell_class == CellClass.FLUID_ONLY)
    in_solid = cut | (cell_class == CellClass.SOLID_ONLY)
    # ghost faces: interior faces of T_i^h next to at least one cut cell
    k1, k2 = mesh.face_cells.T
    near = (k1 >= 0) & (k2 >= 0) & (cut[k1] | cut[k2])

    return CutTopology(
        mesh=mesh,
        level_set=ls,
        cell_class=cell_class,
        kappa_f=kappa_f,
        kappa_s=kappa_s,
        in_fluid_tri=in_fluid,
        in_solid_tri=in_solid,
        arc_cells=np.repeat(cells, np.where(two, 2, 1)),
        arcs=arcs[has],
        ghost_faces_f=np.flatnonzero(near & in_fluid[k1] & in_fluid[k2]),
        ghost_faces_s=np.flatnonzero(near & in_solid[k1] & in_solid[k2]),
    )


def verify_path_assumption(topo: CutTopology, side: str) -> tuple[int, int]:
    """Shortest ghost-face paths from every cut cell to an uncut side cell.

    One search from all uncut side cells at once over the side's ghost
    faces.  Returns (max path length in faces crossed, max number of cut
    cells sharing a nearest uncut cell; ties between equally near cells are
    broken by the search).  Raises if some cut cell has no such path.
    """
    mesh, cut = topo.mesh, topo.cut_cells
    k1, k2 = mesh.face_cells[topo.ghost_faces(side)].T
    graph = sp.csr_matrix((np.ones(len(k1)), (k1, k2)), shape=(mesh.n_cells,) * 2)
    dist, _, nearest = csgraph.dijkstra(graph, directed=False, indices=topo.uncut_cells(side),
                                        unweighted=True, min_only=True, return_predecessors=True)
    lost = cut[np.isinf(dist[cut])]
    if lost.size:
        raise RuntimeError(
            f"cut cell {lost[0]} has no ghost-face path to an uncut {side} cell")
    return int(dist[cut].max(initial=0)), int(np.bincount(nearest[cut]).max(initial=0))

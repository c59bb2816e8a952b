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
        """Corners of cell(s), counterclockwise from the lower left: (..., 4, 2).

        They are the cell's ``vertices``, so the cells on either side of a
        mesh line place it alike; ``origin + h`` may differ in the last bit.
        """
        return self.vertices[self.cell_vertices[cell]]


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
    arrays.  Each crossing is decided once: those on a mesh face by the
    signs of phi at its ends (``edge_zero_crossings``), solved once for both
    cells of the face, and a face's root on a vertex with phi = 0 is that
    vertex's crossing, which a cell counts once.  So neighbouring arcs share
    their end angles bit for bit and the arcs tile the circle.  The solid
    fraction of a cut cell is the shoelace area of its chord polygon plus
    one circular segment per arc.  Raises ``ConfigError`` when the circle
    leaves the domain or the mesh does not resolve it: a cell with three
    crossings or more than four, a cut cell within h/2 of the centre, or
    arcs that do not add up to the full circle.
    """
    c, r, h = ls.center, ls.radius, mesh.h
    if np.any(np.abs(c) + r >= 1.0):
        raise ConfigError(f"the circle of radius {r:.6g} around ({c[0]:.6g}, {c[1]:.6g}) "
                          "does not lie inside the domain (-1, 1)^2")
    n_cells = mesh.n_cells
    cell_class = np.full(n_cells, CellClass.FLUID_ONLY, dtype=int)
    kappa_f = np.ones(n_cells)
    kappa_s = np.zeros(n_cells)

    # phi is taken once per vertex, inside where phi <= 0; the disk is
    # convex, so a cell with every corner in the closed disk is solid.  The
    # candidates are the other cells that the open disk reaches: cells that
    # Gamma only touches at a corner stay fluid.
    corners = mesh.cell_corners(np.arange(n_cells))
    origins = corners[:, 0]
    phi_v = ls(mesh.vertices)
    phi_c = phi_v[mesh.cell_vertices]  # (n_cells, 4)
    solid = np.all(phi_c <= 0.0, axis=1)
    d2 = np.sum((np.clip(c, origins, corners[:, 2]) - c) ** 2, axis=1)
    cand = np.flatnonzero(~solid & (d2 < ls.radius_squared))

    nvert = len(mesh.vertices)
    cv = mesh.cell_vertices[cand]
    pairs = np.sort(np.stack([cv, np.roll(cv, -1, axis=1)], axis=-1), axis=-1)
    faces, edge_face = np.unique(pairs[..., 0] * nvert + pairs[..., 1], return_inverse=True)
    fp, ff = edge_zero_crossings(ls, mesh.vertices[faces // nvert], mesh.vertices[faces % nvert])
    theta_f = np.arctan2(fp[..., 1] - c[1], fp[..., 0] - c[0])
    theta_v = np.arctan2(mesh.vertices[:, 1] - c[1], mesh.vertices[:, 0] - c[0])
    # a candidate's 12 crossing slots: its 4 corners, then 2 per edge.  An
    # edge whose ends differ in sign and that returns no crossing has its
    # root on its end with phi = 0, and that corner counts once.
    edge_face = edge_face.reshape(-1, 4)
    pts = np.concatenate([mesh.vertices[cv], fp[edge_face].reshape(-1, 8, 2)], axis=1)
    found = ff[edge_face].reshape(-1, 8)
    inside = phi_c[cand] <= 0.0
    lost = (inside != np.roll(inside, -1, axis=1)) & ~found[:, ::2]
    on = (phi_c[cand] == 0.0) & (lost | np.roll(lost, 1, axis=1))
    found = np.concatenate([on, found], axis=1)
    theta = np.concatenate([theta_v[cv], theta_f[edge_face].reshape(-1, 8)], axis=1)
    count = found.sum(axis=1)
    bad = np.flatnonzero((count == 3) | (count > 4))
    if len(bad):
        raise _unresolved(mesh, ls, int(cand[bad[0]]),
                          f"{count[bad[0]]} interface crossings")

    # a candidate the circle does not pass through (it touches at most one
    # point, such as a corner on the circle) lies on the side of its centre
    whole = cand[count < 2]
    solid[whole] = ls(origins[whole] + 0.5 * h) < 0.0
    cell_class[solid] = CellClass.SOLID_ONLY
    kappa_f[solid], kappa_s[solid] = 0.0, 1.0

    is_cut = count >= 2
    cells, k = cand[is_cut], count[is_cut]
    ncut = len(cells)
    cell_class[cells] = CellClass.CUT
    # the polar cut-cell rules need the centre away from the cell: their
    # radial bounds have poles at rays parallel to the cell's edges, and
    # 8-point rules lose accuracy as those poles near the panels (at
    # distance h/2 the error of a cut fraction is still below 1e-8)
    o = origins[cells]
    close = np.flatnonzero(d2[cells] < (0.5 * h) ** 2)
    if len(close):
        raise _unresolved(mesh, ls, int(cells[close[0]]),
                          "the cut cell lies within h/2 of the circle centre")

    # arcs: the crossing angles of a cell, sorted, split the circle into
    # intervals that alternate between inside and outside the cell; the
    # midpoint of the first one decides which of the two sets is inside.
    # Each arc end is a crossing's angle plus whole turns, added once.
    th = np.sort(np.where(found[is_cut], theta[is_cut], np.inf), axis=1)[:, :4]
    mid = 0.5 * (th[:, 0] + th[:, 1])
    xm = c + r * np.column_stack([np.cos(mid), np.sin(mid)])
    first_in = np.all((o - 1e-12 <= xm) & (xm <= o + h + 1e-12), axis=1)
    at = np.where(first_in, 0, 1)[:, None] + np.arange(4)
    turns = at // k[:, None]
    ang = np.take_along_axis(th, at % k[:, None], axis=1)
    # the second arc onto the branch of the first
    turns[:, 2:] -= np.round((ang[:, 2:3] - ang[:, :1]) / (2.0 * np.pi)
                             + turns[:, 2:3] - turns[:, :1]).astype(int)
    arcs = (ang + 2.0 * np.pi * turns).reshape(ncut, 2, 2)
    two = k == 4
    has = np.column_stack([np.ones(ncut, dtype=bool), two])
    dth = arcs[..., 1] - arcs[..., 0]
    total = float(np.sum(dth[has]))
    if abs(total - 2.0 * np.pi) > 1e-9:
        centre = np.clip(((c + 1.0) // h).astype(int), 0, mesh.n - 1)
        raise _unresolved(mesh, ls, int(centre[1] * mesh.n + centre[0]),
                          f"the interface arcs cover {total:.6g} of 2 pi")

    # chord polygon of the solid part: corners inside the disk and the face
    # crossings, in boundary order (the angle around the cell's centre) and
    # relative to the cell's origin, so the area keeps its digits at any h.
    # Padded with its last vertex, whose trapezoids are exact zeros.
    vmask = np.concatenate([phi_c[cells] <= 0.0, found[is_cut, 4:]], axis=1)
    verts = pts[is_cut] - o[:, None, :]
    key = np.where(vmask, np.arctan2(verts[..., 1] - 0.5 * h, verts[..., 0] - 0.5 * h), np.inf)
    verts = np.take_along_axis(verts, np.argsort(key, axis=1)[..., None], axis=1)
    nv = vmask.sum(axis=1)
    verts = np.where((np.arange(12) < nv[:, None])[..., None], verts,
                     verts[np.arange(ncut), nv - 1][:, None, :])
    x, y = verts[..., 0], verts[..., 1]
    polygon = 0.5 * np.abs(rowdot(x - np.roll(x, -1, axis=1), y + np.roll(y, -1, axis=1)))
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

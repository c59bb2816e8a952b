"""Uniform quadrilateral mesh of (-1,1)^2 and the cut topology.

The background mesh is fitted to the outer boundary but not to the
interface.  ``CutTopology`` records, per cell, whether it is purely fluid,
purely solid or cut, the exact area fractions kappa_f/kappa_s, the interface
arc within each cut cell and the ghost penalty face sets of both
subtriangulations.
"""

from __future__ import annotations

import enum
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import CircleLevelSet, edge_zero_crossings


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
    face_origin: np.ndarray    # (nfaces, 2) lower endpoint of the face

    @property
    def n_cells(self) -> int:
        return self.n * self.n

    @property
    def n_faces(self) -> int:
        return self.face_cells.shape[0]

    def cell_origin(self, cell) -> np.ndarray:
        """Lower-left corner of cell(s)."""
        cell = np.asarray(cell)
        ix = cell % self.n
        iy = cell // self.n
        return np.stack([-1.0 + ix * self.h, -1.0 + iy * self.h], axis=-1)

    def cell_corners(self, cell: int) -> np.ndarray:
        """Corners of one cell, counterclockwise from the lower left."""
        o = self.cell_origin(cell)
        h = self.h
        return np.array([o, o + [h, 0.0], o + [h, h], o + [0.0, h]])


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

    face_cells, face_axis, face_origin = [], [], []
    # vertical faces (normal = e_x): between columns
    for iyf in range(n):
        for ixf in range(n + 1):
            left = iyf * n + (ixf - 1) if ixf > 0 else -1
            right = iyf * n + ixf if ixf < n else -1
            face_cells.append((left, right))
            face_axis.append(0)
            face_origin.append((-1.0 + ixf * h, -1.0 + iyf * h))
    # horizontal faces (normal = e_y): between rows
    for iyf in range(n + 1):
        for ixf in range(n):
            below = (iyf - 1) * n + ixf if iyf > 0 else -1
            above = iyf * n + ixf if iyf < n else -1
            face_cells.append((below, above))
            face_axis.append(1)
            face_origin.append((-1.0 + ixf * h, -1.0 + iyf * h))
    return Mesh(
        n=n,
        h=h,
        vertices=vertices,
        cell_vertices=cell_vertices,
        face_cells=np.array(face_cells, dtype=int),
        face_axis=np.array(face_axis, dtype=int),
        face_origin=np.array(face_origin, dtype=float),
    )


@dataclass(frozen=True)
class InterfaceSegment:
    """Arc of the circular interface inside one cut cell."""

    cell: int
    theta0: float
    theta1: float          # theta1 > theta0, arc runs counterclockwise
    endpoints: np.ndarray  # (2, 2) points on the circle

    @property
    def arc_angle(self) -> float:
        return self.theta1 - self.theta0


@dataclass(frozen=True)
class CutTopology:
    """Cell classification, cut fractions, ghost faces and interface arcs."""

    mesh: Mesh
    level_set: CircleLevelSet
    cell_class: np.ndarray   # (n_cells,) CellClass values
    kappa_f: np.ndarray      # (n_cells,)
    kappa_s: np.ndarray      # (n_cells,)
    in_fluid_tri: np.ndarray  # (n_cells,) bool, K in T_f^h
    in_solid_tri: np.ndarray  # (n_cells,) bool, K in T_s^h
    segments: dict[int, InterfaceSegment]
    ghost_faces_f: np.ndarray  # face ids
    ghost_faces_s: np.ndarray

    @property
    def cut_cells(self) -> np.ndarray:
        return np.flatnonzero(self.cell_class == CellClass.CUT)

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


def _cell_crossings(mesh: Mesh, ls: CircleLevelSet, cell: int):
    """Distinct interface crossings on the cell boundary, in boundary order."""
    corners = mesh.cell_corners(cell)
    pts = []
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        for p in edge_zero_crossings(ls, a, b):
            pts.append(p)
    # deduplicate points coinciding at corners / shared tangencies
    out = []
    for p in pts:
        if not any(np.linalg.norm(p - q) < 1e-12 * (1.0 + mesh.h) for q in out):
            out.append(p)
    return out


def _solid_polygon_area(mesh: Mesh, ls: CircleLevelSet, cell: int) -> float:
    """Shoelace area of the chord polygon of the solid part of a cut cell."""
    corners = mesh.cell_corners(cell)
    verts = []
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        if ls(a) < 0.0:
            verts.append(a)
        cross = edge_zero_crossings(ls, a, b)
        d = b - a
        cross.sort(key=lambda p: float((p - a) @ d))
        verts.extend(cross)
    if len(verts) < 3:
        return 0.0
    v = np.array(verts)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _arc_interval(mesh: Mesh, ls: CircleLevelSet, cell: int, p0, p1) -> tuple[float, float]:
    """Angular interval of the in-cell arc between two crossing points."""
    c = ls.center
    t0 = float(np.arctan2(p0[1] - c[1], p0[0] - c[0]))
    t1 = float(np.arctan2(p1[1] - c[1], p1[0] - c[0]))
    lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
    o = mesh.cell_origin(cell)
    h = mesh.h
    r = ls.radius

    def inside(theta):
        x = c + r * np.array([np.cos(theta), np.sin(theta)])
        return (o[0] - 1e-12 <= x[0] <= o[0] + h + 1e-12
                and o[1] - 1e-12 <= x[1] <= o[1] + h + 1e-12)

    if inside(0.5 * (lo + hi)):
        return lo, hi
    # complementary arc, wrapped past pi
    return hi, lo + 2.0 * np.pi


def cut_fraction(mesh: Mesh, ls: CircleLevelSet, cell: int) -> tuple[float, float]:
    """(kappa_f, kappa_s) of a cell from exact polygon + circular segment areas."""
    crossings = _cell_crossings(mesh, ls, cell)
    corners = mesh.cell_corners(cell)
    phis = ls(corners)
    if len(crossings) < 2:
        return (0.0, 1.0) if np.all(phis <= 0.0) else (1.0, 0.0)
    if len(crossings) > 2:
        raise RuntimeError(f"cell {cell}: more than two interface crossings")
    t0, t1 = _arc_interval(mesh, ls, cell, crossings[0], crossings[1])
    dth = t1 - t0
    if dth >= np.pi:
        raise RuntimeError(f"cell {cell}: interface arc angle {dth:.3f} >= pi")
    segment = 0.5 * ls.radius_squared * (dth - np.sin(dth))
    area_s = _solid_polygon_area(mesh, ls, cell) + segment
    h2 = mesh.h * mesh.h
    kappa_s = min(max(area_s / h2, 0.0), 1.0)
    return 1.0 - kappa_s, kappa_s


def build_cut_topology(mesh: Mesh, ls: CircleLevelSet) -> CutTopology:
    """Classify cells, compute cut fractions and ghost face sets."""
    n_cells = mesh.n_cells
    cell_class = np.full(n_cells, CellClass.FLUID_ONLY, dtype=int)
    kappa_f = np.ones(n_cells)
    kappa_s = np.zeros(n_cells)
    segments: dict[int, InterfaceSegment] = {}

    # cheap prefilter: only cells whose corner distances straddle r^2 (with a
    # margin for the face-bulge case) need the exact treatment.  The disk is
    # convex, so a cell with every corner in the closed disk is solid, also
    # when a corner lies on the circle.
    origins = mesh.cell_origin(np.arange(n_cells))
    corners = origins[:, None, :] + mesh.h * np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    phi_c = ls(corners)            # (n_cells, 4)
    all_in = np.all(phi_c <= 0.0, axis=1)
    all_out = np.all(phi_c > 0.0, axis=1)
    cell_class[all_in] = CellClass.SOLID_ONLY
    kappa_f[all_in], kappa_s[all_in] = 0.0, 1.0
    mixed = ~(all_in | all_out)
    # a cell with all corners outside can still be crossed if the disk bulges
    # through one face; the closest boundary point test catches it
    closest = np.clip(ls.center, origins, origins + mesh.h)
    d2 = np.sum((closest - ls.center) ** 2, axis=1)
    maybe_bulge = all_out & (d2 < ls.radius_squared)
    candidates = np.flatnonzero(mixed | maybe_bulge)

    for cell in candidates:
        crossings = _cell_crossings(mesh, ls, int(cell))
        if len(crossings) < 2:
            continue
        if len(crossings) > 2:
            raise RuntimeError(f"cell {cell}: more than two interface crossings")
        t0, t1 = _arc_interval(mesh, ls, int(cell), crossings[0], crossings[1])
        cell_class[cell] = CellClass.CUT
        kf, ks = cut_fraction(mesh, ls, int(cell))
        kappa_f[cell], kappa_s[cell] = kf, ks
        segments[int(cell)] = InterfaceSegment(
            cell=int(cell), theta0=t0, theta1=t1,
            endpoints=np.array(crossings))

    in_fluid = (cell_class == CellClass.FLUID_ONLY) | (cell_class == CellClass.CUT)
    in_solid = (cell_class == CellClass.SOLID_ONLY) | (cell_class == CellClass.CUT)

    ghost_f, ghost_s = [], []
    for f in range(mesh.n_faces):
        k1, k2 = mesh.face_cells[f]
        if k1 < 0 or k2 < 0:
            continue
        any_cut = cell_class[k1] == CellClass.CUT or cell_class[k2] == CellClass.CUT
        if not any_cut:
            continue
        if in_fluid[k1] and in_fluid[k2]:
            ghost_f.append(f)
        if in_solid[k1] and in_solid[k2]:
            ghost_s.append(f)

    return CutTopology(
        mesh=mesh,
        level_set=ls,
        cell_class=cell_class,
        kappa_f=kappa_f,
        kappa_s=kappa_s,
        in_fluid_tri=in_fluid,
        in_solid_tri=in_solid,
        segments=segments,
        ghost_faces_f=np.array(sorted(ghost_f), dtype=int),
        ghost_faces_s=np.array(sorted(ghost_s), dtype=int),
    )


def verify_path_assumption(topo: CutTopology, side: str) -> tuple[int, int]:
    """BFS from every cut cell through ghost faces to an uncut side cell.

    Returns (max path length in faces crossed, max reuse of a target cell).
    Raises if some cut cell has no such path.
    """
    mesh = topo.mesh
    ghost = topo.ghost_faces(side)
    if ghost.size == 0:
        return 0, 0
    adj: dict[int, list[int]] = {}
    for f in ghost:
        k1, k2 = (int(c) for c in mesh.face_cells[f])
        adj.setdefault(k1, []).append(k2)
        adj.setdefault(k2, []).append(k1)
    targets = set(int(c) for c in topo.uncut_cells(side))
    max_len = 0
    reuse: dict[int, int] = {}
    for start in topo.cut_cells:
        start = int(start)
        if start in targets:
            continue
        seen = {start: 0}
        queue = deque([start])
        found = None
        while queue:
            c = queue.popleft()
            if c in targets:
                found = c
                break
            for nb in adj.get(c, ()):
                if nb not in seen:
                    seen[nb] = seen[c] + 1
                    queue.append(nb)
        if found is None:
            raise RuntimeError(
                f"cut cell {start} has no ghost-face path to an uncut {side} cell")
        max_len = max(max_len, seen[found])
        reuse[found] = reuse.get(found, 0) + 1
    return max_len, max(reuse.values(), default=0)
